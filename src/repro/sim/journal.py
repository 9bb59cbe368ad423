"""Append-only run journal: crash-safe checkpointing for sweeps.

A sweep over the (workload × scheme × THP) grid can run for hours; a
crash — or a Ctrl-C at 95% — must not discard the completed cells.
The journal is the durability layer underneath ``run_suite(...,
journal=path, resume=True)``:

* **Append-only JSONL.**  One record per line.  The first line is a
  header carrying the schema version and the sweep's *config
  fingerprint*; every later line is a completed cell — a ``result``
  (the full :class:`~repro.sim.results.SimResult`) or a ``failure`` (a
  *simulated* :class:`~repro.errors.ReproError`, which is
  deterministic and therefore safe to replay).  Host-level failures
  (timeouts, crashed workers) are deliberately **not** journaled: they
  are retryable, and a resume should retry them.
* **One append log.**  The file is an :class:`~repro.applog.AppendLog`
  with its crash rules: checksummed lines, and a torn tail dropped
  (its cell re-runs) and cut off before the next append.
* **Fingerprint-validated resume.**  The header pins a canonical hash
  of the sweep's :class:`~repro.sim.config.SimConfig`; resuming with a
  different configuration raises a typed
  :class:`~repro.errors.JournalMismatchError` (exit code 2 in the CLI)
  instead of silently mixing cells simulated under different
  parameters.

Records are fsync'd as they are written (an ``fsync_every`` of 1): a
journal entry either exists durably or the cell re-runs.  Replayed
cells are bit-identical to fresh runs because ``SimResult`` round-trips
through JSON exactly (floats serialize via ``repr``).
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.applog import AppendLog, record_digest
from repro.errors import ConfigError, JournalMismatchError
from repro.sim.config import SimConfig
from repro.sim.results import RunFailure, SimResult

__all__ = [
    "RunJournal",
    "config_fingerprint",
    "record_digest",
    "spec_key",
]

#: Bump when the record layout changes incompatibly; a journal written
#: under another version is rejected on resume (JournalMismatchError).
JOURNAL_SCHEMA_VERSION = 1

#: fsync cadence, in records: every record.  Cells take milliseconds at
#: minimum, so durability here is cheap.
FSYNC_EVERY = 1


def config_fingerprint(config: SimConfig) -> str:
    """Stable hash of every field that shapes a cell's result.

    Two sweeps share a journal only if their configs hash identically;
    the grid (workloads/schemes/page modes) is *not* part of the
    fingerprint on purpose — journal hits are keyed per cell, so a
    resumed sweep may legitimately extend or shrink the grid.

    ``thp`` is excluded: the sweep clones the base config with each
    page mode, and the journal key already carries the THP flag — a
    journal written from a ``thp=True`` base must still hit.

    The trace-cache knobs (``use_trace_cache``, ``trace_cache_dir``)
    are excluded too: they change how traces are produced and shared,
    never the simulated numbers — a sweep journaled with the cache on
    must resume cleanly with it off.

    Every other field counts, nested ones included, so adding or
    removing a config field changes every fingerprint: a journal
    written under the old field set is refused on resume with
    :class:`~repro.errors.JournalMismatchError`, never misread.
    """
    fields = asdict(config)
    fields.pop("thp", None)
    fields.pop("use_trace_cache", None)
    fields.pop("trace_cache_dir", None)
    return record_digest(fields)


def spec_key(workload: str, scheme: str, thp: bool) -> str:
    """Canonical per-cell key (scale/seed live in the fingerprint)."""
    return f"{workload}/{scheme}/thp={int(thp)}"


class RunJournal:
    """One sweep's append-only journal file.

    Use :meth:`open` (the only constructor callers need): it creates a
    fresh journal, or — with ``resume=True`` — loads completed cells
    from an existing one after validating its fingerprint.
    """

    def __init__(self, path: Path, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        self.completed: Dict[str, SimResult] = {}
        self.failed: Dict[str, RunFailure] = {}
        self._log: Optional[AppendLog] = None

    # -- construction -------------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        config: SimConfig,
        resume: bool = False,
    ) -> "RunJournal":
        """Open ``path`` for the sweep described by ``config``.

        * ``resume=False``: truncate and write a fresh header.
        * ``resume=True`` + existing journal: load it (tolerating a
          torn tail) and verify the fingerprint — raise
          :class:`JournalMismatchError` on any disagreement, leaving
          the file untouched.
        * ``resume=True`` + no journal: a :class:`ConfigError` (exit
          code 2 in the CLI) — asking to resume work that never
          happened is a configuration mistake, distinct from the
          stale-fingerprint :class:`JournalMismatchError`.
        * ``resume=True`` + an unreadable header (a crash during
          journal creation): nothing usable to resume; start fresh
          with a warning.
        """
        path = Path(path)
        journal = cls(path, config_fingerprint(config))
        if resume:
            if not path.exists():
                raise ConfigError(
                    f"nothing to resume at {path}: the journal does not "
                    "exist (re-run without --resume to start one)"
                )
            log, header, records = AppendLog.read(path, FSYNC_EVERY)
            if header is not None:
                journal._replay(header, records)
                journal._log = log.resume()
                return journal
            print(
                f"repro: journal {path} has no readable header; "
                "starting fresh",
                file=sys.stderr,
            )
        journal._log = AppendLog.create(
            path,
            {"version": JOURNAL_SCHEMA_VERSION, "fingerprint": journal.fingerprint},
            FSYNC_EVERY,
        )
        return journal

    def _replay(self, header: dict, records: list) -> None:
        """Validate ``header`` against this sweep, then load the cells
        of ``records``."""
        if header.get("version") != JOURNAL_SCHEMA_VERSION:
            raise JournalMismatchError(
                f"journal {self.path} has schema version "
                f"{header.get('version')!r}, this build writes "
                f"{JOURNAL_SCHEMA_VERSION}; re-run without --resume to "
                "start a fresh journal"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise JournalMismatchError(
                f"journal {self.path} was written by a sweep with a "
                "different configuration (fingerprint "
                f"{header.get('fingerprint')!r} != {self.fingerprint!r}); "
                "its cells cannot be mixed with this sweep's — re-run "
                "without --resume to start a fresh journal"
            )
        for record in records:
            key = record.get("key")
            if record.get("kind") == "result":
                # Last record wins: a cell re-journaled after an
                # earlier resume supersedes the older entry.
                self.completed[key] = SimResult.from_dict(record["result"])
            elif record.get("kind") == "failure":
                self.failed[key] = RunFailure.from_dict(record["failure"])

    # -- appending ----------------------------------------------------

    def record_result(self, workload: str, scheme: str, thp: bool,
                      result: SimResult) -> None:
        key = spec_key(workload, scheme, thp)
        self.completed[key] = result
        self._log.append({"kind": "result", "key": key,
                          "result": asdict(result)})

    def record_failure(self, workload: str, scheme: str, thp: bool,
                       failure: RunFailure) -> None:
        key = spec_key(workload, scheme, thp)
        self.failed[key] = failure
        self._log.append({"kind": "failure", "key": key,
                          "failure": asdict(failure)})

    # -- lookup -------------------------------------------------------

    def result_for(self, workload: str, scheme: str,
                   thp: bool) -> Optional[SimResult]:
        return self.completed.get(spec_key(workload, scheme, thp))

    def failure_for(self, workload: str, scheme: str,
                    thp: bool) -> Optional[RunFailure]:
        return self.failed.get(spec_key(workload, scheme, thp))

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
