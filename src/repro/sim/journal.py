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
* **Checksummed records.**  Each line wraps its payload with a SHA-256
  digest; a record whose digest does not match is treated as
  corruption, not data.
* **Torn-write tolerant.**  A crash can leave a partial final line (or
  a corrupt tail).  Loading stops at the first unparsable or
  checksum-failing record and keeps everything before it — the torn
  cell simply re-runs on resume.  The file is then truncated to the
  last valid record before reopening for append, as the tenant
  journals do (:mod:`repro.serve.tenant_journal`): records written
  after a resume must survive the next one.
* **Fingerprint-validated resume.**  The header pins a canonical hash
  of the sweep's :class:`~repro.sim.config.SimConfig`; resuming with a
  different configuration raises a typed
  :class:`~repro.errors.JournalMismatchError` (exit code 2 in the CLI)
  instead of silently mixing cells simulated under different
  parameters.

Records are flushed and fsync'd as they are written: a journal entry
either exists durably or the cell re-runs.  Replayed cells are
bit-identical to fresh runs because ``SimResult`` round-trips through
JSON exactly (floats serialize via ``repr``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import ConfigError, JournalMismatchError
from repro.sim.config import SimConfig
from repro.sim.results import RunFailure, SimResult

__all__ = [
    "RunJournal",
    "canonical_json",
    "config_fingerprint",
    "parse_record_line",
    "record_digest",
    "record_line",
    "spec_key",
]

#: Bump when the record layout changes incompatibly; a journal written
#: under another version is rejected on resume (JournalMismatchError).
JOURNAL_SCHEMA_VERSION = 1


def canonical_json(payload) -> str:
    """Canonical JSON: the byte-stable form both checksums and the
    config fingerprint hash over."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


def record_digest(payload) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def record_line(record: dict) -> str:
    """One checksummed JSONL line (no trailing newline).

    The record wrapped with its own digest — the append format shared
    by the run journal here and the per-tenant serve journals
    (:mod:`repro.serve.tenant_journal`)."""
    return json.dumps({"record": record, "sha256": record_digest(record)})


def parse_record_line(line: str) -> Optional[dict]:
    """Inverse of :func:`record_line`: the record, or None if the line
    is torn, unparsable, or fails its checksum."""
    try:
        wrapper = json.loads(line)
    except ValueError:
        return None
    if not isinstance(wrapper, dict):
        return None
    record = wrapper.get("record")
    if record is None or wrapper.get("sha256") != record_digest(record):
        return None
    return record


# Backward-compatible private aliases (tests and older callers poke
# these names).
_canonical = canonical_json
_digest = record_digest


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
    return _digest(fields)


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
        self._fh = None

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
          :class:`JournalMismatchError` on any disagreement.
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
            if journal._load():
                journal._fh = path.open("a", encoding="utf-8")
                return journal
            print(
                f"repro: journal {path} has no readable header; "
                "starting fresh",
                file=sys.stderr,
            )
        journal._start_fresh()
        return journal

    def _start_fresh(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self._append(
            {
                "kind": "header",
                "version": JOURNAL_SCHEMA_VERSION,
                "fingerprint": self.fingerprint,
            }
        )

    def _load(self) -> bool:
        """Read an existing journal; returns False when there is no
        usable header (caller starts fresh).  Stops at the first torn
        or checksum-failing record; later lines are suspect and the
        cells they described simply re-run.

        A usable journal is then cut back to the end of its last valid
        record, so the appends that follow start on a clean line: left
        behind the torn bytes, they would be dropped by the *next*
        resume.  A final record that parses but lost its newline is
        kept, and the newline is restored before the first append."""
        records = []
        valid_end = 0
        terminated = True
        # Binary read, so ``valid_end`` is an exact byte offset.
        with self.path.open("rb") as fh:
            for number, raw in enumerate(fh, start=1):
                try:
                    record = self._parse_line(raw.decode("utf-8"))
                except UnicodeDecodeError:
                    record = None
                if record is None:
                    print(
                        f"repro: journal {self.path}:{number}: torn or "
                        f"corrupt record; keeping the {number - 1} records "
                        "before it",
                        file=sys.stderr,
                    )
                    break
                records.append(record)
                valid_end += len(raw)
                terminated = raw.endswith(b"\n")
        if not records or records[0].get("kind") != "header":
            return False
        header = records[0]
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
        for record in records[1:]:
            key = record.get("key")
            if record.get("kind") == "result":
                # Last record wins: a cell re-journaled after an
                # earlier resume supersedes the older entry.
                self.completed[key] = SimResult.from_dict(record["result"])
            elif record.get("kind") == "failure":
                self.failed[key] = RunFailure.from_dict(record["failure"])
        if valid_end < self.path.stat().st_size:
            os.truncate(self.path, valid_end)
        if not terminated:
            with self.path.open("ab") as fh:
                fh.write(b"\n")
        return True

    @staticmethod
    def _parse_line(line: str) -> Optional[dict]:
        """One JSONL record, or None if torn/corrupt."""
        return parse_record_line(line)

    # -- appending ----------------------------------------------------

    def _append(self, record: dict) -> None:
        self._fh.write(record_line(record) + "\n")
        # Flush + fsync per record: cells take milliseconds to compute
        # at minimum, so durability here is cheap — and a record either
        # survives a crash whole or its cell re-runs.
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_result(self, workload: str, scheme: str, thp: bool,
                      result: SimResult) -> None:
        key = spec_key(workload, scheme, thp)
        self.completed[key] = result
        self._append({"kind": "result", "key": key,
                      "result": asdict(result)})

    def record_failure(self, workload: str, scheme: str, thp: bool,
                       failure: RunFailure) -> None:
        key = spec_key(workload, scheme, thp)
        self.failed[key] = failure
        self._append({"kind": "failure", "key": key,
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
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
