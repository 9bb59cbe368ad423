"""Checksummed append-only JSONL logs: the one durable-record format.

The sweep run journal (:mod:`repro.sim.journal`) and the tenant
journals (:mod:`repro.serve.tenant_journal`) are both an
:class:`AppendLog`; each keeps only its header schema, its header
validation and its record kinds.  Line 1 is a header record
(``"kind": "header"``), every later line one record, each wrapped with
the SHA-256 of its canonical JSON (:func:`record_digest`, which also
keys config fingerprints and the trace cache)::

    {"record": {...}, "sha256": "<hex>"}

The crash rules, one set for every log:

* Reading is binary and stops at the first torn, undecodable or
  checksum-failing line, keeping every record before it.  A final
  record that passes its checksum but lost its newline is kept.
* Reading never writes: a caller that refuses the header leaves the
  file byte for byte as it was.
* :meth:`AppendLog.resume` cuts the file back to the end of the last
  valid record and restores a lost newline before appending, so
  records written after a resume survive the next one.
* Every append is flushed (enough to survive a killed process);
  ``fsync`` runs every ``fsync_every`` records and on close, a
  constant each caller passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import JournalError

__all__ = [
    "AppendLog",
    "canonical_json",
    "parse_record_line",
    "read_header",
    "record_digest",
    "record_line",
]


def canonical_json(payload) -> str:
    """Canonical JSON (sorted keys, no whitespace): the byte-stable form
    every checksum and fingerprint hashes over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def record_digest(payload) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def record_line(record: dict) -> str:
    """One checksummed JSONL line (no trailing newline)."""
    return json.dumps({"record": record, "sha256": record_digest(record)})


def parse_record_line(line: Union[str, bytes]) -> Optional[dict]:
    """Inverse of :func:`record_line`: the record, or None if the line
    is torn, undecodable, unparsable, or fails its checksum."""
    try:
        wrapper = json.loads(line)
    except ValueError:  # UnicodeDecodeError included
        return None
    if not isinstance(wrapper, dict):
        return None
    record = wrapper.get("record")
    if not isinstance(record, dict) or wrapper.get("sha256") != record_digest(record):
        return None
    return record


def read_header(path: Union[str, Path]) -> Optional[dict]:
    """The header of the log at ``path`` (only its first line is read),
    or None when that line is torn or not a header.  Raises
    :class:`OSError` when the file cannot be read."""
    with Path(path).open("rb") as fh:
        record = parse_record_line(fh.readline())
    if record is None or record.get("kind") != "header":
        return None
    return record


class AppendLog:
    """One append-only log file; see the module docstring.

    :meth:`create` starts a fresh log.  :meth:`read` loads an existing
    one without writing to it; :meth:`resume` then opens it for appends.
    """

    def __init__(self, path: Union[str, Path], fsync_every: int):
        self.path = Path(path)
        self.fsync_every = fsync_every
        self._fh = None
        self._unsynced = 0
        # Where the valid records end, and whether the last one kept
        # its newline (set by :meth:`read`).
        self._valid_end = 0
        self._terminated = True

    @classmethod
    def create(cls, path: Union[str, Path], header: dict, fsync_every: int) -> "AppendLog":
        """Start a fresh log at ``path``, replacing any file there.  Its
        first record is ``header`` marked ``"kind": "header"``, durable
        before this returns: the header is the log's recovery anchor."""
        log = cls(path, fsync_every)
        log.path.parent.mkdir(parents=True, exist_ok=True)
        log._fh = log.path.open("wb")
        log.append({"kind": "header", **header})
        log.sync()
        return log

    @classmethod
    def read(
        cls, path: Union[str, Path], fsync_every: int
    ) -> Tuple["AppendLog", Optional[dict], List[dict]]:
        """Load the log at ``path`` without writing to it.

        Returns the log (not yet open; :meth:`resume` opens it), its
        header (None when the first line is torn or not a header), and
        the valid records after the header, in order.
        """
        log = cls(path, fsync_every)
        records: List[dict] = []
        with log.path.open("rb") as fh:
            for number, raw in enumerate(fh, start=1):
                record = parse_record_line(raw)
                if record is None:
                    print(
                        f"repro: {log.path}:{number}: torn or corrupt "
                        f"record; keeping the {number - 1} records before it",
                        file=sys.stderr,
                    )
                    break
                records.append(record)
                log._valid_end += len(raw)
                log._terminated = raw.endswith(b"\n")
        if not records or records[0].get("kind") != "header":
            return log, None, []
        return log, records[0], records[1:]

    def resume(self) -> "AppendLog":
        """Open a :meth:`read` log for appends: cut the file back to the
        end of its last valid record, and restore that record's newline
        if it lost it."""
        if self._valid_end < self.path.stat().st_size:
            os.truncate(self.path, self._valid_end)
            self._unsynced += 1
        self._fh = self.path.open("ab")
        if not self._terminated:
            self._fh.write(b"\n")
            self._fh.flush()
            self._unsynced += 1
        return self

    def append(self, record: dict) -> None:
        """Write one record and flush it; fsync every ``fsync_every``."""
        if self._fh is None:
            raise JournalError(f"journal {self.path} is closed")
        self._fh.write(record_line(record).encode("utf-8") + b"\n")
        self._fh.flush()
        self._unsynced += 1
        if self._unsynced >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """fsync whatever was written since the last fsync."""
        if self._unsynced:
            os.fsync(self._fh.fileno())
            self._unsynced = 0

    def close(self, fsync: bool = True) -> None:
        """Close the file, first fsyncing anything not yet durable
        (``fsync=False`` skips that, for a log about to be deleted)."""
        if self._fh is not None:
            if fsync:
                self.sync()
            self._fh.close()
            self._fh = None
