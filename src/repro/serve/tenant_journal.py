"""Per-tenant event journals: the serving layer's crash-recovery log.

Each tenant the server hosts gets one append-only JSONL file under the
server's journal directory: an :class:`~repro.applog.AppendLog`, the
checksummed-JSONL log the sweep run journal shares.

* line 1 is a header pinning the journal schema version, the tenant
  name and the canonical fingerprint of its
  :class:`~repro.serve.tenant.TenantSpec` — a journal can never be
  replayed into a tenant built from a different spec;
* every later line is one applied mutating operation
  ``{"seq": n, "op": "mmap"|"munmap"|"translate", "args": {...}}``.

**Write-ahead discipline.**  The shard appends and *flushes* the
record **before** applying the operation to the tenant, so after a
crash the journal is a superset of the applied state; replaying it
top-to-bottom (results are recomputed, never stored — every op is
deterministic) reconstructs the tenant bit-identically, and the
per-tenant ``seq`` lets the front end resubmit in-flight requests with
exactly-once semantics: a replayed record and a resubmitted duplicate
of the same ``seq`` are the same operation.

**Durability model.**  Every record is flushed to the kernel as it is
appended — that is what SIGKILL-crash recovery (the supervisor killing
a wedged shard) needs, because the page cache survives process death.
An ``fsync`` runs every :data:`FSYNC_EVERY` records (and on ``close``)
to bound the loss window of a *host* crash; per-record fsync — the run
journal's cadence, affordable at sweep-cell granularity — would cap a
shard at a few hundred requests/second.

**Torn tails** follow the log's crash rules: a torn record is dropped
and cut off before the next append (its request re-runs when the front
end resubmits it), and a refused journal is left untouched.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Tuple, Union

from repro.applog import AppendLog, read_header
from repro.errors import JournalError, JournalMismatchError
from repro.serve.tenant import TenantSpec

__all__ = ["TenantJournal", "FSYNC_EVERY", "journal_path", "list_tenants"]

#: Bump when the record layout changes incompatibly.
TENANT_JOURNAL_VERSION = 1

#: fsync cadence, in records.  Flush-per-record already survives a
#: killed worker; fsync bounds host-crash loss to this many requests.
FSYNC_EVERY = 256


def journal_path(journal_dir: Union[str, Path], tenant: str) -> Path:
    """The journal file for ``tenant``, with the name made filesystem-
    safe (tenant names are client-controlled wire data)."""
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else f"%{ord(ch):02x}" for ch in tenant
    )
    return Path(journal_dir) / f"tenant-{safe}.jsonl"


class TenantJournal:
    """One tenant's append-only event journal.

    Construct via :meth:`create` (fresh tenant) or :meth:`load`
    (recovery replay); both validate the header discipline described
    in the module docstring.
    """

    def __init__(self, log: AppendLog, spec: TenantSpec):
        self.path = log.path
        self.spec = spec
        self._log = log

    # -- construction -------------------------------------------------

    @classmethod
    def create(cls, journal_dir: Union[str, Path], spec: TenantSpec) -> "TenantJournal":
        """Start a fresh journal for a newly created tenant; its header
        is durable before the tenant is acknowledged."""
        header = {
            "version": TENANT_JOURNAL_VERSION,
            "tenant": spec.name,
            "spec": spec.to_dict(),
            "fingerprint": spec.fingerprint(),
        }
        log = AppendLog.create(journal_path(journal_dir, spec.name), header, FSYNC_EVERY)
        return cls(log, spec)

    @classmethod
    def load(
        cls, journal_dir: Union[str, Path], tenant: str
    ) -> Tuple["TenantJournal", List[dict]]:
        """Open an existing journal for replay; returns the journal
        (positioned for appending) and its event records in order.

        Raises :class:`JournalError` when the file or its header is
        unusable, :class:`JournalMismatchError` when the header was
        written under a different schema version or does not match its
        own spec; either way the file is left untouched.  A torn or
        corrupt tail is dropped with a warning (see "Torn tails" in the
        module docstring).
        """
        path = journal_path(journal_dir, tenant)
        if not path.exists():
            raise JournalError(
                f"no journal for tenant {tenant!r} at {path}; "
                "cannot reconstruct its state"
            )
        log, header, events = AppendLog.read(path, FSYNC_EVERY)
        if header is None:
            raise JournalError(
                f"tenant journal {path} has no readable header; "
                "the tenant cannot be reconstructed"
            )
        if header.get("version") != TENANT_JOURNAL_VERSION:
            raise JournalMismatchError(
                f"tenant journal {path} has schema version "
                f"{header.get('version')!r}, this build writes "
                f"{TENANT_JOURNAL_VERSION}"
            )
        spec = TenantSpec.from_dict(header.get("spec") or {})
        if header.get("fingerprint") != spec.fingerprint():
            raise JournalMismatchError(
                f"tenant journal {path}: header fingerprint does not match "
                "its own spec; refusing to replay a tampered journal"
            )
        return cls(log.resume(), spec), events

    # -- appending ----------------------------------------------------

    def append_event(self, seq: int, op: str, args: dict) -> None:
        """Write-ahead one mutating op (call *before* applying it)."""
        self._log.append({"seq": seq, "op": op, "args": args})

    # -- lifecycle ----------------------------------------------------

    def delete(self) -> None:
        """Close and remove the journal (tenant dropped)."""
        self.close(fsync=False)
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def close(self, fsync: bool = True) -> None:
        self._log.close(fsync=fsync)

    def __enter__(self) -> "TenantJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_spec(journal_dir: Union[str, Path], tenant: str) -> TenantSpec:
    """Read-only peek at a journal's header spec (the front end uses
    this at server restart; it never holds an append handle — the
    owning shard worker does)."""
    path = journal_path(journal_dir, tenant)
    try:
        header = read_header(path)
    except OSError as exc:
        raise JournalError(f"cannot read tenant journal {path}: {exc}") from exc
    if header is None:
        raise JournalError(f"tenant journal {path} has no readable header")
    return TenantSpec.from_dict(header.get("spec") or {})


def list_tenants(journal_dir: Union[str, Path]) -> Iterator[str]:
    """Tenant names with a journal under ``journal_dir`` (the unescaped
    name comes from each journal's header, not the filename)."""
    root = Path(journal_dir)
    if not root.exists():
        return
    for path in sorted(root.glob("tenant-*.jsonl")):
        try:
            header = read_header(path)
        except OSError:
            continue
        if header and header.get("tenant"):
            yield header["tenant"]
