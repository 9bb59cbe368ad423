"""Shard worker: one process hosting a subset of the server's tenants.

The front end forks one worker per shard and talks to it over a unix
``socketpair`` using the same length-prefixed JSON frames as the
client protocol (:mod:`repro.serve.protocol`).  The worker is
deliberately single-threaded and blocking: requests for one shard
apply in arrival order, which is what makes the per-tenant event
journals a total order and recovery replay exact.

Crash-recovery contract (the other half lives in ``shards.py``):

* **Write-ahead.**  Every mutating op is appended to the tenant's
  journal — and flushed — *before* it is applied.  After a SIGKILL the
  journal is a superset of applied state; replay rebuilds the tenant
  bit-identically because every op is deterministic.
* **Exactly-once.**  The front end stamps each mutating op with a
  per-tenant monotonic ``seq``.  The worker drops ``seq <=
  tenant.last_seq`` as a duplicate (answering from a bounded ring of
  recent results), so the front end can blindly resubmit everything
  in flight after a respawn: ops that survived in the journal dedup,
  ops torn out of the tail re-run.
* **Deterministic errors.**  A request that fails for a *modeled*
  reason (unmapped VA, quarantine-class corruption) still consumed its
  ``seq`` and still sits in the journal; replay re-raises the same
  error at the same record, which is how a recovered shard
  re-quarantines exactly the tenants that were quarantined before the
  crash.

Hung-worker diagnostics: the worker registers :mod:`faulthandler` on
``SIGUSR1`` at startup (``sim.supervisor.install_worker_signals``, the
sweep pool's routine too), so the supervising parent can demand a stack
dump (to the inherited stderr) before it SIGKILLs a shard that missed
its heartbeat deadline — the dump says *where* the shard was wedged.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ProtocolError,
    ReproError,
    TenantExistsError,
    UnknownTenantError,
)
from repro.serve.protocol import error_payload, read_frame_sock, write_frame_sock
from repro.serve.tenant import MUTATING_OPS, Tenant, TenantSpec
from repro.serve.tenant_journal import TenantJournal
from repro.sim.supervisor import install_worker_signals

__all__ = ["ShardWorker", "shard_main"]

#: Per-tenant ring of recent (seq → response) pairs used to answer
#: resubmitted duplicates.  Must exceed the front end's per-tenant
#: in-flight bound, so a duplicate is always either in the ring or
#: below it (in which case a bare dedup ack is enough).
RESULT_RING = 512


class ShardWorker:
    """The state and dispatch loop of one shard process."""

    def __init__(self, shard_id: int, journal_dir: str):
        self.shard_id = shard_id
        self.journal_dir = journal_dir
        self.tenants: Dict[str, Tenant] = {}
        self.journals: Dict[str, TenantJournal] = {}
        #: seq → response payload, per tenant, for duplicate resubmits.
        self._rings: Dict[str, Dict[int, dict]] = {}

    # -- dispatch ------------------------------------------------------

    def handle(self, request: dict) -> Tuple[dict, bool]:
        """One request in, one response out.

        Returns ``(response, keep_running)``.  Every failure — modeled
        or a plain bug — becomes a typed error frame; the worker
        itself only exits on ``shutdown`` or a closed socket.
        """
        rid = request.get("id")
        op = request.get("op")
        try:
            if op == "shutdown":
                self.close_all()
                return {"id": rid, "ok": True, "result": {"stopped": True}}, False
            result = self._dispatch(op, request)
            return {"id": rid, "ok": True, "result": result}, True
        except BaseException as exc:  # noqa: BLE001 — one bad request
            # must never take the whole shard (and its tenants) down.
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return {"id": rid, "ok": False, "error": error_payload(exc)}, True

    def _dispatch(self, op: Optional[str], request: dict) -> dict:
        if op == "ping":
            return {"pong": True, "shard": self.shard_id, "tenants": len(self.tenants)}
        if op == "sleep":
            # Chaos/test aid: wedge the shard on purpose so deadline
            # detection and the SIGUSR1 dump path can be exercised.
            time.sleep(float(request.get("args", {}).get("seconds", 0.0)))
            return {"slept": True}
        if op == "create_tenant":
            return self._create_tenant(request.get("args") or {})
        if op == "drop_tenant":
            return self._drop_tenant(request.get("args") or {})
        if op == "restore":
            return self.restore((request.get("args") or {}).get("tenants") or [])
        if op == "shard_stats":
            return self._shard_stats()
        # Everything else is a per-tenant op.
        tenant = self._tenant(request.get("tenant"))
        args = request.get("args") or {}
        if op in MUTATING_OPS:
            return self._apply_mutating(tenant, op, args, request.get("seq"))
        if op in ("stats", "digest"):
            return tenant.apply(op, args)
        raise ProtocolError(f"unknown op {op!r}")

    def _tenant(self, name) -> Tenant:
        if not isinstance(name, str):
            raise ProtocolError(f"request needs a tenant name, got {name!r}")
        tenant = self.tenants.get(name)
        if tenant is None:
            raise UnknownTenantError(f"no tenant {name!r} on shard {self.shard_id}")
        return tenant

    # -- tenant lifecycle ---------------------------------------------

    def _create_tenant(self, args: dict) -> dict:
        spec = TenantSpec.from_dict(args.get("spec") or {})
        if spec.name in self.tenants:
            raise TenantExistsError(f"tenant {spec.name!r} already exists")
        journal = TenantJournal.create(self.journal_dir, spec)
        try:
            tenant = Tenant(spec)
        except BaseException:
            journal.delete()
            raise
        self.tenants[spec.name] = tenant
        self.journals[spec.name] = journal
        self._rings[spec.name] = {}
        return {"tenant": spec.name, "shard": self.shard_id}

    def _drop_tenant(self, args: dict) -> dict:
        name = args.get("name")
        tenant = self._tenant(name)
        self.journals.pop(name).delete()
        self._rings.pop(name, None)
        del self.tenants[name]
        return {"tenant": name, "dropped": True, "was_quarantined": tenant.quarantined}

    # -- the write-ahead mutating path --------------------------------

    def _apply_mutating(self, tenant: Tenant, op: str, args: dict, seq) -> dict:
        if not isinstance(seq, int):
            raise ProtocolError(f"mutating op {op!r} needs an integer seq, got {seq!r}")
        name = tenant.spec.name
        if seq <= tenant.last_seq:
            # Resubmitted duplicate: already journaled and applied (or
            # deterministically failed).  Answer from the ring when the
            # response is still there; otherwise a bare dedup ack.
            ring = self._rings.get(name, {})
            cached = ring.get(seq)
            if cached is not None:
                if not cached.get("__ok__", True):
                    raise _rehydrate(cached["error"])
                return cached["result"]
            return {"deduped": True, "seq": seq}
        if seq != tenant.last_seq + 1:
            raise ProtocolError(
                f"tenant {name!r}: out-of-order seq {seq} "
                f"(expected {tenant.last_seq + 1})"
            )
        self.journals[name].append_event(seq, op, args)
        tenant.last_seq = seq
        try:
            result = tenant.apply(op, args)
        except BaseException as exc:
            self._remember(name, seq, {"__ok__": False, "error": error_payload(exc)})
            raise
        self._remember(name, seq, {"__ok__": True, "result": result})
        return result

    def _remember(self, name: str, seq: int, response: dict) -> None:
        ring = self._rings.setdefault(name, {})
        ring[seq] = response
        while len(ring) > RESULT_RING:
            ring.pop(min(ring))

    # -- recovery ------------------------------------------------------

    def restore(self, tenant_names: List[str]) -> dict:
        """Rebuild tenants from their journals (post-respawn).

        Replays every journaled op through a fresh :class:`Tenant`.
        Errors during replay are *expected* — they happened live, they
        happen again identically (quarantines included) — and are
        caught exactly as :meth:`handle` catches them live; the
        recomputed responses repopulate the dedup ring so resubmitted
        in-flight requests get their original answers.
        """
        restored, quarantined = [], []
        for name in tenant_names:
            journal, events = TenantJournal.load(self.journal_dir, name)
            tenant = Tenant(journal.spec)
            ring: Dict[int, dict] = {}
            for event in events:
                seq, op, args = event["seq"], event["op"], event["args"]
                tenant.last_seq = seq
                try:
                    result = tenant.apply(op, args)
                except Exception as exc:  # noqa: BLE001 — see handle()
                    ring[seq] = {"__ok__": False, "error": error_payload(exc)}
                else:
                    ring[seq] = {"__ok__": True, "result": result}
                while len(ring) > RESULT_RING:
                    ring.pop(min(ring))
            self.tenants[name] = tenant
            self.journals[name] = journal
            self._rings[name] = ring
            restored.append(name)
            if tenant.quarantined is not None:
                quarantined.append(name)
        return {
            "restored": restored,
            "quarantined": quarantined,
            "shard": self.shard_id,
        }

    # -- stats / lifecycle --------------------------------------------

    def _shard_stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "tenants": sorted(self.tenants),
            "quarantined": sorted(
                n for n, t in self.tenants.items() if t.quarantined is not None
            ),
            "last_seqs": {n: t.last_seq for n, t in self.tenants.items()},
        }

    def close_all(self) -> None:
        for journal in self.journals.values():
            journal.close()
        self.journals.clear()


def _rehydrate(error: dict) -> ReproError:
    from repro.serve.protocol import decode_error

    return decode_error(error)


def shard_main(
    sock: socket.socket,
    shard_id: int,
    journal_dir: str,
    inherited: Sequence[socket.socket],
) -> None:
    """Entry point of the forked shard process: serve until EOF or
    ``shutdown``.  A torn frame (the parent died mid-write) also ends
    the loop — orphaned shards must not outlive the front end.

    ``inherited`` are the front end's ends of the shard socketpairs
    that the fork copied.  They are closed first: while this process
    holds one, the front end's death — a SIGKILL included — never
    reads as EOF here."""
    for other in inherited:
        other.close()
    install_worker_signals()
    worker = ShardWorker(shard_id, journal_dir)
    try:
        while True:
            try:
                request = read_frame_sock(sock)
            except ProtocolError:
                break
            if request is None:
                break
            response, keep_running = worker.handle(request)
            write_frame_sock(sock, response)
            if not keep_running:
                break
    finally:
        worker.close_all()
        try:
            sock.close()
        except OSError:
            pass
