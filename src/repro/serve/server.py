"""The serving front end: admission control, quotas, shedding, routing.

``TranslationServer`` listens on a unix socket for length-prefixed
JSON frames (:mod:`repro.serve.protocol`) and hosts many tenant
address spaces across the shard workers managed by
:class:`~repro.serve.shards.ShardManager`.  The front end holds **no
tenant translation state** — it owns exactly the things that must
survive a shard crash without replay: tenant placement, per-tenant
``seq`` counters, quota accounting, and the quarantine cache.

Admission control (checked *before* a request touches a shard, so a
rejected request provably mutated nothing):

* **Bounded queues.**  At most ``max_global_inflight`` requests (and
  ``max_tenant_inflight`` per tenant) may be in flight; the newest
  request past the bound is shed with a typed
  :class:`~repro.errors.ServerOverloadedError` frame — reject-newest,
  because the requests already admitted are the ones closest to
  completing.
* **Per-tenant quotas.**  A tenant's spec may set ``max_vmas``, which
  bounds its address-space size (checked against the front end's VMA
  ledger), and ``max_refs_per_sec``, a token bucket over translate
  batch sizes; both reject with
  :class:`~repro.errors.QuotaExceededError`.

A tenant the shards report quarantined is cached here and fast-failed
with :class:`~repro.errors.TenantQuarantinedError` without a shard
round-trip — a poisoned tenant cannot consume shard time, which is
half of the isolation story (the other half is that quarantine is
per-tenant state inside the shard; see ``tenant.py``).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.errors import (
    ProtocolError,
    QuotaExceededError,
    ReproError,
    ServerOverloadedError,
    TenantExistsError,
    TenantQuarantinedError,
    UnknownTenantError,
)
from repro.serve.protocol import error_payload, read_frame, write_frame
from repro.serve.shards import ShardManager
from repro.serve.tenant import MUTATING_OPS, READONLY_OPS, TenantSpec

__all__ = ["ServePolicy", "TranslationServer"]


@dataclass
class ServePolicy:
    """Everything tunable about the serving layer's robustness."""

    num_shards: int = 2
    #: Admission bounds (reject-newest shedding past either).
    max_global_inflight: int = 64
    max_tenant_inflight: int = 16
    #: Supervision cadence.
    heartbeat_interval: float = 1.0
    shard_deadline: float = 10.0
    #: ``--chaos``: default fault plan injected into tenants that do
    #: not bring their own (dict form of a FaultPlan).
    chaos_plan: Optional[dict] = None


@dataclass
class _TenantEntry:
    """Front-end bookkeeping for one hosted tenant."""

    spec: TenantSpec
    shard: int
    seq: int = 0
    inflight: int = 0
    vmas: int = 0
    #: Token bucket for the refs/sec quota; None until first use, then
    #: initialized to full capacity so a fresh tenant's first batch is
    #: admitted instead of waiting for tokens to accrue.
    tokens: Optional[float] = None
    tokens_at: float = field(default_factory=time.monotonic)
    #: Serializes seq assignment + submission so frames reach the
    #: shard in seq order (the worker rejects gaps); responses are
    #: awaited outside the lock, so requests still pipeline.
    order_lock: asyncio.Lock = field(default_factory=asyncio.Lock)


#: Response latencies kept for the p50/p99 of ``server_stats``.
LATENCY_WINDOW = 256


@dataclass
class ServerStats:
    requests: int = 0
    served: int = 0
    shed_overload: int = 0
    quota_rejects: int = 0
    quarantine_rejects: int = 0
    errors: int = 0


def _reap_abandoned_submit(task: "asyncio.Task") -> None:
    """Done-callback for a shielded submit whose awaiter was cancelled:
    consume its exception (or its response future's) quietly so the
    event loop never logs a 'never retrieved' warning for a request
    nobody is waiting on anymore."""
    if task.cancelled():
        return
    if task.exception() is not None:
        return
    response = task.result()
    response.add_done_callback(lambda f: f.cancelled() or f.exception())


class TranslationServer:
    """One serving front end over a unix socket; see module docstring."""

    def __init__(self, socket_path: str, journal_dir: str, policy: ServePolicy):
        self.socket_path = socket_path
        self.journal_dir = journal_dir
        self.policy = policy
        self.shards = ShardManager(
            policy.num_shards,
            journal_dir,
            heartbeat_interval=policy.heartbeat_interval,
            deadline=policy.shard_deadline,
        )
        self.tenants: Dict[str, _TenantEntry] = {}
        self.quarantined: Dict[str, str] = {}
        self.stats = ServerStats()
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._inflight = 0
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        await self.shards.start()
        # A restarted server (same journal dir) re-hosts its tenants
        # *before* the listener exists: a client connecting right
        # after restart must never see UnknownTenantError for a
        # tenant whose journal survives.
        await self.adopt_journaled_tenants()
        self._server = await asyncio.start_unix_server(
            self._serve_client, path=self.socket_path
        )

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.shards.close()

    async def serve_forever(self) -> None:
        await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.close()

    # -- client connections -------------------------------------------

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: requests are handled concurrently
        (a slow translate must not block an independent tenant's
        traffic on the same connection), responses are written under a
        lock, matched by id."""
        write_lock = asyncio.Lock()
        tasks = set()
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except asyncio.CancelledError:
                    # Shutdown while parked on the socket: exit cleanly
                    # so the streams machinery doesn't log the cancel.
                    break
                except ProtocolError as exc:
                    async with write_lock:
                        await write_frame(
                            writer,
                            {"id": None, "ok": False, "error": error_payload(exc)},
                        )
                    break
                if request is None:
                    break
                task = asyncio.create_task(
                    self._answer(request, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _answer(self, request: dict, writer, write_lock) -> None:
        rid = request.get("id")
        started = time.monotonic()
        try:
            result = await self.handle(request)
            response = {"id": rid, "ok": True, "result": result}
            self.stats.served += 1
        except ReproError as exc:
            response = {"id": rid, "ok": False, "error": error_payload(exc)}
        except Exception as exc:  # noqa: BLE001 — a bug serving one
            # request must not sever the connection (or the server).
            self.stats.errors += 1
            response = {"id": rid, "ok": False, "error": error_payload(exc)}
        self._latencies.append(time.monotonic() - started)
        try:
            async with write_lock:
                await write_frame(writer, response)
        except (ConnectionError, OSError):
            pass  # client went away; nothing to tell it

    # -- dispatch ------------------------------------------------------

    async def handle(self, request: dict) -> dict:
        """The op switch behind every socket request."""
        op = request.get("op")
        self.stats.requests += 1
        if op == "ping":
            return {"pong": True}
        if op == "server_stats":
            return self.server_stats()
        if op == "create_tenant":
            return await self._create_tenant(request.get("args") or {})
        if op == "drop_tenant":
            return await self._drop_tenant(request.get("args") or {})
        if op == "sleep":
            # Test/chaos aid: wedge one shard to exercise deadline
            # detection end to end.
            shard = int(request.get("shard", 0))
            return await self.shards.request(
                shard, {"op": "sleep", "args": request.get("args") or {}}
            )
        if op in MUTATING_OPS or op in READONLY_OPS:
            return await self._tenant_op(op, request)
        raise ProtocolError(f"unknown op {op!r}")

    # -- tenant lifecycle ---------------------------------------------

    async def _create_tenant(self, args: dict) -> dict:
        spec = TenantSpec.from_dict(args.get("spec") or {})
        if spec.name in self.tenants:
            raise TenantExistsError(f"tenant {spec.name!r} already exists")
        if spec.fault_plan is None and self.policy.chaos_plan is not None:
            spec = TenantSpec.from_dict(
                dict(spec.to_dict(), fault_plan=dict(self.policy.chaos_plan))
            )
        shard = self.shards.shard_of(spec.name)
        # Register placement *before* the shard call: if the worker
        # crashes after writing the journal header, recovery must know
        # this tenant belongs to that shard.
        self.shards.tenants_by_shard[shard].add(spec.name)
        try:
            result = await self.shards.request(
                shard, {"op": "create_tenant", "args": {"spec": spec.to_dict()}}
            )
        except BaseException:
            self.shards.tenants_by_shard[shard].discard(spec.name)
            raise
        self.tenants[spec.name] = _TenantEntry(spec=spec, shard=shard)
        return result

    async def adopt_journaled_tenants(self) -> None:
        """Whole-server restart: re-host every tenant whose journal
        survives in ``journal_dir``.

        Placement is recomputed (``shard_of`` is a stable hash, so each
        tenant lands on the same shard index it did before), each shard
        replays its tenants' journals, and the front end rebuilds the
        bookkeeping a shard cannot: seq counters resume from the
        replayed ``last_seq``, the VMA ledger from the rebuilt address
        space, and quarantines re-enter the fast-fail cache.
        """
        from repro.serve.tenant_journal import list_tenants, read_spec

        by_shard: Dict[int, list] = {}
        for name in list_tenants(self.journal_dir):
            if name not in self.tenants:
                by_shard.setdefault(self.shards.shard_of(name), []).append(name)
        for shard, names in sorted(by_shard.items()):
            self.shards.tenants_by_shard[shard].update(names)
            restored = await self.shards.request(
                shard, {"op": "restore", "args": {"tenants": names}}
            )
            seqs = (
                await self.shards.request(shard, {"op": "shard_stats"})
            ).get("last_seqs", {})
            for name in names:
                entry = _TenantEntry(
                    spec=read_spec(self.journal_dir, name),
                    shard=shard,
                    seq=int(seqs.get(name, 0)),
                )
                stats = await self.shards.request(
                    shard, {"op": "stats", "tenant": name, "args": {}}
                )
                entry.vmas = int(stats.get("vmas", 0))
                self.tenants[name] = entry
            for name in restored.get("quarantined", []):
                self.quarantined[name] = "quarantined during journal replay"

    async def _drop_tenant(self, args: dict) -> dict:
        name = args.get("name")
        entry = self._entry(name)
        result = await self.shards.request(
            entry.shard, {"op": "drop_tenant", "args": {"name": name}}
        )
        self.shards.tenants_by_shard[entry.shard].discard(name)
        del self.tenants[name]
        self.quarantined.pop(name, None)
        return result

    def _entry(self, name) -> _TenantEntry:
        if not isinstance(name, str):
            raise ProtocolError(f"request needs a tenant name, got {name!r}")
        entry = self.tenants.get(name)
        if entry is None:
            raise UnknownTenantError(f"no tenant {name!r}")
        return entry

    # -- the admitted path --------------------------------------------

    async def _tenant_op(self, op: str, request: dict) -> dict:
        entry = self._entry(request.get("tenant"))
        name = entry.spec.name
        args = request.get("args") or {}
        if name in self.quarantined:
            self.stats.quarantine_rejects += 1
            raise TenantQuarantinedError(
                f"tenant {name!r} is quarantined: {self.quarantined[name]}"
            )
        self._admit(entry, op, args)
        payload = {"op": op, "tenant": name, "args": args}
        self._inflight += 1
        entry.inflight += 1
        try:
            # Seq assignment + frame submission run as one *shielded*
            # task: if this request is cancelled (client disconnect)
            # while the submit is parked on a recovering shard, the
            # shielded task still carries the frame to the shard — a
            # consumed seq is always followed by its frame, so the
            # tenant's seq stream never develops a permanent gap that
            # would fail every later mutating op out-of-order.
            submit = asyncio.ensure_future(
                self._ordered_submit(entry, op, payload)
            )
            try:
                future = await asyncio.shield(submit)
            except asyncio.CancelledError:
                submit.add_done_callback(_reap_abandoned_submit)
                raise
            result = await self.shards.settle(future)
        except TenantQuarantinedError as exc:
            self.quarantined[name] = str(exc)
            raise
        finally:
            self._inflight -= 1
            entry.inflight -= 1
        self._settle_quota(entry, op, result)
        return result

    async def _ordered_submit(
        self, entry: _TenantEntry, op: str, payload: dict
    ) -> "asyncio.Future[dict]":
        """Assign the next seq and enqueue the frame under the
        per-tenant order lock; run via :func:`asyncio.shield` so the
        critical section cannot be torn by caller cancellation."""
        async with entry.order_lock:
            if op not in MUTATING_OPS:
                return await self.shards.submit(entry.shard, payload)
            entry.seq += 1
            payload["seq"] = entry.seq
            try:
                return await self.shards.submit(entry.shard, payload)
            except BaseException:
                # submit only raises before the frame is enqueued
                # (_send swallows connection errors), so the seq can
                # be given back without creating a gap; the lock is
                # still held, so nothing assigned a later one.
                entry.seq -= 1
                raise

    def _admit(self, entry: _TenantEntry, op: str, args: dict) -> None:
        """Every reject happens here, before any shard traffic."""
        policy = self.policy
        if self._inflight >= policy.max_global_inflight:
            self.stats.shed_overload += 1
            raise ServerOverloadedError(
                f"global queue full ({self._inflight} in flight >= "
                f"{policy.max_global_inflight}); retry later"
            )
        if entry.inflight >= policy.max_tenant_inflight:
            self.stats.shed_overload += 1
            raise ServerOverloadedError(
                f"tenant {entry.spec.name!r} queue full "
                f"({entry.inflight} in flight); retry later"
            )
        if op == "mmap":
            max_vmas = entry.spec.max_vmas
            if max_vmas is not None and entry.vmas >= max_vmas:
                self.stats.quota_rejects += 1
                raise QuotaExceededError(
                    f"tenant {entry.spec.name!r} is at its VMA quota "
                    f"({entry.vmas}/{max_vmas})"
                )
        if op == "translate":
            rate = entry.spec.max_refs_per_sec
            if rate is not None:
                self._take_tokens(entry, rate, len(args.get("vas") or []))

    def _take_tokens(self, entry: _TenantEntry, rate: float, refs: int) -> None:
        """Refs/sec token bucket: capacity one second of rate, starting
        full so a freshly created tenant's first batch is admitted."""
        if refs > rate:
            # Larger than the bucket can ever hold: no amount of
            # waiting admits it, so reject it as permanent (the error
            # says so) instead of inviting an infinite retry loop.
            self.stats.quota_rejects += 1
            raise QuotaExceededError(
                f"tenant {entry.spec.name!r}: batch of {refs} refs exceeds "
                f"the {rate:.0f} refs/sec bucket capacity; permanent — "
                "split the batch instead of retrying"
            )
        now = time.monotonic()
        if entry.tokens is None:
            entry.tokens = rate
        else:
            entry.tokens = min(
                rate, entry.tokens + (now - entry.tokens_at) * rate
            )
        entry.tokens_at = now
        if refs > entry.tokens:
            self.stats.quota_rejects += 1
            raise QuotaExceededError(
                f"tenant {entry.spec.name!r} is over its {rate:.0f} refs/sec "
                f"quota (batch of {refs}, {entry.tokens:.0f} tokens left)"
            )
        entry.tokens -= refs

    def _settle_quota(self, entry: _TenantEntry, op: str, result: dict) -> None:
        """Keep the VMA ledger in sync from authoritative results."""
        if op in ("mmap", "munmap") and isinstance(result.get("vmas"), int):
            entry.vmas = result["vmas"]

    # -- introspection -------------------------------------------------

    def latency_p99_ms(self) -> Optional[float]:
        if not self._latencies:
            return None
        ordered = sorted(self._latencies)
        return ordered[int(0.99 * (len(ordered) - 1))] * 1000.0

    def latency_p50_ms(self) -> Optional[float]:
        if not self._latencies:
            return None
        ordered = sorted(self._latencies)
        return ordered[len(ordered) // 2] * 1000.0

    def server_stats(self) -> dict:
        return {
            "tenants": len(self.tenants),
            "quarantined": sorted(self.quarantined),
            "inflight": self._inflight,
            "requests": self.stats.requests,
            "served": self.stats.served,
            "shed_overload": self.stats.shed_overload,
            # No latency shed exists; perfbench's serve workload still
            # sums this key into its shed count.
            "shed_latency": 0,
            "quota_rejects": self.stats.quota_rejects,
            "quarantine_rejects": self.stats.quarantine_rejects,
            "errors": self.stats.errors,
            "p50_ms": self.latency_p50_ms(),
            "p99_ms": self.latency_p99_ms(),
            "shards": self.shards.shard_stats(),
        }
