"""Front-end shard management: spawn, supervise, kill, respawn, restore.

The serving front end (``server.py``) never touches tenant state
directly: every tenant lives in exactly one shard worker process
(``shard.py``), chosen by a stable hash of the tenant name so that a
respawned shard and a restarted server both place tenants identically.

Supervision follows the sweep supervisor's playbook
(``sim/supervisor.py``) adapted from pool-of-cells to
shards-of-tenants:

* **Heartbeats + deadlines.**  Each shard is pinged every
  ``heartbeat_interval``; a ping (or any request) that misses the
  shard ``deadline`` marks the shard wedged.
* **Diagnose, then kill.**  A wedged shard first gets ``SIGUSR1`` —
  its :mod:`faulthandler` hook dumps every stack to stderr, so the
  post-mortem shows *where* it hung — then ``SIGKILL``.  Workers are
  also killed this way when they simply die (EOF on the socket).
* **Respawn + journal replay.**  A fresh worker is forked and told to
  ``restore`` the dead shard's tenants from their write-ahead journals
  (bit-identical replay; quarantines reproduce).
* **Transparent resubmission.**  Requests in flight on the dead shard
  are resubmitted in ``(tenant, seq)`` order after the restore; the
  worker's seq dedup makes this exactly-once, so callers see latency,
  not errors.  Only when recovery itself fails do callers get a typed
  :class:`~repro.errors.ShardUnavailableError`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ShardUnavailableError, TenantExistsError
from repro.serve.protocol import decode_error, encode_frame, read_frame
from repro.serve.shard import shard_main

__all__ = ["ShardManager", "ShardStats"]


@dataclass
class ShardStats:
    """Supervision counters, reported in ``server_stats`` frames."""

    respawns: int = 0
    deadline_kills: int = 0
    crash_respawns: int = 0
    last_recovery_s: Optional[float] = None
    recoveries: List[dict] = field(default_factory=list)


class _Pending:
    """One request in flight to a shard (kept for resubmission)."""

    __slots__ = ("payload", "future", "tenant", "seq")

    def __init__(self, payload: dict, future: "asyncio.Future[dict]"):
        self.payload = payload
        self.future = future
        self.tenant = payload.get("tenant") or (payload.get("args") or {}).get(
            "spec", {}
        ).get("name")
        self.seq = payload.get("seq")


class _Shard:
    """Parent-side handle of one worker process."""

    def __init__(self, index: int):
        self.index = index
        self.process: Optional[multiprocessing.Process] = None
        #: The front end's end of the socketpair to the worker.
        self.sock: Optional[socket.socket] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.pending: Dict[int, _Pending] = {}
        self.write_lock = asyncio.Lock()
        self.ready = asyncio.Event()
        self.reader_task: Optional[asyncio.Task] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None


class ShardManager:
    """Owns the shard processes and all parent↔shard traffic."""

    def __init__(
        self,
        num_shards: int,
        journal_dir: str,
        heartbeat_interval: float = 1.0,
        deadline: float = 10.0,
    ):
        self.num_shards = num_shards
        self.journal_dir = journal_dir
        self.heartbeat_interval = heartbeat_interval
        self.deadline = deadline
        self.stats = ShardStats()
        self.tenants_by_shard: Dict[int, Set[str]] = {
            i: set() for i in range(num_shards)
        }
        self._shards = [_Shard(i) for i in range(num_shards)]
        self._next_id = 0
        self._recovery_locks = [asyncio.Lock() for _ in range(num_shards)]
        self._heartbeat_tasks: List[asyncio.Task] = []
        self._closing = False
        self._ctx = multiprocessing.get_context("fork")

    # -- placement -----------------------------------------------------

    def shard_of(self, tenant: str) -> int:
        """Stable tenant→shard placement (crc32, not ``hash()``: the
        latter is salted per process and would scatter tenants across
        different shards after a server restart)."""
        return zlib.crc32(tenant.encode("utf-8")) % self.num_shards

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        for shard in self._shards:
            await self._spawn(shard)
            shard.ready.set()
        self._heartbeat_tasks = [
            asyncio.create_task(self._heartbeat_loop(s)) for s in self._shards
        ]

    async def _spawn(self, shard: _Shard) -> None:
        """Fork + wire a worker.  Does NOT set ``shard.ready``: during
        recovery the readiness gate must stay closed until the journal
        restore completes, or a fresh request races the restore into
        the empty worker and bounces off ``UnknownTenantError``.

        The fork copies the front end's end of every shard socketpair,
        this one included; the worker closes those copies first, so
        that it reads EOF as soon as the front end is gone."""
        parent_sock, child_sock = socket.socketpair()
        inherited = [s.sock for s in self._shards if s.sock is not None]
        inherited.append(parent_sock)
        shard.sock = parent_sock
        process = self._ctx.Process(
            target=shard_main,
            args=(child_sock, shard.index, self.journal_dir, inherited),
            daemon=True,
            name=f"repro-serve-shard-{shard.index}",
        )
        process.start()
        child_sock.close()
        reader, writer = await asyncio.open_connection(sock=parent_sock)
        shard.process = process
        shard.reader = reader
        shard.writer = writer
        shard.reader_task = asyncio.create_task(self._read_loop(shard))

    async def close(self) -> None:
        self._closing = True
        for task in self._heartbeat_tasks:
            task.cancel()
        for shard in self._shards:
            try:
                await asyncio.wait_for(
                    self._request(shard, {"op": "shutdown"}), timeout=2.0
                )
            except Exception:  # noqa: BLE001 — best-effort shutdown
                pass
            await self._kill(shard)
            if shard.reader_task is not None:
                shard.reader_task.cancel()

    # -- request plumbing ---------------------------------------------

    async def submit(self, tenant_or_shard, payload: dict) -> "asyncio.Future[dict]":
        """Enqueue one request; returns the future of its raw response
        frame (settle with :meth:`settle`).

        Splitting submission from completion lets the front end pin
        per-tenant frame *order* (seq discipline) while many requests
        stay in flight: assign seq + submit under a per-tenant lock,
        await the future outside it.

        ``tenant_or_shard`` is a tenant name (placed via
        :meth:`shard_of`) or an explicit shard index.
        """
        if isinstance(tenant_or_shard, int):
            shard = self._shards[tenant_or_shard]
        else:
            shard = self._shards[self.shard_of(tenant_or_shard)]
        await shard.ready.wait()
        self._next_id += 1
        payload = dict(payload, id=self._next_id)
        future: "asyncio.Future[dict]" = asyncio.get_running_loop().create_future()
        shard.pending[self._next_id] = _Pending(payload, future)
        await self._send(shard, payload)
        return future

    @staticmethod
    async def settle(future: "asyncio.Future[dict]") -> dict:
        """Await a submitted request; returns its ``result`` payload or
        raises the rehydrated typed error."""
        response = await future
        if response.get("ok"):
            return response.get("result") or {}
        raise decode_error(response.get("error") or {})

    async def request(self, tenant_or_shard, payload: dict) -> dict:
        """submit + settle in one call (order-insensitive requests)."""
        return await self.settle(await self.submit(tenant_or_shard, payload))

    async def _request(self, shard: _Shard, payload: dict) -> dict:
        """Like :meth:`request` but on a raw shard handle and without
        the readiness gate — the recovery path itself uses this while
        the shard is marked not-ready."""
        self._next_id += 1
        payload = dict(payload, id=self._next_id)
        future: "asyncio.Future[dict]" = asyncio.get_running_loop().create_future()
        shard.pending[self._next_id] = _Pending(payload, future)
        await self._send(shard, payload)
        return await self.settle(future)

    async def _send(self, shard: _Shard, payload: dict) -> None:
        async with shard.write_lock:
            if shard.writer is None:
                return  # recovery will resubmit from shard.pending
            try:
                shard.writer.write(encode_frame(payload))
                await shard.writer.drain()
            except (ConnectionError, OSError):
                pass  # the read loop notices the death and recovers

    async def _read_loop(self, shard: _Shard) -> None:
        """Resolve responses until the worker dies or shuts down."""
        try:
            while True:
                frame = await read_frame(shard.reader)
                if frame is None:
                    break
                pending = shard.pending.pop(frame.get("id"), None)
                if pending is not None and not pending.future.done():
                    pending.future.set_result(frame)
        except Exception:  # noqa: BLE001 — torn frame == dead worker
            pass
        if not self._closing:
            asyncio.create_task(self._recover(shard, reason="worker died"))

    # -- supervision ---------------------------------------------------

    async def _heartbeat_loop(self, shard: _Shard) -> None:
        while not self._closing:
            await asyncio.sleep(self.heartbeat_interval)
            if not shard.ready.is_set():
                continue  # mid-recovery
            try:
                await asyncio.wait_for(
                    self._request(shard, {"op": "ping"}), timeout=self.deadline
                )
            except asyncio.TimeoutError:
                self.stats.deadline_kills += 1
                await self._recover(shard, reason="heartbeat deadline")
            except Exception:  # noqa: BLE001 — death handled by read loop
                await asyncio.sleep(self.heartbeat_interval)

    async def _kill(self, shard: _Shard) -> None:
        process = shard.process
        if process is None or not process.is_alive():
            return
        try:
            process.kill()  # SIGKILL — the worker ignores SIGINT
        except (OSError, ValueError):
            pass
        # join() blocks; run it off-loop so reaping one dead shard
        # cannot freeze heartbeats and every other tenant's traffic.
        await asyncio.to_thread(process.join, 5.0)

    async def _request_stack_dump(self, shard: _Shard) -> None:
        """Ask a live worker to faulthandler-dump its stacks (SIGUSR1)
        before it is killed; the dump lands on the shared stderr."""
        process = shard.process
        if process is None or not process.is_alive() or process.pid is None:
            return
        try:
            os.kill(process.pid, signal.SIGUSR1)
        except (OSError, ProcessLookupError):
            return
        # Give the handler a beat to write before SIGKILL truncates it.
        await asyncio.sleep(0.05)

    async def _recover(self, shard: _Shard, reason: str) -> None:
        """Kill → respawn → journal-restore → resubmit, exactly once
        per death (concurrent detections coalesce on the lock)."""
        lock = self._recovery_locks[shard.index]
        if lock.locked():
            return
        async with lock:
            if self._closing:
                return
            started = time.monotonic()
            shard.ready.clear()
            if reason == "heartbeat deadline":
                await self._request_stack_dump(shard)
            await self._kill(shard)
            if shard.reader_task is not None:
                shard.reader_task.cancel()
            if shard.writer is not None:
                shard.writer.close()
                shard.writer = None
            # Everything unanswered rides over to the new worker.
            carried = sorted(
                shard.pending.items(),
                key=lambda kv: (kv[1].tenant or "", kv[1].seq or 0, kv[0]),
            )
            shard.pending = {}
            self.stats.respawns += 1
            if reason == "worker died":
                self.stats.crash_respawns += 1
            await self._spawn(shard)
            tenants = sorted(self.tenants_by_shard[shard.index])
            restored: dict = {}
            try:
                if tenants:
                    restored = await asyncio.wait_for(
                        self._request(
                            shard, {"op": "restore", "args": {"tenants": tenants}}
                        ),
                        timeout=max(self.deadline * 6, 60.0),
                    )
            except Exception as exc:  # noqa: BLE001 — recovery failed:
                # fail the carried requests with a typed error rather
                # than hanging their callers forever.
                for _, pending in carried:
                    if not pending.future.done():
                        pending.future.set_exception(
                            ShardUnavailableError(
                                f"shard {shard.index} failed to recover: {exc}"
                            )
                        )
                shard.ready.set()  # fresh worker still serves new tenants
                return
            await self._resubmit(shard, carried)
            elapsed = time.monotonic() - started
            self.stats.last_recovery_s = elapsed
            self.stats.recoveries.append(
                {
                    "shard": shard.index,
                    "reason": reason,
                    "tenants": len(tenants),
                    "restored": sorted(restored.get("restored", [])),
                    "quarantined": restored.get("quarantined", []),
                    "seconds": elapsed,
                    "resubmitted": len(carried),
                }
            )
            shard.ready.set()

    async def _resubmit(self, shard: _Shard, carried) -> None:
        """Re-send carried requests under their original ids/seqs; the
        worker's dedup ring answers anything the journal already has."""
        for rid, pending in carried:
            if pending.future.done():
                continue
            if pending.payload.get("op") == "restore":
                continue  # superseded by the fresh restore
            shard.pending[rid] = pending
            if pending.payload.get("op") == "create_tenant":
                # The journal header may have survived the crash, in
                # which case the resubmit bounces off TenantExistsError
                # — that *is* success for an exactly-once create.
                asyncio.create_task(self._settle_create(shard, rid, pending))
                continue
            await self._send(shard, pending.payload)

    async def _settle_create(self, shard: _Shard, rid: int, pending: _Pending) -> None:
        inner: "asyncio.Future[dict]" = asyncio.get_running_loop().create_future()
        proxy = _Pending(pending.payload, inner)
        shard.pending[rid] = proxy
        await self._send(shard, pending.payload)
        try:
            response = await inner
        except asyncio.CancelledError:
            return
        if not response.get("ok"):
            error = decode_error(response.get("error") or {})
            if isinstance(error, TenantExistsError):
                response = {
                    "ok": True,
                    "result": {"tenant": pending.tenant, "recovered": True},
                }
        if not pending.future.done():
            pending.future.set_result(response)

    # -- introspection -------------------------------------------------

    def pids(self) -> List[Optional[int]]:
        return [shard.pid for shard in self._shards]

    def shard_stats(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "pids": self.pids(),
            "respawns": self.stats.respawns,
            "deadline_kills": self.stats.deadline_kills,
            "crash_respawns": self.stats.crash_respawns,
            "last_recovery_s": self.stats.last_recovery_s,
            "recoveries": self.stats.recoveries[-16:],
            "tenants_by_shard": {
                str(i): sorted(names)
                for i, names in self.tenants_by_shard.items()
            },
        }
