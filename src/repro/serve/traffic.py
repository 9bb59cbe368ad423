"""Deterministic multi-tenant traffic for the serving layer.

The generator plays a memcached-style tenant mix against a running
server: every tenant maps a working set, then issues zipf-skewed
``translate`` batches with occasional mmap/munmap churn — the access
pattern the paper's server workloads exhibit (hot keys, long tails,
address spaces that grow and shrink).

Determinism is load-bearing, not cosmetic: each tenant's op stream is
a pure function of ``(config.seed, tenant name)``, so the recovery
acceptance test can run the same mix twice — once uninterrupted, once
with a shard SIGKILLed mid-run — and demand bit-identical tenant
digests at the end; nothing here reads the wall clock.

Error accounting is typed: shed requests are counted on their own,
quarantine rejections and other typed errors per tenant (that is what
the overload and chaos acceptance tests assert on), and unexpected
errors separately, failing the run's health check.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ReproError, ServerOverloadedError
from repro.serve.client import AsyncServeClient

__all__ = ["TrafficConfig", "TrafficReport", "run_traffic"]


@dataclass
class TrafficConfig:
    """One traffic run, fully described (and so fully replayable)."""

    tenants: int = 2
    #: Total translate requests across all tenants.
    requests: int = 1000
    #: References per translate batch.
    batch: int = 64
    #: Pages in each tenant's initial working set.
    working_set_pages: int = 2048
    #: Zipf skew over the working set (1.0 ≈ memcached key popularity).
    zipf_alpha: float = 1.1
    #: Probability a request slot does mmap/munmap churn instead.
    churn: float = 0.02
    #: Concurrent in-flight requests per tenant connection.
    concurrency: int = 4
    seed: int = 1
    scheme: str = "lvm"
    #: Fault plans by tenant name, installed at creation (chaos
    #: scenarios poison exactly one tenant).
    poison_tenants: Dict[str, dict] = field(default_factory=dict)

    def tenant_names(self) -> List[str]:
        return [f"tenant-{i}" for i in range(self.tenants)]


@dataclass
class TrafficReport:
    """What one traffic run observed (client-side truth)."""

    requests: int = 0
    ok: int = 0
    shed: int = 0
    unexpected_errors: int = 0
    #: Failed requests other than sheds (quarantine rejects, mostly).
    errors_by_tenant: Dict[str, int] = field(default_factory=dict)
    ok_by_tenant: Dict[str, int] = field(default_factory=dict)


def _zipf_ranks(rng: random.Random, alpha: float, n: int, count: int) -> List[int]:
    """``count`` zipf-distributed ranks in [0, n) via inverse CDF over
    precomputed weights (numpy-free, deterministic)."""
    weights = [1.0 / ((i + 1) ** alpha) for i in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    ranks = []
    for _ in range(count):
        u = rng.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        ranks.append(lo)
    return ranks


class _TenantScript:
    """The deterministic op stream of one tenant."""

    def __init__(self, name: str, config: TrafficConfig, requests: int):
        self.name = name
        self.rng = random.Random(f"{config.seed}:{name}")
        self.config = config
        self.requests = requests
        self.base_vpn = 1 << 20
        self.next_extra_vpn = 1 << 24
        self.extra_vmas: List[int] = []

    def setup_ops(self) -> List[dict]:
        return [
            {
                "op": "mmap",
                "args": {
                    "start_vpn": self.base_vpn,
                    "pages": self.config.working_set_pages,
                    "name": "working-set",
                },
            }
        ]

    def next_op(self) -> dict:
        cfg = self.config
        if self.extra_vmas and self.rng.random() < cfg.churn / 2:
            return {
                "op": "munmap",
                "args": {"start_vpn": self.extra_vmas.pop()},
            }
        if self.rng.random() < cfg.churn:
            start = self.next_extra_vpn
            self.next_extra_vpn += 512
            self.extra_vmas.append(start)
            return {
                "op": "mmap",
                "args": {"start_vpn": start, "pages": 64, "name": "churn"},
            }
        ranks = _zipf_ranks(
            self.rng, cfg.zipf_alpha, cfg.working_set_pages, cfg.batch
        )
        vas = [(self.base_vpn + r) * 4096 for r in ranks]
        return {"op": "translate", "args": {"vas": vas}}


async def _drive_tenant(
    socket_path: str,
    script: _TenantScript,
    report: TrafficReport,
    lock: asyncio.Lock,
) -> None:
    """One tenant's connection: ``concurrency`` workers draining the
    tenant's (serialized) op stream.

    Mutating ops must arrive in script order for the server's seq
    assignment, so ops are *taken* under the lock but may complete out
    of order only when independent (translate batches).  Simpler and
    still true to the design: one sender pipelines up to
    ``concurrency`` ops, each awaited by its own task.
    """
    client = await AsyncServeClient.connect(socket_path)
    name = script.name
    sem = asyncio.Semaphore(script.config.concurrency)
    pending = set()

    async def fire(op: dict) -> None:
        try:
            await client.call(op["op"], tenant=name, args=op["args"])
            async with lock:
                report.ok += 1
                report.ok_by_tenant[name] = report.ok_by_tenant.get(name, 0) + 1
        except ServerOverloadedError:
            async with lock:
                report.shed += 1
        except ReproError:
            async with lock:
                report.errors_by_tenant[name] = (
                    report.errors_by_tenant.get(name, 0) + 1
                )
        except Exception:  # noqa: BLE001 — counted, surfaced via report
            async with lock:
                report.unexpected_errors += 1
                report.errors_by_tenant[name] = (
                    report.errors_by_tenant.get(name, 0) + 1
                )
        finally:
            sem.release()

    try:
        for op in script.setup_ops():
            await sem.acquire()
            async with lock:
                report.requests += 1
            await fire(op)  # setup is sequential; fire releases sem
        for _ in range(script.requests):
            op = script.next_op()
            await sem.acquire()
            async with lock:
                report.requests += 1
            task = asyncio.create_task(fire(op))
            pending.add(task)
            task.add_done_callback(pending.discard)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    finally:
        await client.close()


async def run_traffic(socket_path: str, config: TrafficConfig) -> TrafficReport:
    """Run the configured mix against a live server; returns the
    client-side report (the server's own counters come from
    ``server_stats``)."""
    report = TrafficReport()
    lock = asyncio.Lock()
    names = config.tenant_names()
    per_tenant = max(1, config.requests // max(1, len(names)))

    admin = await AsyncServeClient.connect(socket_path)
    try:
        for name in names:
            spec = {"name": name, "scheme": config.scheme}
            if name in config.poison_tenants:
                spec["fault_plan"] = config.poison_tenants[name]
            await admin.call("create_tenant", args={"spec": spec})
    finally:
        await admin.close()

    scripts = [_TenantScript(name, config, per_tenant) for name in names]
    await asyncio.gather(
        *(_drive_tenant(socket_path, s, report, lock) for s in scripts)
    )
    return report
