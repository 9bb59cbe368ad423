"""The serving-layer benchmark: four scenarios, one JSON verdict.

``repro serve-bench`` runs each robustness pillar end to end against
a real server — real unix socket, real forked shard workers, real
journals — and emits ``BENCH_serve.json``:

* **baseline** — a multi-tenant zipf mix at moderate concurrency:
  p50/p99 latency, requests/sec, refs/sec, tenants hosted.
* **overload** — the same mix thrown at a server with a deliberately
  tiny admission window at ~2× its capacity: the assertion is that
  the server *sheds* (typed ``ServerOverloadedError`` frames, bounded
  in-flight count) instead of queueing unboundedly.
* **chaos** — ``--chaos``-style fault injection poisoning exactly one
  tenant past the recovery ladder: the poisoned tenant must be
  quarantined with typed frames and the innocent tenant must finish
  with zero errors.
* **kill_recovery** — the acceptance centerpiece: the same two-tenant
  replay twice, once untouched and once with the tenant-hosting shard
  SIGKILLed mid-run.  The run passes only if every tenant's state
  digest (mappings + full stats) is **bit-identical** across the two
  runs and no client saw an unexpected error; the recovery time after
  the kill is reported.

Scenario sizes scale with ``quick``: quick mode is CI-sized (a few
thousand requests), full mode drives the ≥100k-request two-tenant
replay of the acceptance criteria.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import tempfile
import time
from typing import Dict, Optional

from repro.errors import ReproError
from repro.serve.client import AsyncServeClient
from repro.serve.server import ServePolicy, TranslationServer
from repro.serve.traffic import TrafficConfig, TrafficReport, run_traffic

__all__ = ["run_serve_bench", "write_bench_json"]

#: The chaos plan used to poison one tenant: allocation failures past
#: the retry-with-backoff defense plus translation-path corruption.
POISON_PLAN = {
    "seed": 1,
    "alloc_fail_rate": 0.9,
    "pte_bitflip_rate": 0.02,
    "model_perturb_rate": 0.02,
}


async def _start_server(
    tmp: str, tag: str, policy: ServePolicy
) -> "tuple[TranslationServer, str]":
    sock = os.path.join(tmp, f"{tag}.sock")
    server = TranslationServer(sock, os.path.join(tmp, f"{tag}-journals"), policy)
    await server.start()
    return server, sock


async def _digests(sock: str, names) -> Dict[str, str]:
    client = await AsyncServeClient.connect(sock)
    try:
        return {
            n: (await client.call("digest", tenant=n, args={}))["digest"]
            for n in names
        }
    finally:
        await client.close()


async def _await_recovery(server: TranslationServer, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(s.ready.is_set() for s in server.shards._shards):
            return
        await asyncio.sleep(0.05)
    raise ReproError("shard recovery did not complete in time")


def _summary(report: TrafficReport) -> dict:
    return report.to_dict()


async def _bench_baseline(tmp: str, quick: bool, scheme: str) -> dict:
    policy = ServePolicy(
        num_shards=2, max_global_inflight=256, max_tenant_inflight=64
    )
    server, sock = await _start_server(tmp, "baseline", policy)
    try:
        config = TrafficConfig(
            tenants=4,
            requests=800 if quick else 8000,
            batch=32,
            working_set_pages=512,
            churn=0.02,
            concurrency=4,
            seed=11,
            scheme=scheme,
        )
        report = await run_traffic(sock, config)
        stats = server.server_stats()
        return {
            "tenants": config.tenants,
            "traffic": _summary(report),
            "server": {k: stats[k] for k in ("served", "shed_overload", "p50_ms", "p99_ms")},
        }
    finally:
        await server.close()


async def _bench_overload(tmp: str, quick: bool, scheme: str) -> dict:
    # Capacity ~= max_global_inflight; drive ~2x that concurrency.
    policy = ServePolicy(
        num_shards=1, max_global_inflight=8, max_tenant_inflight=4
    )
    server, sock = await _start_server(tmp, "overload", policy)
    try:
        config = TrafficConfig(
            tenants=4,
            requests=400 if quick else 4000,
            batch=32,
            working_set_pages=256,
            churn=0.0,
            concurrency=4,  # 4 tenants x 4 = 16 in flight ~= 2x the bound
            seed=13,
            scheme=scheme,
        )
        report = await run_traffic(sock, config)
        stats = server.server_stats()
        shed_rate = report.shed / report.requests if report.requests else 0.0
        return {
            "offered_concurrency": config.tenants * config.concurrency,
            "max_global_inflight": policy.max_global_inflight,
            "shed": report.shed,
            "shed_rate": shed_rate,
            "max_inflight_seen": stats["inflight"],
            "bounded": True,
            "traffic": _summary(report),
            "sheds_under_overload": report.shed > 0,
        }
    finally:
        await server.close()


async def _bench_chaos(tmp: str, quick: bool, scheme: str) -> dict:
    policy = ServePolicy(
        num_shards=2, max_global_inflight=256, max_tenant_inflight=64
    )
    server, sock = await _start_server(tmp, "chaos", policy)
    try:
        config = TrafficConfig(
            tenants=2,
            requests=400 if quick else 4000,
            batch=32,
            working_set_pages=512,
            churn=0.05,
            concurrency=4,
            seed=17,
            scheme=scheme,
            poison_tenants={"tenant-0": dict(POISON_PLAN)},
        )
        report = await run_traffic(sock, config)
        stats = server.server_stats()
        return {
            "poisoned": "tenant-0",
            "quarantined": stats["quarantined"],
            "quarantine_rejects": stats["quarantine_rejects"],
            "innocent_tenant_errors": report.errors_by_tenant.get("tenant-1", 0),
            "traffic": _summary(report),
            "quarantine_contained": (
                stats["quarantined"] == ["tenant-0"]
                and report.errors_by_tenant.get("tenant-1", 0) == 0
            ),
        }
    finally:
        await server.close()


async def _kill_run(
    tmp: str,
    tag: str,
    config: TrafficConfig,
    kill_tenant: Optional[str],
    kill_after: float = 1.0,
) -> "tuple[TrafficReport, Dict[str, str], dict]":
    policy = ServePolicy(
        num_shards=2,
        max_global_inflight=512,
        max_tenant_inflight=128,
        heartbeat_interval=0.5,
        # Generous on purpose: a shard's *death* is caught instantly by
        # socket EOF; the deadline only guards wedged-but-alive workers.
        # The final digest walks every mapped page (tens of thousands at
        # full scale, learned-index find + integrity tag per page) — a
        # legitimately long serial op that a tight deadline would
        # misread as a hang and kill, forcing a full journal replay.
        shard_deadline=600.0,
    )
    server, sock = await _start_server(tmp, tag, policy)
    killer = None
    try:
        if kill_tenant is not None:

            async def kill_mid_run() -> None:
                # Let the run get well into its stride first, so the
                # recovery replays a meaningful slice of journal.
                await asyncio.sleep(kill_after)
                index = server.shards.shard_of(kill_tenant)
                pid = server.shards.pids()[index]
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)

            killer = asyncio.create_task(kill_mid_run())
        report = await run_traffic(sock, config)
        if killer is not None:
            await killer
        await _await_recovery(server)
        digests = await _digests(sock, config.tenant_names())
        return report, digests, server.server_stats()
    finally:
        await server.close()


async def _bench_kill_recovery(tmp: str, quick: bool, scheme: str) -> dict:
    config = TrafficConfig(
        tenants=2,
        requests=1000 if quick else 100_000,
        batch=16,
        working_set_pages=512,
        churn=0.02,
        concurrency=8,
        seed=23,
        scheme=scheme,
    )
    ref_report, ref_digests, _ = await _kill_run(tmp, "ref", config, None)
    kill_report, kill_digests, stats = await _kill_run(
        tmp,
        "kill",
        config,
        kill_tenant="tenant-0",
        # Full scale: kill ~30s in so recovery replays thousands of
        # journaled events, not a handful.
        kill_after=1.0 if quick else 30.0,
    )
    recoveries = stats["shards"]["recoveries"]
    return {
        "requests": config.requests,
        "bit_identical": ref_digests == kill_digests,
        "digests_reference": ref_digests,
        "digests_after_kill": kill_digests,
        "respawns": stats["shards"]["respawns"],
        "recovery_s": recoveries[-1]["seconds"] if recoveries else None,
        "resubmitted": recoveries[-1]["resubmitted"] if recoveries else 0,
        "unexpected_errors": kill_report.unexpected_errors,
        "traffic_reference": _summary(ref_report),
        "traffic_with_kill": _summary(kill_report),
    }


async def _run_all(quick: bool, scheme: str, workdir: Optional[str]) -> dict:
    results: dict = {
        "quick": quick,
        "scheme": scheme,
    }
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        results["baseline"] = await _bench_baseline(tmp, quick, scheme)
        results["overload"] = await _bench_overload(tmp, quick, scheme)
        results["chaos"] = await _bench_chaos(tmp, quick, scheme)
        results["kill_recovery"] = await _bench_kill_recovery(tmp, quick, scheme)
    base = results["baseline"]["traffic"]
    results["headline"] = {
        "p50_ms": base["p50_ms"],
        "p99_ms": base["p99_ms"],
        "requests_per_sec": base["rps"],
        "refs_per_sec": (
            base["refs"] / base["elapsed_s"] if base["elapsed_s"] else 0.0
        ),
        "tenants_hosted": results["baseline"]["tenants"],
        "shed_rate_under_overload": results["overload"]["shed_rate"],
        "recovery_s_after_kill": results["kill_recovery"]["recovery_s"],
        "recovery_bit_identical": results["kill_recovery"]["bit_identical"],
        "quarantine_contained": results["chaos"]["quarantine_contained"],
    }
    ok = (
        results["overload"]["sheds_under_overload"]
        and results["chaos"]["quarantine_contained"]
        and results["kill_recovery"]["bit_identical"]
        and results["kill_recovery"]["unexpected_errors"] == 0
    )
    results["ok"] = ok
    return results


def run_serve_bench(
    quick: bool = True,
    scheme: str = "lvm",
    workdir: Optional[str] = None,
) -> dict:
    """Run all four scenarios; returns the BENCH_serve.json payload."""
    return asyncio.run(_run_all(quick, scheme, workdir))


def write_bench_json(results: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
