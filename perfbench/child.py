"""One fresh benchmark process: a set-up or a timed run of one workload.

``run.py`` starts this file once per set-up and once per timed repeat,
so no module-level cache of the program (the Kronecker graph cache in
``repro/workloads/registry.py``, the per-process trace-cache handles)
carries work from one measurement into the next.  Usage::

    python3 perfbench/child.py '<job as JSON>'

The job names a ``mode``:

* ``fill`` — a cold trace-cache fill (the suites' set-up);
* ``suite`` — one timed ``run_suite`` call against a filled cache;
* ``serve-setup`` — server start, shard fork and tenant creation;
* ``serve`` — the same set-up, then the timed closed-loop traffic.

With ``"traced": true`` the entry points into each layer are wrapped
with span recorders (``spans.py``) before the timed section.  The
measurements are written as JSON to ``job["out"]``.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import spans as sp  # noqa: E402

SCHEMES = ["radix", "ecpt", "lvm"]
SERVE_OPS = ("translate", "mmap", "munmap")
perf = time.perf_counter


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _section(start: float, end: float, prober: calib.Prober) -> dict:
    """Raw and calibrated seconds of one timed section, with the probe
    statistics the calibration rests on."""
    calib.check_probes(start, end, prober.probes)
    cal = calib.Calibrator(prober.probes)
    return {
        "raw_s": end - start,
        "s": cal.seconds(start, end),
        "probes": len(prober.probes),
        "probe_ms": 1e3 * calib.REFERENCE_PROBE_S / cal.factor(start, end),
    }


def _span_seconds(cal: calib.Calibrator, factor=None):
    """Calibrated length of a span (see ``Calibrator.seconds``)."""
    return lambda span: cal.seconds(span[sp.START], span[sp.END], factor)


# -- suites ----------------------------------------------------------------

def fill(job: dict) -> dict:
    """Cold trace-cache fill: build the workload, synthesize, pack and
    store its trace in a fresh cache directory."""
    from repro.workloads.compile import compiled_trace_for
    from repro.workloads.registry import build_workload
    from repro.workloads.trace_cache import get_cache

    cache = get_cache(job["cache_dir"])
    prober = calib.Prober()
    prober.start()
    start = perf()
    built = build_workload(job["name"], scale=job["scale"], seed=job["seed"])
    compiled_trace_for(built, job["refs"], job["seed"], cache=cache)
    end = perf()
    prober.stop()
    out = _section(start, end, prober)
    out["cache_builds"] = cache.stats()["builds"]
    return out


def _time_cells(runner, cells: list) -> None:
    """Record each cell's (start, end): from the start of its
    Simulator's construction to its result.  Three calls per sweep,
    so this costs nothing measurable."""
    real = runner.Simulator

    def timed_simulator(*args, **kwargs):
        start = perf()
        sim = real(*args, **kwargs)
        run = sim.run

        def run_cell(*a, **k):
            result = run(*a, **k)
            cells.append((start, perf()))
            return result

        sim.run = run_cell
        return sim

    runner.Simulator = timed_simulator


def _trace_suite(tracer: sp.Tracer, vec_stats: list) -> None:
    from repro.kernel.process import Process
    from repro.sim import runner
    from repro.sim.journal import RunJournal
    from repro.sim.simulator import Simulator

    def scheme_of(args, kwargs, result):
        return getattr(args[0], "scheme", "")

    def run_label(args, kwargs, result):
        stats = getattr(args[0], "vectorized_stats", None)
        if stats:
            vec_stats.append(stats)
        return args[0].scheme

    tracer.wrap(runner, "build_workload", "workloads.build")
    tracer.wrap(runner, "compiled_trace_for", "workloads.trace")
    tracer.wrap(Simulator, "__init__", "sim.construct", label=scheme_of)
    tracer.wrap(Process, "mmap", "kernel.mmap")
    tracer.wrap(Simulator, "run", "sim.translate", label=run_label)
    tracer.wrap(RunJournal, "record_result", "sim.journal")


def _suite_layers(spans, cal, start, end, results, trace_cache, vec_stats) -> dict:
    """Per-layer metrics of one traced sweep: self times, every span
    scaled by the sweep's own factor so that the layers add up to
    ``run_s``."""
    span_s = _span_seconds(cal, cal.factor(start, end))
    inclusive = [span_s(s) for s in spans]
    by_name = sp.totals(spans, sp.self_times(spans, span_s))
    by_label = sp.totals(spans, inclusive, by_label=True)

    def self_s(name):
        return by_name.get(name, {}).get("s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    run_s = cal.seconds(start, end)
    top = sum(x for s, x in zip(spans, inclusive) if s[sp.PARENT] is None)
    refs = sum(r["refs"] for r in results)
    walks = sum(r["walks"] for r in results)
    translate_s = self_s("sim.translate")
    batched = sum(v.get("batched_refs", 0) for v in vec_stats)
    scalar = sum(v.get("scalar_refs", 0) for v in vec_stats)
    lvm = next((r for r in results if r["scheme"] == "lvm"), None)
    layers = {
        "workloads.build_s": self_s("workloads.build"),
        "workloads.build_calls": calls("workloads.build"),
        "workloads.trace_s": self_s("workloads.trace"),
        "workloads.trace_cache_hits": (trace_cache or {}).get("hits", 0),
        "workloads.trace_cache_builds": (trace_cache or {}).get("builds", 0),
        "sim.construct_s": self_s("sim.construct"),
        "kernel.mmap_calls": calls("kernel.mmap"),
        "kernel.mmap_s": self_s("kernel.mmap"),
        "sim.translate_s": translate_s,
        "sim.translate_us_per_ref": 1e6 * translate_s / refs if refs else 0.0,
        "sim.translate_us_per_walk": 1e6 * translate_s / walks if walks else 0.0,
        "mmu.walks": walks,
        "mmu.walk_traffic": sum(r["walk_traffic"] for r in results),
        "mmu.l1_tlb_hits": sum(r["l1_tlb_hits"] for r in results),
        "mmu.l2_tlb_hits": sum(r["l2_tlb_hits"] for r in results),
        "sim.vectorized.batched_fraction": (
            batched / (batched + scalar) if batched + scalar else 0.0
        ),
        "sim.journal_s": self_s("sim.journal"),
        "sim.journal_records": calls("sim.journal"),
        "sim.runner_self_s": run_s - top,
        "serve.walk_traffic_per_walk": (
            lvm["walk_traffic"] / lvm["walks"] if lvm and lvm["walks"] else 0.0
        ),
        "serve.index_size_bytes": lvm["index_size_bytes"] if lvm else 0,
    }
    for scheme in SCHEMES:
        # Inclusive of the scheme's kernel.mmap calls: the whole
        # page-table construction of that cell.
        layers[f"sim.construct_s.{scheme}"] = by_label.get(
            f"sim.construct.{scheme}", {}).get("s", 0.0)
        layers[f"sim.translate_s.{scheme}"] = by_label.get(
            f"sim.translate.{scheme}", {}).get("s", 0.0)
    return layers


def suite(job: dict) -> dict:
    """One timed ``run_suite`` call, optionally traced."""
    from repro.sim import runner
    from repro.sim.config import SimConfig
    from repro.sim.journal import record_digest

    os.sched_setaffinity(0, {job["cpu"]})
    seed = job["seed"]
    config = SimConfig(
        num_refs=job["refs"],
        footprint_scale=job["scale"],
        workload_seed=seed,
        trace_seed=seed,
        trace_cache_dir=job["cache_dir"],
    )
    cells: list = []
    _time_cells(runner, cells)
    tracer, vec_stats = None, []
    if job["traced"]:
        tracer = sp.Tracer()
        _trace_suite(tracer, vec_stats)
    prober = calib.Prober()
    prober.start()
    start = perf()
    results = runner.run_suite(
        [job["name"]], SCHEMES, page_modes=(job["thp"],), config=config,
        jobs=1, journal=job.get("journal"),
    )
    end = perf()
    prober.stop()
    out = _section(start, end, prober)
    cal = calib.Calibrator(prober.probes)
    records = [asdict(r) for r in results.results]
    out.update(
        refs=sum(r["refs"] for r in records),
        cells={
            f"{r['workload']}/{r['scheme']}/thp{int(r['thp'])}": {
                "digest": record_digest(r),
                **{k: r[k] for k in ("refs", "walks", "l1_tlb_hits", "l2_tlb_hits")},
            }
            for r in records
        },
        failures=[asdict(f) for f in results.failures],
        latencies_ms=[1e3 * cal.seconds(a, b) for a, b in cells],
        raw_latencies_ms=[1e3 * (b - a) for a, b in cells],
        peak_rss_mb=_peak_rss_mb(),
        trace_cache=results.trace_cache,
    )
    if tracer is not None:
        out["layers"] = _suite_layers(
            tracer.spans, cal, start, end, records, results.trace_cache, vec_stats)
    return out


# -- serve -----------------------------------------------------------------

#: Churn is laid out in blocks of this many requests per tenant.
CHURN_BLOCK = 100
#: First page of each tenant's working set.
WORKING_SET_VPN = 1 << 20


def tenant_ops(config, name: str, count: int) -> list:
    """The zipf translate mix with mmap/munmap churn, as a pure
    function of ``(config.seed, name)``.

    Translates are ``config.batch`` VAs drawn zipf-skewed over the
    working set.  Churn follows ``TrafficConfig``'s rates (a 64-page
    mmap per ``churn`` requests, a munmap of the newest churn VMA per
    ``churn / 2``) but is stratified: every block of
    :data:`CHURN_BLOCK` requests holds exactly that many mmaps and
    then munmaps, at seeded positions.  A munmap costs ~40 translate
    batches, and its cost follows the address-space layout the churn
    built; drawn independently, the churn alone moved the run's length
    by a fifth from seed to seed.
    """
    rng = random.Random(f"{config.seed}:{name}")
    weights = [1.0 / (i + 1) ** config.zipf_alpha for i in range(config.working_set_pages)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    last = config.working_set_pages - 1
    mmaps = round(config.churn * CHURN_BLOCK)
    munmaps = round(config.churn / 2 * CHURN_BLOCK)
    next_vpn, extra = 1 << 24, []
    ops = []
    for block in range(0, count, CHURN_BLOCK):
        size = min(CHURN_BLOCK, count - block)
        slots = sorted(rng.sample(range(size), min(size, mmaps + munmaps)))
        churn = dict(zip(slots, ["mmap"] * mmaps + ["munmap"] * munmaps))
        for i in range(size):
            kind = churn.get(i, "translate")
            if kind == "munmap" and extra:
                ops.append(("munmap", {"start_vpn": extra.pop()}))
            elif kind == "mmap":
                extra.append(next_vpn)
                ops.append(("mmap", {"start_vpn": next_vpn, "pages": 64, "name": "churn"}))
                next_vpn += 512
            else:
                vas = [(WORKING_SET_VPN + min(last, bisect.bisect_left(cdf, rng.random())))
                       * 4096 for _ in range(config.batch)]
                ops.append(("translate", {"vas": vas}))
    return ops



def _trace_serve(tracer: sp.Tracer, span_file: str) -> None:
    """Wrap the entry points of this process (front end and clients)
    and of the shard.  Runs before the shard forks, so the shard
    inherits its wrappers; a wrapper around ``shard_main`` drops the
    spans inherited from this process and writes the shard's own spans
    out when it exits."""
    from repro.serve import shards
    from repro.serve.client import AsyncServeClient
    from repro.serve.server import TranslationServer
    from repro.serve.shard import ShardWorker
    from repro.serve.tenant import Tenant
    from repro.serve.tenant_journal import TenantJournal

    tracer.wrap_async(
        AsyncServeClient, "call", "serve.client",
        rid=lambda a, k: (k.get("tenant"), a[0]._next_id + 1),
        label=lambda a, k: a[1],
    )
    tracer.wrap_async(
        TranslationServer, "handle", "serve.frontend",
        rid=lambda a, k: (a[1].get("tenant"), a[1].get("id")),
        label=lambda a, k: a[1].get("op"),
    )
    tracer.wrap(
        ShardWorker, "handle", "serve.shard",
        rid=lambda a, k: (a[1].get("tenant"), a[1].get("seq")),
        label=lambda a, k, r: a[1].get("op") or "",
    )
    tracer.wrap(TenantJournal, "append_event", "serve.journal",
                label=lambda a, k, r: a[2])
    tracer.wrap(Tenant, "apply", "serve.tenant", label=lambda a, k, r: a[1])

    written = []

    def write_spans():
        if not written:
            written.append(True)
            Path(span_file).write_text(json.dumps(tracer.spans))

    traced_handle = ShardWorker.handle

    def handle(self, request):
        # The front end SIGKILLs a shard right after its shutdown
        # reply, so the spans are written before that reply is sent.
        if request.get("op") == "shutdown":
            write_spans()
        return traced_handle(self, request)

    ShardWorker.handle = handle
    shard_main = shards.shard_main

    def traced_shard_main(*args, **kwargs):
        del tracer.spans[:]
        try:
            shard_main(*args, **kwargs)
        finally:
            write_spans()

    shards.shard_main = traced_shard_main


def _serve_layers(local_spans, shard_spans, cal, window, shed, tenant_stats) -> dict:
    """Per-layer metrics of one traced traffic phase.

    Spans are joined per request: a client call and the front end's
    ``handle`` share the client's request id; a tenant connection
    sends only mutating ops, in order, so its n-th request carries
    seq n at the shard."""
    lo, hi = window

    def in_window(s):
        return lo <= s[sp.START] and s[sp.END] <= hi and s[sp.LABEL] in SERVE_OPS

    client = [s for s in local_spans if s[sp.NAME] == "serve.client" and in_window(s)]
    front = [s for s in local_spans if s[sp.NAME] == "serve.frontend" and in_window(s)]
    shard_all = [s for s in shard_spans if lo <= s[sp.START] and s[sp.END] <= hi]
    shard = [s for s in shard_all if s[sp.NAME] == "serve.shard" and s[sp.LABEL] in SERVE_OPS]
    f_of = sp.join_by_rid(client, front)
    s_of = sp.join_by_rid(front, shard)
    frontend_ms, hop_ms = [], []
    for i, f in f_of.items():
        frontend_ms.append(1e3 * sp.self_time(client[i], [f], cal))
    for i, s in s_of.items():
        f = front[i]
        if f[sp.START] <= s[sp.START] and s[sp.END] <= f[sp.END]:
            hop_ms.append(1e3 * sp.self_time(f, [s], cal))
    busy = sum(s[sp.END] - s[sp.START] for s in shard_all if s[sp.NAME] == "serve.shard")
    tenant = [s for s in shard_all if s[sp.NAME] == "serve.tenant"]
    walks = sum(t["walks"] for t in tenant_stats)
    layers = {
        "serve.frontend_ms_p50": sp.p50(frontend_ms),
        "serve.hop_ms_p50": sp.p50(hop_ms),
        "serve.shard_busy_ratio": busy / (hi - lo),
        "serve.journal_ms_p50": sp.p50(
            [1e3 * cal(s) for s in shard_all if s[sp.NAME] == "serve.journal"]),
        "serve.shed": shed,
        "serve.walk_traffic_per_walk": (
            sum(t["walk_traffic"] for t in tenant_stats) / walks if walks else 0.0),
        "serve.index_size_bytes": sp.p50(
            [t.get("index_size_bytes", 0) for t in tenant_stats]),
    }
    for op in SERVE_OPS:
        layers[f"serve.client_ms_p50.{op}"] = sp.p50(
            [1e3 * cal(s) for s in client if s[sp.LABEL] == op])
        layers[f"serve.tenant_ms_p50.{op}"] = sp.p50(
            [1e3 * cal(s) for s in tenant if s[sp.LABEL] == op])
        layers[f"serve.requests.{op}"] = sum(1 for s in client if s[sp.LABEL] == op)
    shard_s = sum(s[sp.END] - s[sp.START] for s in shard)
    tenant_s = sum(s[sp.END] - s[sp.START] for s in tenant)
    layers["_joined"] = {"client": len(client), "frontend": len(f_of), "shard": len(hop_ms)}
    layers["_tenant_share_of_shard"] = tenant_s / shard_s if shard_s else 0.0
    return layers


async def _serve(job: dict, tracer) -> dict:
    from repro.errors import ReproError, ServerOverloadedError
    from repro.serve.client import AsyncServeClient
    from repro.serve.server import ServePolicy, TranslationServer
    from repro.serve.traffic import TrafficConfig

    config = TrafficConfig(
        tenants=2, requests=job["requests"], batch=32, working_set_pages=512,
        churn=0.02, concurrency=2, seed=job["seed"], scheme="lvm",
    )
    names = config.tenant_names()
    # A relative socket path keeps under the 108-byte AF_UNIX limit
    # wherever the checkout lives (the benchmark runs from its root).
    work = Path(job["work"])
    server = TranslationServer(
        os.path.relpath(work / "s.sock"), str(work / "journals"),
        ServePolicy(num_shards=1),
    )
    prober = calib.Prober()
    prober.start()
    start = perf()
    await server.start()
    admin = await AsyncServeClient.connect(server.socket_path)
    conns = {}
    for name in names:
        await admin.call("create_tenant", args={"spec": {"name": name, "scheme": config.scheme}})
        conns[name] = await AsyncServeClient.connect(server.socket_path)
        await conns[name].call("mmap", tenant=name, args={
            "start_vpn": WORKING_SET_VPN, "pages": config.working_set_pages,
            "name": "working-set"})
    setup_end = perf()
    samples, errors, shed = [], [], [0]
    if job["mode"] == "serve-setup":
        prober.stop()
        out = _section(start, setup_end, prober)
    else:
        per_tenant = config.requests // config.tenants
        scripts = {name: tenant_ops(config, name, per_tenant) for name in names}

        async def drive(name: str) -> None:
            client = conns[name]
            slots = asyncio.Semaphore(config.concurrency)

            async def fire(op: str, args: dict) -> None:
                sent = perf()
                try:
                    result = await client.call(op, tenant=name, args=args)
                    samples.append((op, sent, perf(), result.get("refs", 0)))
                except ServerOverloadedError:
                    shed[0] += 1
                except ReproError as exc:
                    errors.append(f"{name} {op}: {type(exc).__name__}: {exc}")
                except Exception as exc:  # noqa: BLE001 — reported as a failed request
                    errors.append(f"{name} {op}: unexpected {type(exc).__name__}: {exc}")
                finally:
                    slots.release()

            tasks = []
            for op, args in scripts[name]:
                await slots.acquire()
                tasks.append(asyncio.create_task(fire(op, args)))
            await asyncio.gather(*tasks)

        traffic_start = perf()
        await asyncio.gather(*(drive(name) for name in names))
        traffic_end = perf()
        prober.stop()
        out = _section(traffic_start, traffic_end, prober)
        cal = calib.Calibrator(prober.probes)
        out["refs"] = sum(s[3] for s in samples)
        out["requests"] = sum(len(ops) for ops in scripts.values())
        out["latencies"] = [
            (op, 1e3 * cal.seconds(a, b), 1e3 * (b - a)) for op, a, b, _ in samples
        ]
    digests = {n: (await admin.call("digest", tenant=n, args={}))["digest"] for n in names}
    tenant_stats = [await admin.call("stats", tenant=n, args={}) for n in names]
    server_stats = server.server_stats()
    for client in (admin, *conns.values()):
        await client.close()
    await server.close()
    out.update(
        digests=digests,
        errors=errors + [f"server errors: {server_stats['errors']}"] * bool(server_stats["errors"]),
        shed=shed[0] + server_stats["shed_overload"] + server_stats["shed_latency"],
        peak_rss_mb=_peak_rss_mb() + _peak_rss_mb(resource.RUSAGE_CHILDREN),
    )
    if tracer is not None and job["mode"] == "serve":
        span_file = Path(job["span_file"])
        shard_spans = json.loads(span_file.read_text()) if span_file.exists() else []
        out["layers"] = _serve_layers(
            tracer.spans, shard_spans, _span_seconds(cal), (traffic_start, traffic_end),
            out["shed"], tenant_stats)
    return out


def serve(job: dict) -> dict:
    # This process and the shard share one vCPU (the shard inherits
    # the affinity at fork), so this process's probes see the CPU the
    # shard runs on.
    os.sched_setaffinity(0, {job["cpu"]})
    tracer = None
    if job["traced"] and job["mode"] == "serve":
        tracer = sp.Tracer()
        _trace_serve(tracer, job["span_file"])
    return asyncio.run(_serve(job, tracer))


MODES = {"fill": fill, "suite": suite, "serve-setup": serve, "serve": serve}


def main() -> None:
    job = json.loads(sys.argv[1])
    out = MODES[job["mode"]](job)
    Path(job["out"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
