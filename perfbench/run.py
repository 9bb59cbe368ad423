"""Probe-calibrated benchmark of the LVM reproduction.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload suite-4k --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``suite-4k``  — ``run_suite(["bfs"], radix/ecpt/lvm, 4 KB pages)``
  with a run journal, against a filled trace cache: workload build and
  page-table construction dominate;
* ``suite-thp`` — ``run_suite(["gups"], radix/ecpt/lvm, THP)`` against
  a filled trace cache: the translate loop dominates;
* ``serve-lvm`` — a closed loop of two LVM tenants against an
  in-process ``TranslationServer`` with one forked shard.

Each set-up and each timed repeat runs in a fresh process
(``child.py``).  Set-up runs a few times per run; timed repeats run
until ``--seconds`` have passed.  Every host time is calibrated
(``calib.py``) and reported as the median over repeats.  ``--trace 1``
adds one traced repeat (``spans.py``) and reports the per-layer
metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: The workloads, with the sizes that give each its phase mix, and
#: how many set-ups a run takes the median of.
WORKLOADS = {
    "suite-4k": {"kind": "suite", "name": "bfs", "thp": False, "scale": 256,
                 "refs": 10_000, "journal": True, "setups": 3},
    "suite-thp": {"kind": "suite", "name": "gups", "thp": True, "scale": 64,
                  "refs": 50_000, "journal": False, "setups": 5},
    "serve-lvm": {"kind": "serve", "requests": 2000, "setups": 5},
}
SCHEMES = ("radix", "ecpt", "lvm")
TENANTS = ("tenant-0", "tenant-1")
#: A run never starts a child with less time than this left.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "run_s": "s", "refs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
}
PER_LAYER = {
    "workloads.build_s": "s", "workloads.build_calls": "count",
    "workloads.trace_s": "s", "workloads.trace_cache_hits": "count",
    "workloads.trace_cache_builds": "count",
    "sim.construct_s": "s", "sim.construct_s.radix": "s",
    "sim.construct_s.ecpt": "s", "sim.construct_s.lvm": "s",
    "kernel.mmap_calls": "count", "kernel.mmap_s": "s",
    "sim.translate_s": "s", "sim.translate_s.radix": "s",
    "sim.translate_s.ecpt": "s", "sim.translate_s.lvm": "s",
    "sim.translate_us_per_ref": "us", "sim.translate_us_per_walk": "us",
    "mmu.walks": "count", "mmu.walk_traffic": "count",
    "mmu.l1_tlb_hits": "count", "mmu.l2_tlb_hits": "count",
    "sim.vectorized.batched_fraction": "ratio",
    "sim.journal_s": "s", "sim.journal_records": "count",
    "sim.runner_self_s": "s",
    "serve.client_ms_p50.translate": "ms", "serve.client_ms_p50.mmap": "ms",
    "serve.client_ms_p50.munmap": "ms", "serve.frontend_ms_p50": "ms",
    "serve.hop_ms_p50": "ms", "serve.shard_busy_ratio": "ratio",
    "serve.journal_ms_p50": "ms", "serve.tenant_ms_p50.translate": "ms",
    "serve.tenant_ms_p50.mmap": "ms", "serve.tenant_ms_p50.munmap": "ms",
    "serve.requests.translate": "count", "serve.requests.mmap": "count",
    "serve.requests.munmap": "count", "serve.shed": "count",
    "serve.walk_traffic_per_walk": "count", "serve.index_size_bytes": "bytes",
    "host.raw_run_s": "s", "host.probe_ms": "ms", "host.probes": "count",
    "host.trace_overhead": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


class Bench:
    """One invocation: a work directory, a deadline, fresh children."""

    def __init__(self, workload: str, seed: int, src: Path):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.started = time.monotonic()
        self.work = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.cpu = min(os.sched_getaffinity(0))
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("REPRO_", "PYTHON"))}
        self.env.update(
            PYTHONPATH=str(src), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
            REPRO_CACHE_DIR=str(self.work / "no-cache"),
        )
        self._n = 0
        self.cache = None  # the warm trace cache the timed repeats use

    def child(self, **job) -> dict:
        """Run ``child.py`` once in a fresh process; returns its JSON."""
        self._n += 1
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 5:
            raise BenchError("out of time before a required child run")
        job.update(seed=self.seed, cpu=self.cpu,
                   out=str(self.work / f"out-{self._n}.json"))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(job)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{job['mode']} child timed out") from exc
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-12:])
            raise BenchError(f"{job['mode']} child exited {proc.returncode}:\n{tail}")
        return json.loads(Path(job["out"]).read_text())

    def fresh_dir(self, tag: str) -> str:
        path = self.work / f"{tag}-{self._n + 1}"
        path.mkdir()
        return str(path)

    # -- phases ------------------------------------------------------------

    def setups(self, count: int) -> list:
        spec = self.spec
        out = []
        for _ in range(count):
            if spec["kind"] == "suite":
                cache = self.fresh_dir("cache")
                out.append(self.child(mode="fill", cache_dir=cache, **_suite_args(spec)))
                if out[-1]["cache_builds"] != 1:
                    raise BenchError("the set-up did not fill a cold trace cache")
                self.cache = cache
            else:
                out.append(self.child(mode="serve-setup", traced=False,
                                      work=self.fresh_dir("serve"),
                                      requests=spec["requests"]))
        return out

    def timed(self, traced: bool = False) -> dict:
        spec = self.spec
        if spec["kind"] == "suite":
            journal = (str(Path(self.fresh_dir("journal")) / "sweep.jsonl")
                       if spec["journal"] else None)
            return self.child(mode="suite", traced=traced, cache_dir=self.cache,
                              journal=journal, **_suite_args(spec))
        work = self.fresh_dir("serve")
        return self.child(mode="serve", traced=traced, work=work,
                          requests=spec["requests"],
                          span_file=str(Path(work) / "shard-spans.json"))

    def repeats(self, seconds: float) -> list:
        """Timed repeats, each in a fresh process, until ``seconds``."""
        until = time.monotonic() + seconds
        runs = [self.timed()]
        while time.monotonic() < until:
            runs.append(self.timed())
        return runs

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def _suite_args(spec: dict) -> dict:
    return {k: spec[k] for k in ("name", "thp", "scale", "refs")}


# -- aggregation -----------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    share ``q`` of the samples at or below it (p99 of 1000 samples has
    10 above it; of 3 samples, it is the largest)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setups: list, runs: list, kind: str) -> dict:
    """The end-to-end metrics, each a median over the run's repeats
    (set-ups for ``setup_s``), beside the raw figures they came from.

    Latency on serve-lvm is per request, pooled over the repeats
    (each request calibrated by its own repeat's probes), so the p99
    of three 2000-request repeats has 60 samples above it.  On the
    suites a request is a cell: each scheme's cell time is its median
    over repeats, and the percentiles are taken over those (so p99 is
    the slowest scheme's cell)."""
    med = statistics.median
    if kind == "suite":
        lat = [[med(cell) for cell in zip(*(r["latencies_ms"] for r in runs))]]
        raw_lat = [[med(cell) for cell in zip(*(r["raw_latencies_ms"] for r in runs))]]
        lat_n = f"{len(lat[0])} cells x {len(runs)}"
    else:
        lat = [[ms for r in runs for _, ms, _ in r["latencies"]]]
        raw_lat = [[ms for r in runs for _, _, ms in r["latencies"]]]
        lat_n = f"{len(lat[0])} requests"
    values = {
        "run_s": med(r["s"] for r in runs),
        "refs_per_s": med(r["refs"] / r["s"] for r in runs),
        "setup_s": med(s["s"] for s in setups),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
        "latency_p50_ms": med(percentile(x, 0.50) for x in lat),
        "latency_p99_ms": med(percentile(x, 0.99) for x in lat),
    }
    raw = {
        "run_s": med(r["raw_s"] for r in runs),
        "refs_per_s": med(r["refs"] / r["raw_s"] for r in runs),
        "setup_s": med(s["raw_s"] for s in setups),
        "latency_p50_ms": med(percentile(x, 0.50) for x in raw_lat),
        "latency_p99_ms": med(percentile(x, 0.99) for x in raw_lat),
    }
    samples = {
        "run_s": len(runs), "refs_per_s": len(runs), "setup_s": len(setups),
        "peak_rss_mb": len(runs), "latency_p50_ms": lat_n, "latency_p99_ms": lat_n,
    }
    return {"values": values, "raw": raw, "samples": samples}


# -- output check ----------------------------------------------------------

def recorded_digests(workload: str, seed: int):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def check_suite(spec: dict, runs: list, golden) -> "tuple[int, int, list]":
    """Every cell of every repeat: full-result digest against the
    recorded one (when this seed has one) and against every other
    repeat, plus model invariants that hold for any seed."""
    expected = {f"{spec['name']}/{s}/thp{int(spec['thp'])}" for s in SCHEMES}
    first = runs[0]["cells"]
    attempted = failed = 0
    problems = []
    for i, run in enumerate(runs):
        for failure in run["failures"]:
            problems.append(f"repeat {i}: cell failed: {failure}")
        cells = run["cells"]
        attempted += len(expected)
        for key in sorted(expected):
            cell = cells.get(key)
            why = None
            if cell is None:
                why = "missing"
            elif cell["refs"] != spec["refs"]:
                why = f"refs {cell['refs']} != {spec['refs']}"
            elif cell["l1_tlb_hits"] + cell["l2_tlb_hits"] + cell["walks"] != cell["refs"]:
                why = "TLB hits + walks != refs"
            elif any(cell[k] != cells.get(f"{spec['name']}/radix/thp{int(spec['thp'])}", {}).get(k)
                     for k in ("walks", "l1_tlb_hits", "l2_tlb_hits")):
                why = "TLB behaviour differs from the radix cell of the same trace"
            elif key in first and cell["digest"] != first[key]["digest"]:
                why = "result differs between repeats"
            elif golden is not None and cell["digest"] != golden.get(key):
                why = "result differs from the recorded digest"
            if why:
                failed += 1
                problems.append(f"repeat {i}: {key}: {why}")
    return attempted, failed, problems


def check_serve(spec: dict, runs: list, golden) -> "tuple[int, int, list]":
    """Every request answered without error or shedding, and each
    tenant's final digest equal across repeats and to the recorded
    one; a mismatching tenant's requests all count as failed."""
    attempted = failed = 0
    problems = []
    per_tenant = spec["requests"] // len(TENANTS)
    for i, run in enumerate(runs):
        attempted += run["requests"]
        # Shed and failed requests have no latency sample.
        lost = run["requests"] - len(run["latencies"])
        if lost:
            problems.append(f"repeat {i}: {lost} requests shed or failed")
        if run["shed"]:
            problems.append(f"repeat {i}: the server shed {run['shed']} requests")
        problems += [f"repeat {i}: {e}" for e in run["errors"]]
        for name in TENANTS:
            digest = run["digests"].get(name)
            if digest != runs[0]["digests"].get(name) or (
                    golden is not None and digest != golden.get(name)):
                lost += per_tenant
                problems.append(f"repeat {i}: {name}: digest mismatch")
        failed += min(lost, run["requests"])
    if problems:
        failed = max(failed, 1)
    return attempted, failed, problems


# -- per-layer -------------------------------------------------------------

def per_layer(traced: dict, untraced: list) -> dict:
    layers = {name: 0 for name in PER_LAYER}
    layers.update({k: v for k, v in traced.get("layers", {}).items() if k in PER_LAYER})
    layers["host.raw_run_s"] = traced["raw_s"]
    layers["host.probe_ms"] = traced["probe_ms"]
    layers["host.probes"] = traced["probes"]
    layers["host.trace_overhead"] = traced["s"] / statistics.median(r["s"] for r in untraced) - 1
    return layers


def layer_report(kind: str, layers: dict, traced: dict) -> list:
    """The shares that say what each workload is for."""
    run_s = traced["s"]
    extra = traced.get("layers", {})
    if kind == "suite":
        build = layers["workloads.build_s"]
        construct = layers["sim.construct_s"] + layers["kernel.mmap_s"]
        translate = layers["sim.translate_s"]
        return [
            f"  build + page-table construction: {(build + construct) / run_s:.1%} of run_s",
            f"  translate loop:                  {translate / run_s:.1%} of run_s",
            f"  journal + runner self:           "
            f"{(layers['sim.journal_s'] + layers['sim.runner_self_s']) / run_s:.1%} of run_s",
        ]
    return [
        f"  tenant ops: {extra.get('_tenant_share_of_shard', 0.0):.1%} of shard time",
        f"  shard busy: {layers['serve.shard_busy_ratio']:.1%} of the traffic phase",
        f"  joined spans: {extra.get('_joined')}",
    ]


# -- main ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests in digests.json")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    bench = Bench(args.workload, args.seed, src)
    try:
        spec = bench.spec
        setups = bench.setups(1 if args.trace else spec["setups"])
        runs = bench.repeats(args.seconds)
        traced = bench.timed(traced=True) if args.trace else None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    golden = None if args.record else recorded_digests(args.workload, args.seed)
    checked = runs + ([traced] if traced else [])
    check = check_suite if spec["kind"] == "suite" else check_serve
    attempted, failed, problems = check(spec, checked, golden)
    correct = not problems

    print(f"workload {args.workload}  seed {args.seed}  "
          f"digests {'recorded' if golden else 'not recorded for this seed'}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if args.trace:
        metrics = per_layer(traced, runs)
        units = PER_LAYER
        print(f"traced repeat: run_s {traced['s']:.4f} s calibrated "
              f"(raw {traced['raw_s']:.4f} s, {traced['probes']} probes, "
              f"{traced['probe_ms']:.3f} ms mean)")
        print("\n".join(layer_report(spec["kind"], metrics, traced)))
    else:
        e2e = end_to_end(setups, runs, spec["kind"])
        metrics = dict(e2e["values"])
        metrics["ok_ratio"] = (attempted - failed) / attempted
        units = END_TO_END
        probes = [r["probes"] for r in runs]
        probe_ms = [r["probe_ms"] for r in runs]
        print(f"{len(runs)} timed repeats, {len(setups)} set-ups; probes per repeat "
              f"{min(probes)}-{max(probes)}, mean probe "
              f"{min(probe_ms):.3f}-{max(probe_ms):.3f} ms")
        for name in END_TO_END:
            raw = e2e["raw"].get(name)
            print(f"  {name:16s} {metrics[name]:14.6g} {END_TO_END[name]:6s}"
                  + (f"  raw {raw:.6g}" if raw is not None else "")
                  + (f"  n={e2e['samples'][name]}" if name in e2e["samples"] else ""))
    if args.record and correct:
        store = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        if spec["kind"] == "suite":
            entry = {k: v["digest"] for k, v in runs[0]["cells"].items()}
        else:
            entry = runs[0]["digests"]
        store.setdefault(args.workload, {})[str(args.seed)] = entry
        DIGESTS.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
