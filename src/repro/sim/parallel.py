"""Parallel sweep engine: fan (workload × scheme × THP) runs across
worker processes.

The sweep behind every figure is embarrassingly parallel — each
(workload, scheme, thp) combination builds its own simulator state —
so ``run_suite(..., jobs=N)`` dispatches picklable :class:`RunSpec`
descriptions to a :class:`~concurrent.futures.ProcessPoolExecutor`
instead of shipping live simulators (page tables, walkers and trace
closures do not pickle, and rebuilding them in the worker is exactly
what the serial path does anyway).

Guarantees, in order of importance:

* **Bit-identical results.**  A worker loads the workload for the
  same (name, scale, seed) triple and runs the same ``Simulator`` on a
  config cloned the same way the serial loop clones it; every RNG in
  the pipeline is seeded, so the :class:`SimResult` fields match the
  serial run exactly.
* **Deterministic order.**  Results are reassembled in spec order, not
  completion order, so ``ResultSet.results`` (and ``failures``) are
  indistinguishable from a serial sweep.
* **Serial error semantics.**  A :class:`ReproError` inside a worker is
  returned as a value (never crashes the pool) and either re-raised in
  the parent (``on_error="raise"``) or recorded via
  ``ResultSet.add_failure`` in spec order (``on_error="collect"``).
  Any other exception is a genuine bug and propagates.

Workers cache loaded workloads in a module global keyed by (name,
scale, seed): the first spec touching a workload loads it through the
runner's ``_load_workload`` — the serial path's loader — and
subsequent specs in the same worker reuse it.

Workers neither build workloads nor re-synthesize traces:
``run_suite`` fills the content-addressed cache
(:mod:`repro.workloads.trace_cache`) with each distinct trace and its
workload's VMA layout before fan-out, so a worker rebuilds the
workload from the layout and memmaps the packed trace read-only —
zero-copy under the default ``fork`` start (the parent's mapping is
inherited), shared OS page cache under ``spawn``.

Execution itself lives in :mod:`repro.sim.supervisor` since PR 4: this
module owns the *description* layer (specs, the worker function, the
worker-side cache), the supervisor owns the pool — deadlines, retries,
pool respawn, journal checkpointing, and graceful shutdown.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError, ReproError
from repro.schemes import registry as scheme_registry
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulator
from repro.workloads.registry import (
    PRODUCTION_WORKLOADS,
    SUITE,
    WORKLOADS,
    BuiltWorkload,
)
from repro.workloads.trace_cache import cache_for_config

__all__ = [
    "RunSpec",
    "default_jobs",
    "make_specs",
    "oversubscribe_allowed",
    "resolve_jobs",
]

#: Escape hatch for the CPU-count guardrail: chaos tests (which *need*
#: a worker pool to SIGKILL) and deliberate SMT/oversubscription
#: experiments set REPRO_OVERSUBSCRIBE=1 to run more workers than
#: visible CPUs.
OVERSUBSCRIBE_ENV = "REPRO_OVERSUBSCRIBE"


def oversubscribe_allowed() -> bool:
    raw = os.environ.get(OVERSUBSCRIBE_ENV, "").strip().lower()
    return raw not in ("", "0", "false", "no", "off")


@dataclass(frozen=True)
class RunSpec:
    """One (workload, scheme, thp) run, described by values that pickle.

    ``config`` is the sweep's *base* config; the worker clones it with
    ``thp`` applied, exactly like the serial loop, so a spec stays a
    pure description and the clone point is identical in both paths.

    ``scheme`` is a canonical registry name — descriptors themselves
    never pickle.  ``scheme_module`` records the module whose import
    registers the descriptor, so a worker that does not inherit the
    parent's registry (``spawn`` start method) can re-import it before
    resolving the name.
    """

    workload: str
    scheme: str
    thp: bool
    scale: int
    workload_seed: int
    config: SimConfig = field(repr=False)
    scheme_module: Optional[str] = None


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial), capped at
    ``os.cpu_count()``.

    A malformed value is a configuration mistake, not a silent
    fallback: ``REPRO_JOBS=abc`` or ``-3`` raises :class:`ConfigError`
    naming the offending value (the CLI maps it to exit code 2).  A
    value above the visible CPU count is clamped — more workers than
    cores is measured slower than serial (BENCH_sweep.json) — unless
    :data:`OVERSUBSCRIBE_ENV` opts out of the cap.
    """
    raw = os.environ.get("REPRO_JOBS")
    if raw is None or raw == "":
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_JOBS={raw!r} is not an integer worker count"
        ) from None
    if jobs < 1:
        raise ConfigError(f"REPRO_JOBS={raw!r} must be >= 1")
    if not oversubscribe_allowed():
        jobs = min(jobs, os.cpu_count() or 1)
    return jobs


def resolve_jobs(
    jobs: int,
    num_specs: int,
    run_timeout: Optional[float] = None,
) -> "tuple[int, Optional[str]]":
    """The worker count a sweep should actually use: ``(jobs, reason)``.

    ``reason`` is non-None when the guardrail overrode the request and
    explains why (the runner logs it).  Two cases fall back to serial:

    * ``jobs`` exceeds the visible CPU count — oversubscribed workers
      contend for the same cores and lose to the serial loop (measured
      0.77x in BENCH_sweep.json on a 1-CPU host);
    * the grid has fewer cells than workers — pool startup/teardown
      costs more than it can ever recover on so small a sweep.

    A ``run_timeout`` disables the guardrail entirely: deadlines can
    only be enforced by killing a *subprocess*, so supervised runs keep
    their pool even where it is slower.  So does
    :data:`OVERSUBSCRIBE_ENV` (chaos tests kill workers on purpose).
    """
    if jobs <= 1 or run_timeout is not None or oversubscribe_allowed():
        return jobs, None
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        return 1, (
            f"jobs={jobs} exceeds the {cpus} visible CPU(s); "
            "oversubscribed workers are slower than the serial loop "
            f"(set {OVERSUBSCRIBE_ENV}=1 to force a pool)"
        )
    if num_specs < jobs:
        return 1, (
            f"grid has {num_specs} cell(s) for {jobs} workers; pool "
            "startup would cost more than it recovers"
        )
    return jobs, None


def make_specs(
    names: Sequence[str],
    schemes: Sequence[str],
    page_modes: Sequence[bool],
    config: SimConfig,
) -> List[RunSpec]:
    """Spec list in the serial sweep's nesting order (thp, name, scheme).

    Unknown workload *and* scheme names are rejected here — before any
    worker forks — with the same :class:`ConfigError` family the serial
    path raises (schemes get :class:`~repro.errors.UnknownSchemeError`
    listing ``registry.available()``).
    """
    for name in names:
        if name not in WORKLOADS and name not in PRODUCTION_WORKLOADS:
            raise ConfigError(
                f"unknown workload {name!r}; choose from "
                f"{SUITE + list(PRODUCTION_WORKLOADS)}"
            )
    resolved = [
        (scheme_registry.canonical_name(s), scheme_registry.provider_module(s))
        for s in schemes
    ]
    return [
        RunSpec(
            workload=name,
            scheme=scheme,
            thp=thp,
            scale=config.footprint_scale,
            workload_seed=config.workload_seed,
            config=config,
            scheme_module=module,
        )
        for thp in page_modes
        for name in names
        for scheme, module in resolved
    ]


# Per-worker-process workload cache; (name, scale, seed) -> workload.
# Module-global so it survives across tasks within one worker but is
# never shared between processes.
_WORKER_WORKLOADS: Dict[tuple, BuiltWorkload] = {}


def _worker_run(spec: RunSpec):
    """Execute one spec in a worker; returns ("ok", result) or
    ("error", ReproError).  Non-ReproError exceptions escape on purpose
    (the parent re-raises them as genuine bugs)."""
    if not scheme_registry.is_registered(spec.scheme) and spec.scheme_module:
        # ``spawn`` workers start with only the built-in registry; a
        # custom scheme re-registers by importing its provider module.
        # (Under the default ``fork`` start the parent's registry is
        # inherited and this branch never runs.)
        importlib.import_module(spec.scheme_module)
    key = (spec.workload, spec.scale, spec.workload_seed)
    built = _WORKER_WORKLOADS.get(key)
    if built is None:
        # Imported here: the runner imports this module.
        from repro.sim import runner

        built, _ = runner._load_workload(
            spec.workload, spec.config, cache_for_config(spec.config)
        )
        _WORKER_WORKLOADS[key] = built
    cfg = spec.config.clone(thp=spec.thp)
    try:
        return "ok", Simulator(spec.scheme, built, cfg).run()
    except ReproError as exc:
        return "error", exc
