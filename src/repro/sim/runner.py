"""Experiment runner: scheme × workload × page-size sweeps.

``run_suite`` produces the single :class:`ResultSet` from which every
figure of section 7.1/7.2 is derived, exactly as the paper derives
Figures 9-12 from one set of simulations.  Every sweep runs through
the sweep executor (:mod:`repro.sim.supervisor`): in this process at
one job, in a supervised worker pool otherwise, with one cell
function, :func:`_run_cell`, either way.

Long sweeps can be made crash-safe: ``journal=path`` checkpoints every
completed cell to an append-only JSONL journal
(:mod:`repro.sim.journal`), and ``resume=True`` replays journal hits
instead of re-running them — a resumed sweep is bit-identical to an
uninterrupted one.  ``run_timeout``/``retries`` add per-run deadlines
and bounded retry of hung or crashed workers.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.schemes import registry as scheme_registry
from repro.sim.config import SCHEMES, SimConfig
from repro.sim.journal import RunJournal
from repro.sim.results import ResultSet, SimResult
from repro.sim.simulator import Simulator
from repro.sim.supervisor import (
    RunSpec,
    SupervisorPolicy,
    SweepSupervisor,
    make_specs,
    resolve_jobs,
)
from repro.workloads.compile import compiled_trace_for, memoize_trace, trace_spec
from repro.workloads.registry import (
    SUITE,
    BuiltWorkload,
    build_workload,
    workload_from_layout,
)
from repro.workloads.trace_cache import TraceCache, cache_for_config


def run_suite(
    workload_names: Optional[Iterable[str]] = None,
    schemes: Iterable[str] = SCHEMES,
    page_modes: Iterable[bool] = (False, True),
    config: Optional[SimConfig] = None,
    verbose: bool = False,
    on_error: str = "raise",
    jobs: int = 1,
    journal: Optional[Union[str, "RunJournal"]] = None,
    resume: bool = False,
    run_timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> ResultSet:
    """Run every (workload, scheme, thp) combination.

    ``page_modes`` holds THP flags: False = 4 KB pages only, True =
    transparent huge pages (section 6.3's two configurations).

    ``on_error`` controls what happens when one run raises a
    :class:`ReproError`: ``"raise"`` propagates it (fail fast) once the
    cell is journaled, ``"collect"`` records it in
    ``ResultSet.failures`` and moves on to the remaining combinations.
    Non-``ReproError`` exceptions (genuine bugs) always propagate.

    ``jobs`` > 1 fans the combinations out across that many worker
    processes; results are bit-identical to ``jobs=1`` and come back in
    the same order.

    ``journal`` names a crash-safe run journal (a path, or an
    already-open :class:`RunJournal`): every completed cell is
    checkpointed as it finishes.  ``resume=True`` loads the journal
    first — rejecting one written under a different config with
    :class:`~repro.errors.JournalMismatchError` — and re-runs only the
    cells it does not hold.  ``run_timeout`` (seconds per run) and
    ``retries`` (extra attempts for hung/crashed runs, default 2)
    engage supervised execution; a ``run_timeout`` with ``jobs=1``
    still runs through a one-worker pool, since only a subprocess can
    be killed on deadline.

    Every argument is checked before a journal file is created.
    """
    if on_error not in ("raise", "collect"):
        raise ConfigError(
            f"on_error must be 'raise' or 'collect', got {on_error!r}"
        )
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs!r}")
    if resume and journal is None:
        raise ConfigError("resume=True requires a journal path")
    base = config or SimConfig()
    specs = make_specs(list(workload_names or SUITE), schemes, page_modes, base)
    policy = SupervisorPolicy(
        run_timeout=run_timeout, retries=2 if retries is None else retries
    )

    owns_journal = journal is not None and not isinstance(journal, RunJournal)
    jnl: Optional[RunJournal] = (
        RunJournal.open(journal, base, resume=resume)
        if owns_journal
        else journal
    )
    try:
        # Guardrail (see resolve_jobs): a pool that cannot win falls
        # back to one job, with the reason on stderr — small grids and
        # oversubscribed CPUs measured *slower* than in-process.
        jobs, fallback_reason = resolve_jobs(jobs, len(specs), run_timeout)
        if fallback_reason is not None:
            print(
                f"repro: parallel sweep falling back to serial: "
                f"{fallback_reason}",
                file=sys.stderr,
            )
        supervisor = SweepSupervisor(
            specs, _run_cell, jobs=jobs, on_error=on_error,
            verbose=verbose, journal=jnl, policy=policy,
        )
        cache = cache_for_config(base)
        stats_before = cache.stats() if cache is not None else None
        workloads_built = 0
        try:
            # Load before the first cell: in-process cells read the
            # memo, and forked pool workers inherit it.
            for name in supervisor.pending_workloads():
                built, was_built = _load_workload(name, base, cache)
                _SWEEP_WORKLOADS[_memo_key(name, base)] = built
                workloads_built += was_built
            results = supervisor.run()
        finally:
            _SWEEP_WORKLOADS.clear()
        if cache is not None:
            results.trace_cache = _cache_delta(
                cache, stats_before, workloads_built
            )
        return results
    finally:
        if owns_journal and jnl is not None:
            jnl.close()


#: The running sweep's workloads, keyed by :func:`_memo_key`.  Filled by
#: ``run_suite`` before the first cell and cleared after the last; a
#: forked pool worker inherits it, a ``spawn`` worker fills its own.
_SWEEP_WORKLOADS: Dict[Tuple[str, int, int], BuiltWorkload] = {}


def _memo_key(name: str, config: SimConfig) -> Tuple[str, int, int]:
    return name, config.footprint_scale, config.workload_seed


def _run_cell(spec: RunSpec) -> SimResult:
    """The sweep executor's cell function: one (workload, scheme, thp)
    simulation, in this process or in a pool worker.  ``Simulator``
    (and, on a memo miss, ``_load_workload``'s loaders) are looked up
    in this module at call time, so patching them here reaches every
    cell."""
    key = _memo_key(spec.workload, spec.config)
    built = _SWEEP_WORKLOADS.get(key)
    if built is None:
        built, _ = _load_workload(
            spec.workload, spec.config, cache_for_config(spec.config)
        )
        _SWEEP_WORKLOADS[key] = built
    return Simulator(spec.scheme, built, spec.config.clone(thp=spec.thp)).run()


def _load_workload(
    name: str, base: SimConfig, cache: Optional[TraceCache]
) -> Tuple[BuiltWorkload, bool]:
    """Workload ``name`` for a sweep under ``base``, with its trace
    compiled, and whether it had to be built.

    A verified cache entry whose sidecar carries the workload's VMA
    layout needs no build (:func:`workload_from_layout`).  Otherwise
    the workload is built through this module's ``build_workload`` and
    its trace compiled: a miss stores trace and layout as one entry,
    and an entry without a layout is still used for its trace.
    """
    compiled = None
    if cache is not None:
        compiled = cache.get(
            trace_spec(
                name,
                base.footprint_scale,
                base.workload_seed,
                base.num_refs,
                base.trace_seed,
            )
        )
        if compiled is not None and compiled.layout is not None:
            return workload_from_layout(compiled), False
    built = build_workload(
        name, scale=base.footprint_scale, seed=base.workload_seed
    )
    if compiled is not None:
        memoize_trace(built, compiled)
    elif cache is not None:
        compiled_trace_for(built, base.num_refs, base.trace_seed, cache)
    return built, True


def _cache_delta(
    cache: TraceCache, before: Dict[str, object], workloads_built: int
) -> Dict[str, object]:
    """This sweep's share of the per-process cache counters, plus how
    many workloads it had to build."""
    after = cache.stats()
    return {
        "root": after["root"],
        "hits": after["hits"] - before["hits"],
        "builds": after["builds"] - before["builds"],
        "invalidated": after["invalidated"] - before["invalidated"],
        "workloads_built": workloads_built,
    }


def summarize_speedups(
    results: ResultSet, thp: bool
) -> List[Dict[str, object]]:
    """Speedup rows for Figure 9, one dict per workload.

    Each row maps ``"workload"`` to the workload name and each core
    scheme name (the registry's headline comparison set) to its speedup
    over the radix baseline; schemes missing from ``results`` are
    omitted from the row.
    """
    rows: List[Dict[str, object]] = []
    for workload in results.workloads():
        row: Dict[str, object] = {"workload": workload}
        for scheme in scheme_registry.core_schemes():
            try:
                row[scheme] = results.speedup(workload, scheme, thp)
            except KeyError:
                continue
        rows.append(row)
    return rows
