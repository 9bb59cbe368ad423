"""Experiment runner: scheme × workload × page-size sweeps.

``run_suite`` produces the single :class:`ResultSet` from which every
figure of section 7.1/7.2 is derived, exactly as the paper derives
Figures 9-12 from one set of simulations.

Long sweeps can be made crash-safe: ``journal=path`` checkpoints every
completed cell to an append-only JSONL journal
(:mod:`repro.sim.journal`), and ``resume=True`` replays journal hits
instead of re-running them — a resumed sweep is bit-identical to an
uninterrupted one.  ``run_timeout``/``retries`` engage the sweep
supervisor (:mod:`repro.sim.supervisor`) for per-run deadlines and
bounded retry of hung or crashed workers.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ConfigError, ReproError, SweepInterrupted
from repro.schemes import registry as scheme_registry
from repro.sim.config import SCHEMES, SimConfig
from repro.sim.journal import RunJournal
from repro.sim.parallel import make_specs, resolve_jobs
from repro.sim.results import ResultSet, RunFailure
from repro.sim.simulator import Simulator
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
    :class:`ReproError`: ``"raise"`` propagates immediately (fail
    fast), ``"collect"`` records it in ``ResultSet.failures`` and moves
    on to the remaining combinations.  Non-``ReproError`` exceptions
    (genuine bugs) always propagate.

    ``jobs`` > 1 fans the combinations out across that many worker
    processes under the sweep supervisor
    (:mod:`repro.sim.supervisor`); results are bit-identical to the
    serial sweep and come back in the same order.

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
    names = list(workload_names or SUITE)
    # Resolve every scheme through the registry up front: a typo'd name
    # fails here — with the list of registered schemes — not deep inside
    # a worker process mid-sweep.  Aliases canonicalize so serial and
    # parallel sweeps record identical ``SimResult.scheme`` strings.
    schemes = [scheme_registry.canonical_name(s) for s in schemes]
    page_modes = list(page_modes)

    owns_journal = journal is not None and not isinstance(journal, RunJournal)
    jnl: Optional[RunJournal] = (
        RunJournal.open(journal, base, resume=resume)
        if owns_journal
        else journal
    )
    try:
        # Guardrail (see resolve_jobs): a pool that cannot win falls
        # back to the serial loop, with the reason on stderr — small
        # grids and oversubscribed CPUs measured *slower* than serial.
        jobs, fallback_reason = resolve_jobs(
            jobs, len(names) * len(schemes) * len(page_modes), run_timeout
        )
        if fallback_reason is not None:
            print(
                f"repro: parallel sweep falling back to serial: "
                f"{fallback_reason}",
                file=sys.stderr,
            )
        cache = cache_for_config(base)
        stats_before = cache.stats() if cache is not None else None
        pending = _pending_workloads(names, schemes, page_modes, jnl)
        workloads_built = 0
        if jobs > 1 or run_timeout is not None:
            from repro.sim.supervisor import (
                SupervisorPolicy,
                run_specs_supervised,
            )

            policy = SupervisorPolicy(
                run_timeout=run_timeout,
                retries=2 if retries is None else retries,
            )
            specs = make_specs(names, schemes, page_modes, base)
            if cache is not None:
                # Fill the cache once, in the parent, before any worker
                # forks: workers then load each layout and memmap each
                # trace instead of building the same workload jobs
                # times.
                for name in pending:
                    workloads_built += _load_workload(name, base, cache)[1]
            results = run_specs_supervised(
                specs,
                jobs=jobs,
                on_error=on_error,
                verbose=verbose,
                journal=jnl,
                policy=policy,
            )
        else:
            workloads = {}
            for name in pending:
                workloads[name], was_built = _load_workload(name, base, cache)
                workloads_built += was_built
            results = _run_serial(
                names, schemes, page_modes, base, verbose, on_error, jnl,
                workloads,
            )
        if cache is not None:
            results.trace_cache = _cache_delta(
                cache, stats_before, workloads_built
            )
        return results
    finally:
        if owns_journal and jnl is not None:
            jnl.close()


def _pending_workloads(
    names: List[str],
    schemes: List[str],
    page_modes: List[bool],
    jnl: Optional[RunJournal],
) -> List[str]:
    """Workload names some non-journaled cell still needs, in sweep
    order: resuming an almost-finished sweep must not rebuild (or even
    touch traces for) fully-journaled names."""
    pending = []
    for name in names:
        for thp in page_modes:
            for scheme in schemes:
                if jnl is not None and (
                    jnl.result_for(name, scheme, thp) is not None
                    or jnl.failure_for(name, scheme, thp) is not None
                ):
                    continue
                if name not in pending:
                    pending.append(name)
    return pending


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
    try:
        built = build_workload(
            name, scale=base.footprint_scale, seed=base.workload_seed
        )
    except KeyError as exc:
        # A typo'd workload name is a configuration mistake, not a
        # crash: surface it as the CLI's one-line exit-code-2 path.
        raise ConfigError(exc.args[0] if exc.args else str(exc)) from exc
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


def _run_serial(
    names: List[str],
    schemes: List[str],
    page_modes: List[bool],
    base: SimConfig,
    verbose: bool,
    on_error: str,
    jnl: Optional[RunJournal],
    built: Dict[str, BuiltWorkload],
) -> ResultSet:
    """The in-process sweep loop, with optional journal checkpoints.
    ``built`` holds every workload a non-journaled cell needs."""
    cells = [
        (thp, name, scheme)
        for thp in page_modes
        for name in names
        for scheme in schemes
    ]
    results = ResultSet()
    try:
        for thp, name, scheme in cells:
            if jnl is not None:
                hit = jnl.result_for(name, scheme, thp)
                if hit is not None:
                    results.add(hit)
                    continue
                failure = jnl.failure_for(name, scheme, thp)
                if failure is not None:
                    if on_error == "raise":
                        raise ReproError(
                            f"journaled failure for {name}/{scheme}/"
                            f"thp={int(thp)}: {failure.error}: "
                            f"{failure.message}"
                        )
                    results.failures.append(failure)
                    continue
            cfg = base.clone(thp=thp)
            try:
                result = Simulator(scheme, built[name], cfg).run()
            except ReproError as exc:
                if on_error == "raise":
                    raise
                failure = RunFailure(
                    name, scheme, thp, type(exc).__name__, str(exc)
                )
                results.failures.append(failure)
                if jnl is not None:
                    jnl.record_failure(name, scheme, thp, failure)
                if verbose:
                    print(
                        f"  {name:6s} {scheme:7s} thp={int(thp)} "
                        f"FAILED: {type(exc).__name__}: {exc}"
                    )
                continue
            results.add(result)
            if jnl is not None:
                jnl.record_result(name, scheme, thp, result)
            if verbose:
                print(
                    f"  {name:6s} {scheme:7s} thp={int(thp)} "
                    f"cycles={result.cycles/1e6:8.2f}M "
                    f"mmu={result.mmu_cycles/1e6:6.2f}M "
                    f"traffic={result.walk_traffic:8d}"
                )
    except KeyboardInterrupt:
        if jnl is not None:
            # Completed cells are already durably journaled; hand the
            # CLI enough context for its "resume with ..." hint.
            raise SweepInterrupted(
                journal_path=jnl.path,
                completed=len(results.results) + len(results.failures),
                total=len(cells),
            ) from None
        raise
    return results


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
