"""Command-line interface: regenerate any paper artifact from a shell.

Usage (also via ``python -m repro``):

    python -m repro fig2                 # gap-coverage study
    python -m repro fig3                 # contiguity under fragmentation
    python -m repro fig9 --refs 50000    # end-to-end speedups
    python -m repro fig10|fig11|fig12    # MMU overhead / traffic / MPKI
    python -m repro tab1                 # architectural parameters
    python -m repro tab2                 # index sizes
    python -m repro collisions           # 7.3 collision study
    python -m repro scaling              # 7.3 memcached scaling
    python -m repro hardware             # 7.4 area/power
    python -m repro suite --refs 30000   # the full sweep, all metrics
    python -m repro chaos --refs 20000   # fault injection + recovery
    python -m repro schemes              # registered translation schemes
    python -m repro cache ls|gc          # inspect / empty the trace cache

Typed failures map to exit codes: 2 for configuration errors, 3 for
any other simulator error, 130 on interrupt.  ``--fail-fast`` makes
sweep commands abort on the first failing run instead of collecting
failures and finishing the remaining combinations.

Long sweeps are crash-safe: ``--journal PATH`` checkpoints every
completed cell, ``--resume`` replays the journal and re-runs only the
remainder (a journal from a different configuration is rejected with
exit 2), and ``--run-timeout``/``--retries`` bound hung or crashed
runs.  Ctrl-C drains in-flight runs, flushes the journal, prints a
resume hint, and exits 130.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import (
    collision_study,
    compare_default,
    gap_coverage_study,
    index_size_table,
    render_table,
    run_fleet_study,
    scaling_study,
)
from repro.errors import ConfigError, ReproError
from repro.faults import FaultKind, FaultPlan
from repro.schemes import BASELINE_SCHEME, registry as scheme_registry
from repro.sim import SCHEMES, SimConfig, default_jobs, mean, run_suite, table1_rows
from repro.workloads import SUITE


def _report_failures(results) -> None:
    for f in results.failures:
        print(
            f"repro: run failed: {f.workload}/{f.scheme}/thp={int(f.thp)}: "
            f"{f.error}: {f.message}",
            file=sys.stderr,
        )


def _scheme_selection(args):
    """Resolve ``--schemes`` through the registry, eagerly.

    A typo'd scheme raises :class:`~repro.errors.UnknownSchemeError`
    (a ConfigError, exit code 2) naming the registered schemes — before
    any simulation state or worker process exists.
    """
    if not getattr(args, "schemes", None):
        return list(SCHEMES)
    return [
        scheme_registry.canonical_name(s)
        for s in args.schemes.split(",")
    ]


def _report_trace_cache(results) -> None:
    """One deterministic stderr line of trace-cache counters (CI greps
    it to prove a warm second run re-synthesized and rebuilt nothing)."""
    stats = getattr(results, "trace_cache", None)
    if stats is not None:
        print(
            f"repro: trace cache: hits={stats['hits']} "
            f"builds={stats['builds']} rebuilds={stats['invalidated']} "
            f"workloads_built={stats['workloads_built']} "
            f"dir={stats['root']}",
            file=sys.stderr,
        )


def _suite_results(args):
    config = SimConfig(
        num_refs=args.refs,
        use_trace_cache=not args.no_trace_cache,
        trace_cache_dir=args.trace_cache_dir,
    )
    config.validate()  # reject bad --refs etc. before the sweep starts
    names = args.workloads.split(",") if args.workloads else None
    schemes = _scheme_selection(args)
    jobs = args.jobs
    print(f"running sweep: {names or SUITE} x {tuple(schemes)} "
          f"x (4KB, THP), {args.refs} refs each"
          + (f", {jobs} worker processes" if jobs > 1 else "")
          + (f", journal={args.journal}" if args.journal else "")
          + (" (resuming)" if args.resume else "")
          + "...", file=sys.stderr)
    results = run_suite(
        workload_names=names, schemes=schemes, config=config,
        verbose=args.verbose,
        on_error="raise" if args.fail_fast else "collect",
        jobs=jobs,
        journal=args.journal, resume=args.resume,
        run_timeout=args.run_timeout, retries=args.retries,
    )
    _report_failures(results)
    _report_trace_cache(results)
    return results


def cmd_fig2(args) -> None:
    rows = gap_coverage_study()
    by_workload = {}
    for row in rows:
        by_workload.setdefault(row.workload, {})[row.allocator] = row.coverage
    print(render_table(
        ["workload", "jemalloc", "tcmalloc"],
        [(n, c.get("jemalloc", 0), c.get("tcmalloc", 0))
         for n, c in by_workload.items()],
        title="Figure 2 — gap=1 coverage",
    ))


def cmd_fig3(args) -> None:
    profile = run_fleet_study(num_servers=5, mem_bytes=1 << 30)
    print(render_table(
        ["block size", "fraction of free memory"],
        [(f"{s >> 10}KB", f) for s, f in profile.rows()],
        title="Figure 3 — contiguously-allocatable free memory",
    ))


def _speedup_tables(results) -> None:
    schemes = [s for s in results.schemes() if s != BASELINE_SCHEME]
    for thp in (False, True):
        label = "THP" if thp else "4KB"
        rows = []
        for w in results.workloads():
            rows.append(
                (w,) + tuple(results.speedup(w, s, thp) for s in schemes)
            )
        print(render_table(
            ["workload"] + schemes, rows,
            title=f"Figure 9 — speedup over {BASELINE_SCHEME} ({label})",
        ))
        print("averages: " + " ".join(
            f"{s}={mean(r[i + 1] for r in rows):.3f}"
            for i, s in enumerate(schemes)
        ) + "\n")


def cmd_fig9(args) -> None:
    _speedup_tables(_suite_results(args))


def _relative_tables(results, metric: str, title: str, **kw) -> None:
    schemes = [
        s for s in results.schemes() if s not in (BASELINE_SCHEME, "ideal")
    ]
    for thp in (False, True):
        label = "THP" if thp else "4KB"
        rows = []
        for w in results.workloads():
            fn = getattr(results, metric)
            rows.append(
                (w,) + tuple(fn(w, s, thp, **kw) for s in schemes)
            )
        print(render_table(
            ["workload"] + schemes, rows, title=f"{title} ({label})"
        ))
        print()


def cmd_fig10(args) -> None:
    _relative_tables(
        _suite_results(args), "mmu_overhead_relative",
        "Figure 10 — MMU overhead relative to radix",
    )


def cmd_fig11(args) -> None:
    _relative_tables(
        _suite_results(args), "walk_traffic_relative",
        "Figure 11 — page-walk traffic relative to radix",
    )


def cmd_fig12(args) -> None:
    results = _suite_results(args)
    schemes = [
        s for s in results.schemes() if s not in (BASELINE_SCHEME, "ideal")
    ]
    rows = []
    for w in results.workloads():
        rows.append(
            (w,)
            + tuple(results.mpki_relative(w, s, False, "l2") for s in schemes)
            + tuple(results.mpki_relative(w, s, False, "l3") for s in schemes)
        )
    headers = (
        ["workload"]
        + [f"{s} L2" for s in schemes]
        + [f"{s} L3" for s in schemes]
    )
    print(render_table(
        headers, rows,
        title=f"Figure 12 — MPKI relative to {BASELINE_SCHEME} (4KB)",
    ))


def cmd_tab1(args) -> None:
    print(render_table(["parameter", "value"], table1_rows(), title="Table 1"))


def cmd_tab2(args) -> None:
    names = args.workloads.split(",") if args.workloads else list(SUITE)
    table = index_size_table(names)
    print(render_table(
        ["workload", "LVM 4KB (bytes)", "LVM THP (bytes)"],
        [(n, c["4KB"], c["THP"]) for n, c in table.items()],
        title="Table 2 — steady-state index size",
    ))


def cmd_collisions(args) -> None:
    names = (args.workloads.split(",") if args.workloads
             else ["bfs", "dc", "gups", "mem$", "MUMr"])
    rows = [collision_study(n, num_lookups=args.refs) for n in names]
    print(render_table(
        ["workload", "LVM", "Blake2 table", "extra acc/collision"],
        [(r.workload, r.lvm_collision_rate, r.hash_collision_rate,
          r.lvm_avg_extra_accesses) for r in rows],
        title="Section 7.3 — collision rates (4KB)",
    ))


def cmd_scaling(args) -> None:
    sizes = scaling_study()
    print(render_table(
        ["memcached footprint", "LVM index (bytes)"],
        [(f"{gb}GB", size) for gb, size in sizes.items()],
        title="Section 7.3 — index size vs footprint",
    ))


def cmd_hardware(args) -> None:
    cmp = compare_default()
    print(render_table(
        ["structure", "payload bytes", "area (mm^2)", "leakage (mW)"],
        [
            ("LVM LWC", cmp.lwc.payload_bytes, f"{cmp.lwc.area_mm2:.5f}",
             f"{cmp.lwc.leakage_mw:.3f}"),
            ("Radix PWC", cmp.pwc.payload_bytes, f"{cmp.pwc.area_mm2:.5f}",
             f"{cmp.pwc.leakage_mw:.3f}"),
        ],
        title="Section 7.4 — hardware structures",
    ))
    print(f"ratios (radix/LVM): bytes={cmp.bytes_ratio:.2f} "
          f"area={cmp.area_ratio:.2f} power={cmp.power_ratio:.2f}")


def cmd_schemes(args) -> None:
    """List the registered translation schemes and their capabilities."""
    rows = []
    for d in scheme_registry.descriptors():
        rows.append((
            d.name,
            ",".join(d.aliases) if d.aliases else "-",
            "core" if d.core else "extended",
            "yes" if d.supports_thp else "no",
            d.walk_cache_kind,
            "yes" if d.supports_virtualization else "no",
            d.description,
        ))
    print(render_table(
        ["scheme", "aliases", "tier", "THP", "walk cache", "virt",
         "description"],
        rows,
        title="Registered translation schemes",
    ))


def cmd_suite(args) -> None:
    results = _suite_results(args)
    _speedup_tables(results)
    _relative_tables(results, "mmu_overhead_relative", "Figure 10 — MMU overhead")
    _relative_tables(results, "walk_traffic_relative", "Figure 11 — walk traffic")


def cmd_chaos(args) -> None:
    """Inject each fault class into the LVM path; report recovery."""
    names = args.workloads.split(",") if args.workloads else ["gups", "bfs"]
    print(
        f"running chaos sweep: {names} x {[k.value for k in FaultKind]} "
        f"at rate {args.fault_rate}, {args.refs} refs each...",
        file=sys.stderr,
    )
    rows = []
    for kind in FaultKind:
        plan = FaultPlan.single(kind, rate=args.fault_rate, seed=args.fault_seed)
        config = SimConfig(
            num_refs=args.refs, faults=plan, verify_translations=True,
            use_trace_cache=not args.no_trace_cache,
            trace_cache_dir=args.trace_cache_dir,
        )
        config.validate()
        results = run_suite(
            workload_names=names, schemes=("lvm",), page_modes=(False,),
            config=config, verbose=args.verbose,
            on_error="raise" if args.fail_fast else "collect",
            jobs=args.jobs,
            run_timeout=args.run_timeout, retries=args.retries,
        )
        _report_failures(results)
        for r in results.results:
            rows.append((
                r.workload, kind.value, r.faults_injected, r.recoveries,
                r.recovery_cycles, r.poison_detections,
                r.incorrect_translations,
            ))
    print(render_table(
        ["workload", "fault class", "injected", "recoveries",
         "recovery cycles", "poison detections", "incorrect"],
        rows,
        title=f"Chaos — graceful degradation (rate={args.fault_rate}, "
              f"seed={args.fault_seed})",
    ))
    if any(r[-1] for r in rows):
        raise ReproError("chaos run produced incorrect translations")


def cmd_cache(args) -> None:
    """Inspect (``ls``, the default) or empty (``gc``) the
    content-addressed trace cache."""
    from repro.workloads.trace_cache import get_cache

    cache = get_cache(args.trace_cache_dir)
    action = args.subcommand or "ls"
    if action == "ls":
        rows = [
            (
                e["digest"][:12],
                e["workload"],
                e["num_refs"],
                e["trace_seed"],
                e["scale"],
                f"v{e['generator_version']}",
                f"{e['nbytes'] / 1024:.1f}KB",
            )
            for e in cache.entries()
        ]
        print(render_table(
            ["entry", "workload", "refs", "seed", "scale", "gen", "size"],
            rows,
            title=f"Trace cache — {cache.root} ({len(rows)} entries)",
        ))
    elif action == "gc":
        stats = cache.gc()
        print(
            f"trace cache gc: removed {stats['entries']} entries, "
            f"reclaimed {stats['bytes'] / 1024:.1f}KB from {cache.root}"
        )
    else:
        raise ConfigError(
            f"unknown cache action {action!r}; choose 'ls' or 'gc'"
        )


def _chaos_plan_from_args(args) -> dict:
    """The default ``--chaos`` plan for the serving layer: translation
    -path corruption at ``--fault-rate`` on every tenant that does not
    bring its own plan.  (Allocation faults are left to explicit
    per-tenant plans — at server scale they would quarantine every
    tenant, which is a different experiment.)"""
    return {
        "seed": args.fault_seed,
        "pte_bitflip_rate": args.fault_rate,
        "model_perturb_rate": args.fault_rate,
    }


def cmd_serve(args) -> None:
    """Run the translation server until interrupted (Ctrl-C or
    SIGTERM)."""
    import asyncio
    import signal

    from repro.serve.server import ServePolicy, TranslationServer

    policy = ServePolicy(
        num_shards=args.shards,
        max_global_inflight=args.max_inflight,
        max_tenant_inflight=args.max_tenant_inflight,
        chaos_plan=_chaos_plan_from_args(args) if args.chaos else None,
    )
    server = TranslationServer(args.socket, args.state_dir, policy)
    print(
        f"repro serve: listening on {args.socket}, {args.shards} shard(s), "
        f"journals in {args.state_dir}"
        + (" [chaos]" if args.chaos else ""),
        file=sys.stderr,
    )

    async def serve() -> None:
        # SIGTERM cancels the serve loop as Ctrl-C does, so that
        # ``close()`` runs: the shards get ``shutdown`` and the tenant
        # journals their closing fsync.
        task = asyncio.current_task()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, task.cancel)
        await server.serve_forever()

    asyncio.run(serve())


COMMANDS = {
    "cache": cmd_cache,
    "serve": cmd_serve,
    "chaos": cmd_chaos,
    "fig2": cmd_fig2,
    "fig3": cmd_fig3,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
    "fig11": cmd_fig11,
    "fig12": cmd_fig12,
    "tab1": cmd_tab1,
    "tab2": cmd_tab2,
    "collisions": cmd_collisions,
    "scaling": cmd_scaling,
    "hardware": cmd_hardware,
    "schemes": cmd_schemes,
    "suite": cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables and figures of the LVM paper.",
    )
    parser.add_argument(
        "command", choices=sorted(COMMANDS), help="artifact to regenerate"
    )
    parser.add_argument(
        "subcommand", nargs="?", default=None,
        help="action for the cache command: 'ls' (default) or 'gc'",
    )
    parser.add_argument(
        "--refs", type=int, default=30_000,
        help="trace references per simulation run (default 30000)",
    )
    parser.add_argument(
        "--workloads", default=None,
        help="comma-separated workload subset (default: the full suite)",
    )
    parser.add_argument(
        "--schemes", default=None,
        help="comma-separated scheme subset for sweep commands (default: "
             "the core set; see 'repro schemes' for everything registered; "
             "unknown names are rejected before the sweep starts)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=default_jobs(),
        help="worker processes for sweep commands; 1 = in-process serial "
             "run (default: $REPRO_JOBS or 1); results are bit-identical "
             "at any job count",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort sweep commands on the first failing run instead of "
             "collecting failures and finishing the sweep",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="checkpoint every completed sweep cell to this append-only "
             "JSONL journal; an interrupted sweep can then be resumed "
             "with --resume without losing finished cells",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay completed cells from --journal and re-run only the "
             "remainder (bit-identical to an uninterrupted sweep); a "
             "journal from a different configuration is rejected (exit 2)",
    )
    parser.add_argument(
        "--run-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per simulation run; a run exceeding it "
             "is killed and retried (see --retries)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts for runs that hang or whose worker crashes "
             "(default 2); a run failing every attempt is quarantined "
             "as a structured failure, never silently dropped",
    )
    parser.add_argument(
        "--no-trace-cache", action="store_true",
        help="disable the content-addressed trace cache for this sweep "
             "(traces are still compiled in memory; results are "
             "bit-identical either way)",
    )
    parser.add_argument(
        "--trace-cache-dir", default=None, metavar="DIR",
        help="trace cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro/traces); also the target of the cache "
             "ls/gc command",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=1e-3,
        help="per-opportunity fault rate for the chaos command (default 1e-3)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="fault-injection seed for the chaos command (default 0)",
    )
    parser.add_argument(
        "--socket", default="repro-serve.sock", metavar="PATH",
        help="unix socket path for the serve command "
             "(default repro-serve.sock)",
    )
    parser.add_argument(
        "--state-dir", default="serve-state", metavar="DIR",
        help="per-tenant journal directory for the serve command; a "
             "restarted server replays it to reconstruct tenants "
             "(default serve-state)",
    )
    parser.add_argument(
        "--shards", type=int, default=2,
        help="worker processes hosting tenant shards (default 2)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="global in-flight request bound before the server sheds "
             "with ServerOverloadedError (default 64)",
    )
    parser.add_argument(
        "--max-tenant-inflight", type=int, default=16,
        help="per-tenant in-flight bound (default 16)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="serve with fault injection armed on every tenant that "
             "does not bring its own plan (--fault-rate/--fault-seed); "
             "a tenant corrupted past the recovery ladder is "
             "quarantined, others are unaffected",
    )
    parser.add_argument("--verbose", action="store_true")
    return parser


def _validate_args(args) -> None:
    """Cross-flag checks argparse cannot express; every violation is a
    :class:`ConfigError`, i.e. exit code 2."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if args.run_timeout is not None and args.run_timeout <= 0:
        raise ConfigError(
            f"--run-timeout must be positive, got {args.run_timeout}"
        )
    if args.retries is not None and args.retries < 0:
        raise ConfigError(f"--retries must be >= 0, got {args.retries}")
    if args.resume and not args.journal:
        raise ConfigError("--resume requires --journal PATH")
    if args.shards < 1:
        raise ConfigError(f"--shards must be >= 1, got {args.shards}")
    if args.max_inflight < 1 or args.max_tenant_inflight < 1:
        raise ConfigError("in-flight bounds must be >= 1")
    if args.subcommand is not None and args.command != "cache":
        raise ConfigError(
            f"{args.command!r} takes no subcommand, got {args.subcommand!r}"
        )
    if args.command == "cache" and args.subcommand not in (None, "ls", "gc"):
        raise ConfigError(
            f"unknown cache action {args.subcommand!r}; choose 'ls' or 'gc'"
        )


def main(argv: Optional[List[str]] = None) -> int:
    try:
        # Parsing sits inside the try: building the parser evaluates
        # default_jobs(), so a malformed REPRO_JOBS is reported as the
        # configuration error it is, not a traceback.
        args = build_parser().parse_args(argv)
        _validate_args(args)
        COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"repro: configuration error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt as exc:
        # SweepInterrupted (a KeyboardInterrupt subclass) arrives here
        # after the supervisor drained in-flight runs and flushed the
        # journal; plain Ctrl-C outside a journaled sweep stays terse.
        print("repro: interrupted", file=sys.stderr)
        journal_path = getattr(exc, "journal_path", None)
        if journal_path:
            print(
                f"repro: {exc.completed}/{exc.total} cells journaled in "
                f"{journal_path}; resume with: "
                "the same command plus --resume",
                file=sys.stderr,
            )
        return 130
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
