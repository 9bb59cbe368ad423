"""The sweep executor: every ``run_suite`` cell runs through here.

``run_suite`` describes its grid as picklable :class:`RunSpec` values
(live simulators — page tables, walkers, trace closures — do not
pickle) and hands them, with one module-level cell function, to a
:class:`SweepSupervisor`.  The supervisor replays journal hits, then
runs the pending cells one of two ways:

* **In this process**, in spec order, when ``jobs == 1`` and there is
  no ``run_timeout``: no pool and no signal handlers.  A Ctrl-C stops
  the sweep mid-cell; with a journal attached it is raised as
  :class:`~repro.errors.SweepInterrupted`.
* **In a process pool** otherwise, under a host-level reliability
  layer — a bare pool lets a hung worker stall the sweep forever, a
  killed worker poison every pending future with
  ``BrokenProcessPool``, and a Ctrl-C discard all completed cells.

Rules both ways share, in order of importance:

* **Bit-identical results.**  Every cell runs the same cell function
  on the same spec; every RNG in the pipeline is seeded, so a cell's
  :class:`SimResult` does not depend on where it ran.
* **Deterministic order.**  Outcomes are folded in spec order, not
  completion order.
* **One error rule.**  A :class:`ReproError` from a cell is a
  *simulated* failure: deterministic, journaled, never retried, and
  either raised (``on_error="raise"``, after it is journaled) or
  recorded in ``ResultSet.failures`` (``"collect"``).  Any other
  exception is a bug and propagates.
* **Journal integration.**  With a :class:`~repro.sim.journal.RunJournal`
  attached, journal hits are replayed before any cell runs (a
  journaled failure under ``on_error="raise"`` raises right there),
  and every completed cell is checkpointed as it finishes — a resumed
  sweep is bit-identical to an uninterrupted one.

The pool adds:

* **Deadlines in the parent.**  Each attempt gets a wall-clock
  deadline checked from the parent's wait loop (no SIGALRM, no signals
  into workers — a worker stuck in C code cannot be trusted to time
  itself out).  An expired attempt counts as a host-level failure; the
  hung worker is killed with the rest of its pool and the pool is
  respawned.
* **Bounded retry with exponential backoff.**  Host-level failures
  (timeout, worker crash) retry up to ``retries`` extra attempts with
  ``BACKOFF_BASE_S * BACKOFF_FACTOR**(attempt-1)`` delay, capped at
  ``BACKOFF_MAX_S``.
* **Quarantine, not silence.**  A spec that exhausts its retry budget
  is recorded as a structured
  :class:`~repro.errors.SpecQuarantinedError` in
  ``ResultSet.failures`` (or raised, under ``on_error="raise"``) with
  its attempt count — never dropped.
* **Pool respawn.**  ``BrokenProcessPool`` marks every in-flight spec
  as a crashed attempt (the culprit cannot be identified from the
  parent, so all of them were "possibly it"), kills the pool, and
  respawns it; specs queued behind the crash re-run untouched.
* **Graceful shutdown.**  SIGINT/SIGTERM stop new submissions, drain
  the in-flight futures (workers ignore SIGINT, so Ctrl-C in a
  terminal does not kill them mid-cell), flush the journal, and raise
  :class:`~repro.errors.SweepInterrupted` — a ``KeyboardInterrupt``
  subclass carrying the journal path, which the CLI turns into an
  exit-130 "resume with ..." hint.  A second signal aborts
  immediately.  A worker itself dies on SIGTERM
  (:func:`install_worker_signals`); its cell is retried as a crash.

``run_suite`` loads every workload the pending cells need
(:meth:`SweepSupervisor.pending_workloads`) into one per-sweep memo
before the first cell runs; forked pool workers inherit it.

State machine per spec (see ``docs/INTERNALS.md`` §11)::

    JOURNAL-HIT ──────────────────────────────────────────▶ DONE
    PENDING ─▶ RUNNING ─▶ ok / simulated failure ─────────▶ DONE
                 │ timeout / worker crash (pool only)
                 ▼
              BACKOFF ─▶ RUNNING (attempt+1) ...
                 │ attempts exhausted
                 ▼
            QUARANTINED ──────────────────────────────────▶ DONE
"""

from __future__ import annotations

import faulthandler
import heapq
import importlib
import os
import signal
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from time import monotonic, sleep
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import (
    ConfigError,
    ReproError,
    SpecQuarantinedError,
    SpecTimeoutError,
    SweepInterrupted,
    WorkerCrashError,
)
from repro.schemes import registry as scheme_registry
from repro.sim.config import SimConfig
from repro.sim.journal import RunJournal
from repro.sim.results import ResultSet, RunFailure, SimResult
from repro.workloads.registry import PRODUCTION_WORKLOADS, SUITE, WORKLOADS

__all__ = [
    "RunSpec",
    "SupervisorPolicy",
    "SweepSupervisor",
    "default_jobs",
    "install_worker_signals",
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
    """One (workload, scheme, thp) cell, described by values that pickle.

    ``config`` is the sweep's *base* config; the cell function clones
    it with ``thp`` applied, so a spec stays a pure description.

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
    """Worker count from ``REPRO_JOBS`` (default 1 = in-process),
    capped at ``os.cpu_count()``.

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
    """Spec list in sweep order (thp, name, scheme).

    Unknown workload *and* scheme names are rejected here, before any
    cell runs: workloads with a :class:`ConfigError` listing the known
    names, schemes with :class:`~repro.errors.UnknownSchemeError`
    listing ``registry.available()``.  Scheme aliases canonicalize, so
    every sweep records the same ``SimResult.scheme`` strings.
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


def install_worker_signals() -> None:
    """Signal discipline of every worker process (sweep pool workers
    and serve shards).

    * ``SIGINT`` is ignored: a terminal Ctrl-C goes to the whole
      process group, and whether to drain or abort — hence the order in
      which journals close — stays the parent's decision.
    * ``SIGTERM`` gets its default action back: a fork copies the
      parent's handler (the supervisor's drain request, the serve
      front end's loop cancel), which would leave a worker deaf to
      SIGTERM.
    * ``SIGUSR1`` dumps every thread's stack to stderr via
      :mod:`faulthandler` — the parent sends it before killing a
      worker that blew its deadline, so a hang leaves a post-mortem
      trace instead of a silent kill.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        faulthandler.register(signal.SIGUSR1, chain=False)
    except (AttributeError, ValueError, OSError):
        pass  # no SIGUSR1 (non-POSIX) or no faulthandler support


def _attempt(cell: Callable[[RunSpec], SimResult], spec: RunSpec) -> tuple:
    """One attempt at one cell: ("ok", SimResult) or ("error",
    ReproError).  A simulated failure comes back as a value, so it never
    crashes the pool; other exceptions escape on purpose (bugs)."""
    if not scheme_registry.is_registered(spec.scheme) and spec.scheme_module:
        # A ``spawn`` worker starts with only the built-in registry; a
        # custom scheme re-registers by importing its provider module.
        importlib.import_module(spec.scheme_module)
    try:
        return "ok", cell(spec)
    except ReproError as exc:
        return "error", exc


#: Retry delays after a host-level failure: the first retry waits
#: ``BACKOFF_BASE_S``, each later one ``BACKOFF_FACTOR`` times longer, up
#: to ``BACKOFF_MAX_S``.
BACKOFF_BASE_S = 0.25
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 5.0


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout policy for host-level failures.

    ``run_timeout`` is per *attempt*, in wall-clock seconds, measured
    from submission (the supervisor keeps at most ``jobs`` specs in
    flight, so submission and start coincide); ``None`` disables
    deadlines.  ``retries`` counts extra attempts after the first.
    A bad value is rejected when the policy is made.
    """

    run_timeout: Optional[float] = None
    retries: int = 2

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ConfigError(
                f"run_timeout must be positive, got {self.run_timeout!r}"
            )
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries!r}")

    @staticmethod
    def backoff(attempt: int) -> float:
        """Delay before the attempt *after* failed attempt ``attempt``."""
        return min(BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1), BACKOFF_MAX_S)

    @property
    def max_attempts(self) -> int:
        return 1 + self.retries


@dataclass
class _Inflight:
    """Bookkeeping for one submitted attempt."""

    idx: int
    attempt: int  # 1-based
    deadline: Optional[float]


class SweepSupervisor:
    """Drives one spec list to completion; see the module docstring.

    ``cell`` runs one spec and returns its :class:`SimResult`; it must
    be a module-level function so a pool can pickle it by name.
    Journal hits are replayed here, so :meth:`pending_workloads` is
    known before :meth:`run`.  ``jobs`` and ``on_error`` are the
    caller's to check (``run_suite`` does).
    """

    def __init__(
        self,
        specs: Sequence[RunSpec],
        cell: Callable[[RunSpec], SimResult],
        jobs: int = 1,
        on_error: str = "raise",
        verbose: bool = False,
        journal: Optional[RunJournal] = None,
        policy: Optional[SupervisorPolicy] = None,
    ):
        self.specs = list(specs)
        self.cell = cell
        self.jobs = jobs
        self.on_error = on_error
        self.verbose = verbose
        self.journal = journal
        self.policy = policy or SupervisorPolicy()
        # One slot per spec: None until the spec reaches DONE, then
        # ("ok", SimResult) / ("error", exception) / ("failure", RunFailure).
        self._outcomes: List[Optional[tuple]] = [None] * len(self.specs)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pending: Dict[object, _Inflight] = {}
        # (idx, attempt) runnable now / (ready_time, idx, attempt) heap
        # of backoff retries not runnable before ready_time.
        self._ready: deque = deque()
        self._delayed: List[tuple] = []
        self._stop_signals = 0
        self._replay_journal_hits()

    # -- public entry --------------------------------------------------

    def pending_workloads(self) -> List[str]:
        """Workload names the cells still to run need, in spec order —
        a resumed sweep loads nothing for fully journaled names."""
        return list(dict.fromkeys(
            spec.workload
            for spec, slot in zip(self.specs, self._outcomes)
            if slot is None
        ))

    def run(self) -> ResultSet:
        """Run the pending cells — here at one job without a deadline,
        in a pool otherwise — and fold every outcome in spec order."""
        pending = [idx for idx, slot in enumerate(self._outcomes) if slot is None]
        if self.jobs == 1 and self.policy.run_timeout is None:
            self._run_in_process(pending)
        else:
            self._run_pool(pending)
        return self._fold()

    def _interrupted(self) -> SweepInterrupted:
        return SweepInterrupted(
            journal_path=self.journal.path if self.journal else None,
            completed=sum(1 for slot in self._outcomes if slot is not None),
            total=len(self.specs),
        )

    def _run_in_process(self, pending: List[int]) -> None:
        """Cells in spec order, here: nothing to kill or drain, so no
        pool and no signal handlers.  Completed cells are journaled as
        they finish, so a Ctrl-C with a journal attached becomes the
        CLI's resumable SweepInterrupted."""
        try:
            for idx in pending:
                self._complete(idx, *_attempt(self.cell, self.specs[idx]))
        except KeyboardInterrupt:
            if self.journal is None:
                raise
            raise self._interrupted() from None

    def _run_pool(self, pending: List[int]) -> None:
        self._ready = deque((idx, 1) for idx in pending)
        restore = self._install_signal_handlers()
        try:
            if self._ready:
                self._pool = self._make_pool()
            while self._ready or self._delayed or self._pending:
                if self._stop_signals:
                    self._ready.clear()
                    self._delayed.clear()
                    if self._stop_signals > 1 and self._pending:
                        # Second signal: stop draining, abort now.
                        self._pending.clear()
                        self._kill_pool()
                        break
                    if not self._pending:
                        break
                now = monotonic()
                while self._delayed and self._delayed[0][0] <= now:
                    _, idx, attempt = heapq.heappop(self._delayed)
                    self._ready.append((idx, attempt))
                while self._ready and len(self._pending) < self.jobs:
                    idx, attempt = self._ready.popleft()
                    self._submit(idx, attempt)
                if not self._pending:
                    if self._delayed:
                        sleep(max(0.0, self._delayed[0][0] - monotonic()))
                    continue
                self._reap(self._wait_timeout())
            if self._stop_signals:
                raise self._interrupted()
        except BaseException:
            # Exceptional exit (quarantine under on_error="raise", a
            # simulated failure propagating, SweepInterrupted): workers
            # may be mid-cell or outright hung — kill the pool rather
            # than let _shutdown() join a worker that never returns.
            self._kill_pool()
            raise
        finally:
            restore()
            self._shutdown()

    # -- pool lifecycle ------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, initializer=install_worker_signals
        )

    def _kill_pool(self) -> None:
        """Terminate every worker and discard the executor.  Private
        ``_processes`` is the only handle ProcessPoolExecutor exposes;
        guard it so a stdlib change degrades to a plain shutdown."""
        if self._pool is None:
            return
        for proc in list((getattr(self._pool, "_processes", None) or {}).values()):
            try:
                proc.kill()
            except OSError:
                pass
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def _dump_worker_stacks(self) -> None:
        """Best-effort SIGUSR1 to every pool worker (each registered a
        faulthandler dump at init) plus a short grace so the tracebacks
        reach stderr before the kill.  A worker wedged in C code or
        already gone simply produces no dump."""
        if self._pool is None or not hasattr(signal, "SIGUSR1"):
            return
        procs = list((getattr(self._pool, "_processes", None) or {}).values())
        signalled = False
        for proc in procs:
            if proc.pid is None:
                continue
            try:
                os.kill(proc.pid, signal.SIGUSR1)
                signalled = True
            except OSError:
                pass
        if signalled:
            sleep(0.05)

    def _respawn(self) -> None:
        """Kill the (hung or broken) pool and start a fresh one.
        In-flight specs that were not themselves charged with a failure
        re-run at their *same* attempt number — they were innocent
        passengers of the respawn."""
        for inflight in self._pending.values():
            self._ready.append((inflight.idx, inflight.attempt))
        self._pending.clear()
        self._kill_pool()
        self._pool = self._make_pool()

    def _shutdown(self) -> None:
        """Final teardown: join workers so the interpreter exits clean.
        (``wait=False`` here would leave the executor's atexit hook
        poking a dead pipe.)  Pending futures are cancelled; anything
        still *running* finishes its cell first — by this point that is
        either nothing (clean completion) or the drain the user asked
        for with Ctrl-C."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- the wait loop -------------------------------------------------

    def _submit(self, idx: int, attempt: int) -> None:
        deadline = (
            monotonic() + self.policy.run_timeout
            if self.policy.run_timeout is not None
            else None
        )
        future = self._pool.submit(_attempt, self.cell, self.specs[idx])
        self._pending[future] = _Inflight(idx, attempt, deadline)

    def _wait_timeout(self) -> Optional[float]:
        """How long ``wait()`` may block: until the nearest deadline or
        the nearest backoff expiry, whichever comes first."""
        horizons = [
            inflight.deadline
            for inflight in self._pending.values()
            if inflight.deadline is not None
        ]
        if self._delayed:
            horizons.append(self._delayed[0][0])
        if not horizons:
            return None
        return max(0.05, min(horizons) - monotonic())

    def _reap(self, timeout: Optional[float]) -> None:
        done, _ = wait(
            list(self._pending), timeout=timeout, return_when=FIRST_COMPLETED
        )
        broken = False
        for future in done:
            inflight = self._pending.pop(future)
            try:
                status, payload = future.result()
            except BrokenProcessPool:
                broken = True
                self._host_failure(
                    inflight,
                    WorkerCrashError(
                        f"worker process died during attempt "
                        f"{inflight.attempt} of {self._key(inflight.idx)}"
                    ),
                )
                continue
            self._complete(inflight.idx, status, payload)
        if broken:
            self._respawn()
            return
        now = monotonic()
        expired = [
            (future, inflight)
            for future, inflight in self._pending.items()
            if inflight.deadline is not None and inflight.deadline <= now
        ]
        if expired:
            for future, inflight in expired:
                del self._pending[future]
                self._host_failure(
                    inflight,
                    SpecTimeoutError(
                        f"attempt {inflight.attempt} of "
                        f"{self._key(inflight.idx)} exceeded the "
                        f"{self.policy.run_timeout}s run timeout"
                    ),
                )
            # The expired attempts are still burning CPU inside the
            # pool; the only way to reclaim those workers is to kill
            # the pool and respawn it for the survivors.  Ask each for
            # a stack dump first — the kill destroys the evidence.
            self._dump_worker_stacks()
            self._respawn()

    # -- outcome handling ----------------------------------------------

    def _key(self, idx: int) -> str:
        spec = self.specs[idx]
        return f"{spec.workload}/{spec.scheme}/thp={int(spec.thp)}"

    def _complete(self, idx: int, status: str, payload) -> None:
        """A cell returned: either a result or a *simulated* failure
        (deterministic — journaled and never retried)."""
        spec = self.specs[idx]
        self._outcomes[idx] = (status, payload)
        if self.journal is not None:
            if status == "ok":
                self.journal.record_result(
                    spec.workload, spec.scheme, spec.thp, payload
                )
            else:
                self.journal.record_failure(
                    spec.workload,
                    spec.scheme,
                    spec.thp,
                    RunFailure(
                        spec.workload,
                        spec.scheme,
                        spec.thp,
                        type(payload).__name__,
                        str(payload),
                    ),
                )
        if status == "error" and self.on_error == "raise":
            raise payload
        if self.verbose:
            if status == "ok":
                print(
                    f"  {spec.workload:6s} {spec.scheme:7s} "
                    f"thp={int(spec.thp)} "
                    f"cycles={payload.cycles/1e6:8.2f}M "
                    f"mmu={payload.mmu_cycles/1e6:6.2f}M "
                    f"traffic={payload.walk_traffic:8d}"
                )
            else:
                print(
                    f"  {spec.workload:6s} {spec.scheme:7s} "
                    f"thp={int(spec.thp)} "
                    f"FAILED: {type(payload).__name__}: {payload}"
                )

    def _host_failure(self, inflight: _Inflight, exc: Exception) -> None:
        """A timeout or crash: retry with backoff, or quarantine."""
        if inflight.attempt >= self.policy.max_attempts:
            quarantined = SpecQuarantinedError(
                f"{self._key(inflight.idx)} quarantined after "
                f"{inflight.attempt} attempts; last failure: "
                f"{type(exc).__name__}: {exc}"
            )
            if self.on_error == "raise":
                raise quarantined
            self._outcomes[inflight.idx] = ("error", quarantined)
            if self.verbose:
                spec = self.specs[inflight.idx]
                print(
                    f"  {spec.workload:6s} {spec.scheme:7s} "
                    f"thp={int(spec.thp)} QUARANTINED: {quarantined}"
                )
            return
        delay = self.policy.backoff(inflight.attempt)
        if self.verbose:
            print(
                f"  retrying {self._key(inflight.idx)} in {delay:.2f}s "
                f"(attempt {inflight.attempt + 1}/"
                f"{self.policy.max_attempts}): {type(exc).__name__}: {exc}"
            )
        heapq.heappush(
            self._delayed,
            (monotonic() + delay, inflight.idx, inflight.attempt + 1),
        )

    # -- journal replay and folding ------------------------------------

    def _replay_journal_hits(self) -> None:
        if self.journal is None:
            return
        for idx, spec in enumerate(self.specs):
            hit = self.journal.result_for(spec.workload, spec.scheme, spec.thp)
            if hit is not None:
                self._outcomes[idx] = ("ok", hit)
                continue
            failure = self.journal.failure_for(
                spec.workload, spec.scheme, spec.thp
            )
            if failure is not None:
                if self.on_error == "raise":
                    raise ReproError(
                        f"journaled failure for {self._key(idx)}: "
                        f"{failure.error}: {failure.message}"
                    )
                self._outcomes[idx] = ("failure", failure)

    def _fold(self) -> ResultSet:
        """Outcomes → ResultSet in spec order, wherever each cell ran."""
        results = ResultSet()
        for spec, outcome in zip(self.specs, self._outcomes):
            status, payload = outcome
            if status == "ok":
                results.add(payload)
            elif status == "failure":
                results.failures.append(payload)
            else:
                results.add_failure(
                    spec.workload, spec.scheme, spec.thp, payload
                )
        return results

    # -- signals -------------------------------------------------------

    def _install_signal_handlers(self):
        """SIGINT/SIGTERM → drain; only possible from the main thread
        (signal.signal raises elsewhere, e.g. under a threaded caller,
        in which case Ctrl-C keeps its default behaviour)."""
        if threading.current_thread() is not threading.main_thread():
            return lambda: None

        def _request_stop(signum, frame):
            self._stop_signals += 1

        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous[signum] = signal.signal(signum, _request_stop)

        def restore():
            for signum, handler in previous.items():
                signal.signal(signum, handler)

        return restore

