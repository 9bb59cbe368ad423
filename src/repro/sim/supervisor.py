"""Crash-safe sweep supervisor: timeouts, retries, quarantine, resume.

A bare process pool fans specs across workers but inherits the
pool's failure modes wholesale: a hung worker stalls the
sweep forever, a killed worker poisons every pending future with
``BrokenProcessPool``, and a Ctrl-C discards all completed cells.  The
supervisor wraps the same pool — and the same ``_worker_run`` function,
so results stay bit-identical — with a host-level reliability layer:

* **Deadlines in the parent.**  Each attempt gets a wall-clock
  deadline checked from the parent's wait loop (no SIGALRM, no signals
  into workers — a worker stuck in C code cannot be trusted to time
  itself out).  An expired attempt counts as a host-level failure; the
  hung worker is killed with the rest of its pool and the pool is
  respawned.
* **Bounded retry with exponential backoff.**  Host-level failures
  (timeout, worker crash) retry up to ``retries`` extra attempts with
  ``backoff_base * backoff_factor**(attempt-1)`` delay, capped at
  ``backoff_max``.  *Simulated* failures (:class:`ReproError` returned
  by the worker) are deterministic and never retried — they follow the
  serial sweep's ``on_error`` semantics exactly.
* **Quarantine, not silence.**  A spec that exhausts its retry budget
  is recorded as a structured
  :class:`~repro.errors.SpecQuarantinedError` in
  ``ResultSet.failures`` (or raised, under ``on_error="raise"``) with
  its attempt count — never dropped.
* **Pool respawn.**  ``BrokenProcessPool`` marks every in-flight spec
  as a crashed attempt (the culprit cannot be identified from the
  parent, so all of them were "possibly it"), kills the pool, and
  respawns it; specs queued behind the crash re-run untouched.
* **Journal integration.**  With a :class:`~repro.sim.journal.RunJournal`
  attached, completed cells are checkpointed as they finish and
  journal hits are replayed instead of re-run — a resumed sweep is
  bit-identical to an uninterrupted one.
* **Shared traces.**  ``run_suite`` fills the content-addressed cache
  (:mod:`repro.workloads.trace_cache`) with every distinct trace and
  its workload's VMA layout before the pool spins up; the workers
  supervised here memmap those packed entries read-only and load the
  layouts instead of re-synthesizing traces or rebuilding workloads,
  so a respawned pool (or a retried spec) re-opens a file rather than
  re-running a generator.
* **Graceful shutdown.**  SIGINT/SIGTERM stop new submissions, drain
  the in-flight futures (workers ignore SIGINT, so Ctrl-C in a
  terminal does not kill them mid-cell), flush the journal, and raise
  :class:`~repro.errors.SweepInterrupted` — a ``KeyboardInterrupt``
  subclass carrying the journal path, which the CLI turns into an
  exit-130 "resume with ..." hint.  A second signal aborts
  immediately.

State machine per spec (see ``docs/INTERNALS.md`` §11)::

    JOURNAL-HIT ──────────────────────────────────────────▶ DONE
    PENDING ─▶ RUNNING ─▶ ok / simulated failure ─────────▶ DONE
                 │ timeout / worker crash
                 ▼
              BACKOFF ─▶ RUNNING (attempt+1) ...
                 │ attempts exhausted
                 ▼
            QUARANTINED ──────────────────────────────────▶ DONE
"""

from __future__ import annotations

import faulthandler
import heapq
import os
import signal
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import monotonic, sleep
from typing import Dict, List, Optional, Sequence

from repro.errors import (
    ConfigError,
    ReproError,
    SpecQuarantinedError,
    SpecTimeoutError,
    SweepInterrupted,
    WorkerCrashError,
)
from repro.sim.journal import RunJournal
from repro.sim.parallel import RunSpec, _worker_run
from repro.sim.results import ResultSet, RunFailure, SimResult

__all__ = ["SupervisorPolicy", "SweepSupervisor", "run_specs_supervised"]


def _init_worker() -> None:
    """Pool initializer: workers must not die from a terminal Ctrl-C
    (the signal goes to the whole foreground process group); the parent
    decides whether to drain or abort them.  SIGUSR1 dumps every
    thread's Python stack to stderr — the parent sends it before
    killing a worker that blew its deadline, so a hang leaves a
    post-mortem trace instead of a silent kill."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        faulthandler.register(signal.SIGUSR1, chain=False)
    except (AttributeError, ValueError, OSError):
        pass  # no SIGUSR1 (non-POSIX) or no faulthandler support


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout policy for host-level failures.

    ``run_timeout`` is per *attempt*, in wall-clock seconds, measured
    from submission (the supervisor keeps at most ``jobs`` specs in
    flight, so submission and start coincide); ``None`` disables
    deadlines.  ``retries`` counts extra attempts after the first.
    """

    run_timeout: Optional[float] = None
    retries: int = 2
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 5.0

    def validate(self) -> None:
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ConfigError(
                f"run_timeout must be positive, got {self.run_timeout!r}"
            )
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries!r}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigError("backoff delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Delay before the attempt *after* failed attempt ``attempt``."""
        return min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )

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
    """Drives one spec list to completion; see the module docstring."""

    def __init__(
        self,
        specs: Sequence[RunSpec],
        jobs: int,
        on_error: str = "raise",
        verbose: bool = False,
        journal: Optional[RunJournal] = None,
        policy: Optional[SupervisorPolicy] = None,
    ):
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs!r}")
        if on_error not in ("raise", "collect"):
            raise ConfigError(
                f"on_error must be 'raise' or 'collect', got {on_error!r}"
            )
        self.specs = list(specs)
        self.jobs = jobs
        self.on_error = on_error
        self.verbose = verbose
        self.journal = journal
        self.policy = policy or SupervisorPolicy()
        self.policy.validate()
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

    # -- public entry --------------------------------------------------

    def run(self) -> ResultSet:
        self._replay_journal_hits()
        self._ready = deque(
            (idx, 1)
            for idx, slot in enumerate(self._outcomes)
            if slot is None
        )
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
                raise SweepInterrupted(
                    journal_path=self.journal.path if self.journal else None,
                    completed=sum(
                        1 for slot in self._outcomes if slot is not None
                    ),
                    total=len(self.specs),
                )
            return self._fold()
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
            max_workers=self.jobs, initializer=_init_worker
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
        future = self._pool.submit(_worker_run, self.specs[idx])
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
            self._complete(inflight, status, payload)
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

    def _complete(self, inflight: _Inflight, status: str, payload) -> None:
        """A worker returned: either a result or a *simulated* failure
        (deterministic — journaled and never retried)."""
        spec = self.specs[inflight.idx]
        self._outcomes[inflight.idx] = (status, payload)
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
        """Outcomes → ResultSet in spec order, exactly like the serial
        sweep would have produced them."""
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


def run_specs_supervised(
    specs: Sequence[RunSpec],
    jobs: int,
    on_error: str = "raise",
    verbose: bool = False,
    journal: Optional[RunJournal] = None,
    policy: Optional[SupervisorPolicy] = None,
) -> ResultSet:
    """Run ``specs`` under supervision; see :class:`SweepSupervisor`."""
    return SweepSupervisor(
        specs,
        jobs=jobs,
        on_error=on_error,
        verbose=verbose,
        journal=journal,
        policy=policy,
    ).run()
