"""Chaos tests for the sweep supervisor (`repro.sim.supervisor`) and
the crash-safe run journal (`repro.sim.journal`).

The properties pinned here are the ones a long evaluation depends on:

* a worker killed mid-sweep — SIGKILL or SIGTERM — is retried and the
  sweep's ResultSet is bit-identical to a serial run, with zero lost or
  duplicated cells;
* a hung run is timed out in the parent, retried, and finally
  quarantined as a structured failure carrying its attempt count;
* a sweep checkpointed to a journal — even one with a torn final
  record — resumes to a ResultSet bit-identical to the golden
  pre-refactor cells;
* a journal written under a different configuration is rejected with
  a typed ``JournalMismatchError`` (exit code 2 through the CLI);
* the executor's shared rules hold at one job (in process) and in a
  pool alike: a fail-fast cell is journaled before it raises, a Ctrl-C
  resumes bit-identically, and a fully journaled sweep loads nothing.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.errors import (
    ConfigError,
    JournalMismatchError,
    ReproError,
    SpecQuarantinedError,
    SweepInterrupted,
)
from repro.schemes import registry
from repro.schemes.radix import RadixScheme
from repro.sim import SimConfig, run_suite, runner
from repro.sim.journal import RunJournal, config_fingerprint, spec_key
from repro.sim.results import RunFailure, SimResult
from repro.sim.supervisor import SupervisorPolicy, SweepSupervisor, make_specs
from repro.workloads.trace_cache import TraceCache

GOLDEN_PATH = Path(__file__).parent / "golden" / "scheme_cells.json"
REFS = 1_000
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _allow_oversubscription(monkeypatch):
    """Supervisor chaos needs a real worker pool regardless of how few
    CPUs the CI box has: a KamikazeScheme that silently fell back to
    the serial path would SIGKILL the test process itself."""
    monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")


# -- chaos schemes: defined here, registered for this module only -------

class KamikazeScheme(RadixScheme):
    """Radix clone that SIGKILLs its worker the first time any process
    tries to build it, then behaves exactly like radix.  The sentinel
    file is what makes "first time" survive the process boundary."""

    name = "kamikaze"
    aliases = ()
    core = False
    sentinel: Path = None  # set by the fixture

    def make_page_table(self, sim):
        if not self.sentinel.exists():
            self.sentinel.write_text("died once")
            os.kill(os.getpid(), signal.SIGKILL)
        return super().make_page_table(sim)


class SleeperScheme(RadixScheme):
    """Radix clone that hangs long past any test deadline."""

    name = "sleeper"
    aliases = ()
    core = False

    def make_page_table(self, sim):
        time.sleep(300)
        return super().make_page_table(sim)  # pragma: no cover


class StalledScheme(RadixScheme):
    """Radix clone whose first build writes its process id to
    ``pid_file`` and stalls; every later build behaves exactly like
    radix."""

    name = "stalled"
    aliases = ()
    core = False
    pid_file: Path = None  # set by the fixture

    def make_page_table(self, sim):
        if not self.pid_file.exists():
            self.pid_file.write_text(str(os.getpid()))
            time.sleep(60)
        return super().make_page_table(sim)


@pytest.fixture(scope="module", autouse=True)
def _chaos_schemes(tmp_path_factory):
    chaos_dir = tmp_path_factory.mktemp("chaos")
    KamikazeScheme.sentinel = chaos_dir / "died-once"
    StalledScheme.pid_file = chaos_dir / "stalled.pid"
    schemes = [
        registry.register(scheme())
        for scheme in (KamikazeScheme, SleeperScheme, StalledScheme)
    ]
    yield
    for scheme in schemes:
        registry.unregister(scheme.name)


def _alive(pid):
    """True while ``pid`` runs: an exited process left unreaped (a
    zombie) counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


# -- worker supervision -------------------------------------------------

class TestWorkerKill:
    @pytest.mark.timeout(180)
    def test_killed_worker_is_retried_bit_identically(self):
        """A SIGKILLed worker breaks the pool; the supervisor respawns
        it and retries — the sweep ends with every cell present
        exactly once, field-for-field equal to a serial run."""
        cfg = SimConfig(num_refs=REFS)
        assert not KamikazeScheme.sentinel.exists()
        parallel = run_suite(
            ["gups"], ["radix", "kamikaze"], config=cfg, jobs=2,
            on_error="collect",
        )
        assert KamikazeScheme.sentinel.exists(), "worker never died"
        # The sentinel now exists, so a serial run survives.
        serial = run_suite(
            ["gups"], ["radix", "kamikaze"], config=cfg, jobs=1,
            on_error="collect",
        )
        assert not parallel.failures and not serial.failures
        assert len(parallel.results) == len(serial.results) == 4
        for a, b in zip(serial.results, parallel.results):
            assert asdict(a) == asdict(b)
        cells = [(r.workload, r.scheme, r.thp) for r in parallel.results]
        assert len(cells) == len(set(cells)), "duplicated cells"

    @pytest.mark.timeout(180)
    def test_timed_out_spec_is_quarantined_with_attempt_count(self):
        """A hung run exceeds its parent-side deadline twice (retries=1)
        and lands in ``failures`` as a SpecQuarantinedError naming the
        attempt count; the healthy cell still completes."""
        cfg = SimConfig(num_refs=300)
        results = run_suite(
            ["gups"], ["radix", "sleeper"], page_modes=(False,),
            config=cfg, jobs=2, on_error="collect",
            run_timeout=6.0, retries=1,
        )
        assert [r.scheme for r in results.results] == ["radix"]
        assert len(results.failures) == 1
        failure = results.failures[0]
        assert failure.scheme == "sleeper"
        assert failure.error == "SpecQuarantinedError"
        assert "2 attempts" in failure.message
        assert "SpecTimeoutError" in failure.message

    @pytest.mark.timeout(60)
    def test_quarantine_raises_under_fail_fast(self):
        cfg = SimConfig(num_refs=300)
        with pytest.raises(SpecQuarantinedError, match="1 attempts"):
            run_suite(
                ["gups"], ["sleeper"], page_modes=(False,), config=cfg,
                jobs=1, on_error="raise", run_timeout=2.0, retries=0,
            )

    @pytest.mark.timeout(120)
    def test_timed_out_worker_dumps_stack_before_kill(self, tmp_path):
        """Before killing a worker that blew its deadline, the parent
        sends SIGUSR1; the faulthandler hook every worker registers at
        init dumps its stack to stderr, so the hang site (here:
        ``time.sleep``) is visible post-mortem.  Run in a subprocess —
        the dump comes from a pool worker's stderr, which pytest's
        capture cannot see."""
        script = (
            "import time\n"
            "from repro.schemes import registry\n"
            "from repro.schemes.radix import RadixScheme\n"
            "class Napper(RadixScheme):\n"
            "    name = 'napper'\n"
            "    aliases = ()\n"
            "    core = False\n"
            "    def make_page_table(self, sim):\n"
            "        time.sleep(300)\n"
            "from repro.sim import SimConfig, run_suite\n"
            "registry.register(Napper())\n"
            "results = run_suite(['gups'], ['napper'], page_modes=(False,),\n"
            "                    config=SimConfig(num_refs=300), jobs=1,\n"
            "                    on_error='collect', run_timeout=2.0,\n"
            "                    retries=0)\n"
            "assert len(results.failures) == 1\n"
        )
        env = dict(os.environ, REPRO_OVERSUBSCRIBE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=90,
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "most recent call first" in proc.stderr, proc.stderr
        # The dump names the frame the worker was wedged in.
        assert "make_page_table" in proc.stderr, proc.stderr

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="needs /proc")
    @pytest.mark.timeout(180)
    def test_sigterm_ends_a_worker_and_its_cell_is_retried(self, capsys):
        """A fork copies the supervisor's SIGTERM drain handler into
        every pool worker; the worker must reset it, or a SIGTERM'd
        worker keeps running its cell.  A SIGTERM'd worker exits at
        once, and the supervisor retries its cell as a crash."""
        pid_file = StalledScheme.pid_file
        exited_after = []

        def terminate_the_stalled_worker():
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                text = pid_file.read_text() if pid_file.exists() else ""
                if text:
                    break
                time.sleep(0.05)
            pid = int(text)
            assert pid != os.getpid(), "the cell ran in the test process"
            os.kill(pid, signal.SIGTERM)
            sent = time.monotonic()
            while _alive(pid) and time.monotonic() - sent < 10:
                time.sleep(0.05)
            exited_after.append(
                None if _alive(pid) else time.monotonic() - sent
            )

        killer = threading.Thread(target=terminate_the_stalled_worker)
        killer.start()
        try:
            results = run_suite(
                ["gups"], ["radix", "stalled"], page_modes=(False,),
                config=SimConfig(num_refs=300), jobs=2, on_error="collect",
                verbose=True,
            )
        finally:
            killer.join(timeout=150)
        assert exited_after and exited_after[0] is not None, \
            "the worker outlived its SIGTERM by 10 s"
        assert exited_after[0] < 5.0
        assert not results.failures
        assert [r.scheme for r in results.results] == ["radix", "stalled"]
        out = capsys.readouterr().out
        assert "retrying gups/stalled/thp=0" in out
        assert "WorkerCrashError" in out


class TestGracefulShutdown:
    def test_pre_signalled_supervisor_raises_sweep_interrupted(self, tmp_path):
        """The drain path: with a stop already requested, the
        supervisor submits nothing, flushes what it has, and raises
        SweepInterrupted carrying the journal path and progress."""
        cfg = SimConfig(num_refs=REFS)
        journal_path = tmp_path / "j.jsonl"
        # Pre-complete one cell so `completed` is non-zero.
        run_suite(
            ["gups"], ["radix"], page_modes=(False,), config=cfg,
            journal=journal_path,
        )
        specs = make_specs(["gups"], ["radix", "lvm"], [False], cfg)
        journal = RunJournal.open(journal_path, cfg, resume=True)
        try:
            supervisor = SweepSupervisor(
                specs, runner._run_cell, jobs=2, journal=journal
            )
            supervisor._stop_signals = 1
            with pytest.raises(SweepInterrupted) as excinfo:
                supervisor.run()
        finally:
            journal.close()
        assert excinfo.value.journal_path == journal_path
        assert excinfo.value.completed == 1
        assert excinfo.value.total == 2

    def test_policy_validation(self):
        with pytest.raises(ConfigError, match="run_timeout"):
            SupervisorPolicy(run_timeout=0).validate()
        with pytest.raises(ConfigError, match="retries"):
            SupervisorPolicy(retries=-1).validate()
        with pytest.raises(ConfigError, match="backoff_factor"):
            SupervisorPolicy(backoff_factor=0.5).validate()
        policy = SupervisorPolicy(backoff_base=0.5, backoff_factor=2.0,
                                  backoff_max=3.0)
        assert policy.backoff(1) == 0.5
        assert policy.backoff(2) == 1.0
        assert policy.backoff(10) == 3.0  # capped
        assert policy.max_attempts == 3

    def test_supervisor_rejects_bad_arguments(self, tmp_path):
        """run_suite checks both once, before it creates a journal."""
        path = tmp_path / "j.jsonl"
        with pytest.raises(ConfigError, match="jobs"):
            run_suite(["gups"], ["radix"], jobs=0, journal=path)
        with pytest.raises(ConfigError, match="on_error"):
            run_suite(["gups"], ["radix"], on_error="ignore", journal=path)
        assert not path.exists()


class TestSharedRules:
    """Rules of the one sweep executor, wherever a cell runs: in this
    process (jobs=1) or in a pool (jobs=2)."""

    # 1 MB of physical memory cannot hold gups' 4 KB-page tables: the
    # cell raises a deterministic ReproError.
    FAILING = dict(num_refs=REFS, phys_mem_bytes=1 << 20)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_cell_is_journaled_before_it_raises(
        self, tmp_path, jobs
    ):
        cfg = SimConfig(**self.FAILING)
        path = tmp_path / "j.jsonl"
        with pytest.raises(ReproError) as excinfo:
            run_suite(["gups"], ["radix"], page_modes=(False,), config=cfg,
                      jobs=jobs, journal=path, on_error="raise")
        with RunJournal.open(path, cfg, resume=True) as journal:
            failure = journal.failure_for("gups", "radix", False)
        assert failure is not None, "the failing cell was not journaled"
        assert failure.error == type(excinfo.value).__name__
        assert failure.message == str(excinfo.value)
        # Resuming fail-fast stops at the journaled failure.
        with pytest.raises(ReproError, match="journaled failure"):
            run_suite(["gups"], ["radix"], page_modes=(False,), config=cfg,
                      jobs=jobs, journal=path, resume=True)

    def test_in_process_interrupt_resumes_bit_identically(
        self, tmp_path, monkeypatch
    ):
        """Ctrl-C in the second cell of a journaled one-job sweep:
        SweepInterrupted with one cell done, then a resume equal to the
        uninterrupted sweep, field for field."""
        cfg = SimConfig(num_refs=REFS)
        grid = (["gups"], ["radix", "ecpt", "lvm"])
        uninterrupted = run_suite(*grid, page_modes=(False,), config=cfg)
        real = runner.Simulator
        cells = []

        def interrupted_in_cell_two(*args, **kwargs):
            cells.append(args[0])
            if len(cells) == 2:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "Simulator", interrupted_in_cell_two)
        path = tmp_path / "j.jsonl"
        with pytest.raises(SweepInterrupted) as excinfo:
            run_suite(*grid, page_modes=(False,), config=cfg, journal=path)
        assert excinfo.value.journal_path == path
        assert excinfo.value.completed == 1
        assert excinfo.value.total == 3
        monkeypatch.setattr(runner, "Simulator", real)
        resumed = run_suite(*grid, page_modes=(False,), config=cfg,
                            journal=path, resume=True)
        assert not resumed.failures
        assert [asdict(r) for r in resumed.results] == \
            [asdict(r) for r in uninterrupted.results]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fully_journaled_sweep_loads_nothing(
        self, tmp_path, monkeypatch, jobs
    ):
        cfg = SimConfig(num_refs=REFS)
        path = tmp_path / "j.jsonl"
        first = run_suite(["gups"], ["radix", "lvm"], config=cfg,
                          journal=path)

        def forbidden(*args, **kwargs):
            raise AssertionError("a fully journaled sweep loaded a workload")

        monkeypatch.setattr(runner, "build_workload", forbidden)
        monkeypatch.setattr(TraceCache, "get", forbidden)
        resumed = run_suite(["gups"], ["radix", "lvm"], config=cfg,
                            journal=path, resume=True, jobs=jobs)
        assert [asdict(r) for r in resumed.results] == \
            [asdict(r) for r in first.results]


# -- the run journal ----------------------------------------------------

class TestJournal:
    def test_records_survive_roundtrip(self, tmp_path):
        cfg = SimConfig(num_refs=123)
        path = tmp_path / "j.jsonl"
        result = SimResult("gups", "radix", False, refs=1, instructions=2,
                           cycles=3.5)
        failure = RunFailure("gups", "lvm", True, "ReproError", "boom")
        with RunJournal.open(path, cfg) as journal:
            journal.record_result("gups", "radix", False, result)
            journal.record_failure("gups", "lvm", True, failure)
        reloaded = RunJournal.open(path, cfg, resume=True)
        try:
            assert asdict(reloaded.result_for("gups", "radix", False)) == \
                asdict(result)
            assert reloaded.failure_for("gups", "lvm", True) == failure
            assert reloaded.result_for("gups", "radix", True) is None
        finally:
            reloaded.close()

    def test_every_line_is_checksummed_json(self, tmp_path):
        cfg = SimConfig(num_refs=123)
        path = tmp_path / "j.jsonl"
        with RunJournal.open(path, cfg) as journal:
            journal.record_result(
                "gups", "radix", False,
                SimResult("gups", "radix", False, 1, 2, 3.0),
            )
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + one record
        for line in lines:
            wrapper = json.loads(line)
            assert set(wrapper) == {"record", "sha256"}
        assert json.loads(lines[0])["record"]["kind"] == "header"

    def test_torn_final_record_is_dropped(self, tmp_path, capsys):
        cfg = SimConfig(num_refs=123)
        path = tmp_path / "j.jsonl"
        with RunJournal.open(path, cfg) as journal:
            for scheme in ("radix", "lvm"):
                journal.record_result(
                    "gups", scheme, False,
                    SimResult("gups", scheme, False, 1, 2, 3.0),
                )
        raw = path.read_bytes()
        path.write_bytes(raw[:-30])  # tear the lvm record mid-line
        reloaded = RunJournal.open(path, cfg, resume=True)
        try:
            assert reloaded.result_for("gups", "radix", False) is not None
            assert reloaded.result_for("gups", "lvm", False) is None
        finally:
            reloaded.close()
        assert "torn or corrupt" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [30, 1])  # mid-record; newline only
    def test_records_after_a_resume_survive_the_next(self, tmp_path, cut):
        """Tear the tail, resume, record, resume again: the record
        written after the first resume must not sit behind torn bytes,
        where the second resume would drop it."""
        cfg = SimConfig(num_refs=123)
        path = tmp_path / "j.jsonl"

        def cell(scheme):
            return SimResult("gups", scheme, False, 1, 2, 3.0)

        with RunJournal.open(path, cfg) as journal:
            for scheme in ("radix", "lvm"):
                journal.record_result("gups", scheme, False, cell(scheme))
        path.write_bytes(path.read_bytes()[:-cut])
        with RunJournal.open(path, cfg, resume=True) as journal:
            journal.record_result("gups", "ecpt", False, cell("ecpt"))
        with RunJournal.open(path, cfg, resume=True) as journal:
            assert journal.result_for("gups", "ecpt", False) is not None
            assert journal.result_for("gups", "radix", False) is not None
            kept_lvm = journal.result_for("gups", "lvm", False) is not None
        assert kept_lvm == (cut == 1)
        assert path.read_bytes().endswith(b"\n")

    def test_corrupt_checksum_stops_the_load(self, tmp_path):
        cfg = SimConfig(num_refs=123)
        path = tmp_path / "j.jsonl"
        with RunJournal.open(path, cfg) as journal:
            for scheme in ("radix", "lvm"):
                journal.record_result(
                    "gups", scheme, False,
                    SimResult("gups", scheme, False, 1, 2, 3.0),
                )
        lines = path.read_text().splitlines()
        # Flip a digit inside the radix record's payload without
        # updating its checksum: both it and the (valid) record after
        # it must be discarded — data past corruption is suspect.
        lines[1] = lines[1].replace('"refs": 1', '"refs": 9')
        path.write_text("\n".join(lines) + "\n")
        reloaded = RunJournal.open(path, cfg, resume=True)
        try:
            assert reloaded.completed == {}
        finally:
            reloaded.close()

    def test_mismatched_config_is_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RunJournal.open(path, SimConfig(num_refs=100)).close()
        with pytest.raises(JournalMismatchError, match="different config"):
            RunJournal.open(path, SimConfig(num_refs=200), resume=True)

    def test_mismatched_schema_version_is_rejected(self, tmp_path):
        from repro.sim import journal as journal_module

        path = tmp_path / "j.jsonl"
        record = {"kind": "header", "version": 99, "fingerprint": "x"}
        path.write_text(json.dumps(
            {"record": record, "sha256": journal_module.record_digest(record)}
        ) + "\n")
        with pytest.raises(JournalMismatchError, match="schema version"):
            RunJournal.open(path, SimConfig(num_refs=100), resume=True)

    def test_resume_without_existing_journal_is_config_error(self, tmp_path):
        """--resume against a journal that does not exist is a user
        mistake (wrong path, or nothing to resume), not a fresh start:
        it must fail with a ConfigError (exit 2) naming the path —
        distinct from JournalMismatchError, which means the journal
        exists but belongs to a different configuration."""
        path = tmp_path / "missing.jsonl"
        with pytest.raises(ConfigError, match="nothing to resume"):
            RunJournal.open(path, SimConfig(num_refs=100), resume=True)
        assert not path.exists()
        # Without --resume the same path starts a fresh journal.
        journal = RunJournal.open(path, SimConfig(num_refs=100))
        try:
            assert journal.completed == {} and journal.failed == {}
            assert path.exists()
        finally:
            journal.close()

    def test_fingerprint_ignores_thp_but_not_refs(self):
        base = SimConfig(num_refs=100)
        assert config_fingerprint(base) == \
            config_fingerprint(base.clone(thp=True))
        assert config_fingerprint(base) != \
            config_fingerprint(base.clone(num_refs=101))

    def test_spec_key_shape(self):
        assert spec_key("gups", "radix", True) == "gups/radix/thp=1"


# -- crash-safe resume --------------------------------------------------

class TestResume:
    SCHEMES = ("radix", "ecpt", "lvm")

    @pytest.mark.timeout(300)
    def test_torn_journal_resumes_to_golden_cells(self, golden, tmp_path):
        """Sweep → tear the journal mid-record → resume.  The resumed
        ResultSet must match the pre-refactor golden cells bit for bit
        (the acceptance criterion: resume is indistinguishable from an
        uninterrupted run)."""
        cfg = SimConfig(num_refs=golden["refs"])
        path = tmp_path / "sweep.jsonl"
        first = run_suite(
            [golden["workload"]], self.SCHEMES, config=cfg, jobs=2,
            journal=path,
        )
        assert len(first.results) == len(self.SCHEMES) * 2
        raw = path.read_bytes()
        path.write_bytes(raw[:-40])  # torn write in the final record
        resumed = run_suite(
            [golden["workload"]], self.SCHEMES, config=cfg, jobs=2,
            journal=path, resume=True,
        )
        assert not resumed.failures
        by_cell = {
            (rec["scheme"], rec["thp"]): rec for rec in golden["results"]
        }
        assert len(resumed.results) == len(self.SCHEMES) * 2
        for run in resumed.results:
            assert asdict(run) == by_cell[(run.scheme, run.thp)], (
                run.scheme, run.thp,
            )

    def test_serial_resume_skips_journaled_cells(self, tmp_path):
        """A fully-journaled serial sweep re-runs nothing: the resumed
        set replays the journal bit-identically, fast."""
        cfg = SimConfig(num_refs=REFS)
        path = tmp_path / "serial.jsonl"
        first = run_suite(["gups"], ["radix", "lvm"], config=cfg,
                          journal=path)
        start = time.perf_counter()
        resumed = run_suite(["gups"], ["radix", "lvm"], config=cfg,
                            journal=path, resume=True)
        replay_seconds = time.perf_counter() - start
        for a, b in zip(first.results, resumed.results):
            assert asdict(a) == asdict(b)
        # Replay does no simulation; give CI two orders of margin.
        assert replay_seconds < 5.0

    def test_resume_requires_journal(self):
        with pytest.raises(ConfigError, match="journal"):
            run_suite(["gups"], ["radix"], config=SimConfig(num_refs=100),
                      resume=True)

    def test_truncation_at_every_byte_offset_of_last_record(self, tmp_path):
        """Exhaustive torn-tail sweep at the journal layer: truncating
        the file at *every* byte offset inside the last record must
        load cleanly with exactly the preceding cells intact — the torn
        record is dropped whole, never half-parsed, never taking the
        records before it down with it."""
        cfg = SimConfig(num_refs=REFS)
        path = tmp_path / "sweep.jsonl"
        run_suite(["gups"], ["radix", "lvm"], page_modes=(False,),
                  config=cfg, journal=path)
        raw = path.read_bytes()
        last_line_start = raw[:-1].rfind(b"\n") + 1
        torn = tmp_path / "torn.jsonl"
        for offset in range(last_line_start, len(raw) + 1):
            torn.write_bytes(raw[:offset])
            journal = RunJournal.open(torn, cfg, resume=True)
            try:
                keys = set(journal.completed)
                # Only the byte-complete record survives (the trailing
                # newline is not needed for the final line to parse).
                if offset >= len(raw) - 1:
                    assert keys == {"gups/radix/thp=0", "gups/lvm/thp=0"}
                else:
                    assert keys == {"gups/radix/thp=0"}, offset
                assert not journal.failed
            finally:
                journal.close()

    @given(cut=st.integers(min_value=1, max_value=4096))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_torn_tail_resumes_bit_identically(self, tmp_path, cut):
        """Property: for any truncation point inside the last record,
        a resumed sweep is bit-identical to the uninterrupted one."""
        cfg = SimConfig(num_refs=REFS)
        path = tmp_path / "sweep.jsonl"
        first = run_suite(["gups"], ["radix", "lvm"], page_modes=(False,),
                          config=cfg, journal=path)
        raw = path.read_bytes()
        last_len = len(raw) - (raw[:-1].rfind(b"\n") + 1)
        offset = len(raw) - 1 - (cut % (last_len - 1)) - 1
        path.write_bytes(raw[:offset])
        resumed = run_suite(["gups"], ["radix", "lvm"], page_modes=(False,),
                            config=cfg, journal=path, resume=True)
        assert not resumed.failures
        assert [asdict(r) for r in resumed.results] == \
            [asdict(r) for r in first.results]

    def test_stale_journal_exits_2_through_cli(self, tmp_path):
        path = tmp_path / "stale.jsonl"
        run_suite(["gups"], ["radix"], page_modes=(False,),
                  config=SimConfig(num_refs=200), journal=path)
        code = cli_main([
            "fig9", "--refs", "300", "--workloads", "gups",
            "--schemes", "radix,lvm", "--journal", str(path), "--resume",
        ])
        assert code == 2
