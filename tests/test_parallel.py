"""Parallel sweeps (`repro.sim.supervisor`'s pool): bit-identity with
the in-process path, deterministic ordering, one error rule, and the
CPU-count guardrail."""

import os
from dataclasses import asdict

import pytest

from repro.errors import ConfigError, ReproError
from repro.faults import FaultPlan
from repro.sim import SimConfig, run_suite
from repro.sim.supervisor import (
    default_jobs,
    make_specs,
    resolve_jobs,
)
from repro.sim.runner import summarize_speedups

REFS = 2_000
WORKLOADS = ["gups", "mem$"]
SCHEMES = ["radix", "lvm"]


@pytest.fixture(autouse=True)
def _allow_oversubscription(monkeypatch):
    """These tests exercise the *pool* (bit-identity, ordering, worker
    error semantics), so the CPU-count guardrail must not silently turn
    jobs=4 into the serial loop on a small CI box.  Guardrail tests
    below delete the variable again."""
    monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")


def _suite(jobs, config=None, **kwargs):
    cfg = config or SimConfig(num_refs=REFS)
    return run_suite(WORKLOADS, SCHEMES, config=cfg, jobs=jobs, **kwargs)


class TestBitIdentity:
    def test_serial_vs_parallel_field_for_field(self):
        serial = _suite(jobs=1)
        parallel = _suite(jobs=4)
        assert len(serial.results) == len(parallel.results) == 8
        assert not serial.failures and not parallel.failures
        for a, b in zip(serial.results, parallel.results):
            assert asdict(a) == asdict(b)

    def test_serial_vs_parallel_with_faults(self):
        """Fault injection is per-run seeded, so a sweep carrying a
        non-zero FaultPlan must also come back bit-identical — the
        fault counters included."""
        plan = FaultPlan(seed=11, pte_bitflip_rate=2e-3)
        serial = _suite(jobs=1, config=SimConfig(num_refs=REFS, faults=plan))
        parallel = _suite(jobs=4, config=SimConfig(num_refs=REFS, faults=plan))
        assert sum(r.faults_injected for r in serial.results) > 0
        for a, b in zip(serial.results, parallel.results):
            assert asdict(a) == asdict(b)


class TestOrdering:
    def test_results_in_spec_order(self):
        """Results come back in (thp, workload, scheme) nesting order
        regardless of which worker finishes first."""
        parallel = _suite(jobs=4)
        order = [(r.thp, r.workload, r.scheme) for r in parallel.results]
        expected = [
            (thp, name, scheme)
            for thp in (False, True)
            for name in WORKLOADS
            for scheme in SCHEMES
        ]
        assert order == expected

    def test_make_specs_matches_serial_nesting(self):
        specs = make_specs(WORKLOADS, SCHEMES, [False, True], SimConfig())
        assert [(s.thp, s.workload, s.scheme) for s in specs] == [
            (thp, name, scheme)
            for thp in (False, True)
            for name in WORKLOADS
            for scheme in SCHEMES
        ]


class TestErrorSemantics:
    # A 1 MB physical budget cannot hold the 4 KB-page page tables, so
    # every thp=False run deterministically raises a ReproError
    # (OutOfPhysicalMemory / GPTFullError); the thp=True runs map with
    # 2 MB pages, need far fewer tables, and succeed — a sweep with
    # both failures and results in one pass.
    FAILING = dict(num_refs=REFS, phys_mem_bytes=1 << 20)

    def test_collect_matches_serial(self):
        serial = _suite(
            jobs=1, config=SimConfig(**self.FAILING), on_error="collect"
        )
        parallel = _suite(
            jobs=4, config=SimConfig(**self.FAILING), on_error="collect"
        )
        assert len(serial.failures) == len(parallel.failures) == 4
        assert len(serial.results) == len(parallel.results) == 4
        for a, b in zip(serial.failures, parallel.failures):
            assert asdict(a) == asdict(b)
        for a, b in zip(serial.results, parallel.results):
            assert asdict(a) == asdict(b)

    def test_raise_propagates_repro_error(self):
        with pytest.raises(ReproError):
            _suite(jobs=4, config=SimConfig(**self.FAILING), on_error="raise")

    def test_unknown_workload_rejected_before_forking(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            make_specs(["nope"], SCHEMES, [False], SimConfig())

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError, match="jobs"):
            _suite(jobs=0)


class TestDefaultJobs:
    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6

    def test_env_variable_capped_at_cpu_count(self, monkeypatch):
        """Without the oversubscription escape hatch, REPRO_JOBS is
        clamped to the visible CPUs — more workers than cores measured
        slower than serial."""
        monkeypatch.delenv("REPRO_OVERSUBSCRIBE", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 2
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert default_jobs() == 2

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "")
        assert default_jobs() == 1

    def test_garbage_is_a_config_error(self, monkeypatch):
        """A malformed REPRO_JOBS is a configuration mistake naming the
        offending value, not a silent fallback to serial."""
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ConfigError, match="'abc'"):
            default_jobs()
        monkeypatch.setenv("REPRO_JOBS", "-3")
        with pytest.raises(ConfigError, match="'-3'"):
            default_jobs()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ConfigError, match="'0'"):
            default_jobs()


class TestJobsGuardrail:
    """run_suite falls back to the serial path — with a logged reason —
    whenever a pool cannot win: more workers than CPUs, or fewer grid
    cells than workers."""

    @pytest.fixture(autouse=True)
    def _guardrail_armed(self, monkeypatch):
        monkeypatch.delenv("REPRO_OVERSUBSCRIBE", raising=False)

    def test_resolve_jobs_oversubscription(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        jobs, reason = resolve_jobs(4, num_specs=12)
        assert jobs == 1 and "2 visible CPU" in reason
        jobs, reason = resolve_jobs(2, num_specs=12)
        assert jobs == 2 and reason is None

    def test_resolve_jobs_tiny_grid(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        jobs, reason = resolve_jobs(4, num_specs=2)
        assert jobs == 1 and "2 cell(s)" in reason

    def test_resolve_jobs_keeps_pool_for_deadlines(self, monkeypatch):
        """A run_timeout needs a killable subprocess: the guardrail
        never downgrades supervised runs to in-process execution."""
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        jobs, reason = resolve_jobs(4, num_specs=12, run_timeout=60.0)
        assert jobs == 4 and reason is None

    def test_resolve_jobs_escape_hatch(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_OVERSUBSCRIBE", "1")
        jobs, reason = resolve_jobs(4, num_specs=12)
        assert jobs == 4 and reason is None

    def test_run_suite_fallback_logs_and_stays_bit_identical(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = _suite(jobs=1)
        fallback = _suite(jobs=4)
        err = capsys.readouterr().err
        assert "falling back to serial" in err
        for a, b in zip(serial.results, fallback.results):
            assert asdict(a) == asdict(b)


class TestSummarizeSpeedups:
    def test_rows_are_dicts(self):
        results = run_suite(
            ["gups"], ["radix", "lvm"], page_modes=[False],
            config=SimConfig(num_refs=REFS),
        )
        rows = summarize_speedups(results, thp=False)
        assert isinstance(rows, list) and len(rows) == 1
        row = rows[0]
        assert isinstance(row, dict)
        assert row["workload"] == "gups"
        assert row["radix"] == pytest.approx(1.0)
        assert isinstance(row["lvm"], float)
        # Schemes absent from the ResultSet are omitted, not padded.
        assert "ecpt" not in row and "ideal" not in row
