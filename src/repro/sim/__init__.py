"""Trace-driven simulation: configs, simulator, runner, results."""

from repro.sim.config import (
    EXTENDED_SCHEMES,
    SCHEMES,
    CoreModel,
    LVMCostModel,
    SimConfig,
    table1_rows,
)
from repro.sim.journal import RunJournal, config_fingerprint
from repro.sim.results import ResultSet, RunFailure, SimResult, geomean, mean
from repro.sim.runner import run_suite, summarize_speedups
from repro.sim.simulator import Simulator, simulate
from repro.sim.supervisor import (
    RunSpec,
    SupervisorPolicy,
    default_jobs,
    resolve_jobs,
)

__all__ = [
    "CoreModel",
    "EXTENDED_SCHEMES",
    "LVMCostModel",
    "ResultSet",
    "RunFailure",
    "RunJournal",
    "RunSpec",
    "SCHEMES",
    "SimConfig",
    "SimResult",
    "Simulator",
    "SupervisorPolicy",
    "config_fingerprint",
    "default_jobs",
    "geomean",
    "resolve_jobs",
    "mean",
    "run_suite",
    "simulate",
    "summarize_speedups",
    "table1_rows",
]
