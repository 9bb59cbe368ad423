"""Result records and aggregation helpers for the simulation runs."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.schemes import BASELINE_SCHEME


@dataclass
class SimResult:
    """Everything one (workload, scheme, page-size) run produced."""

    workload: str
    scheme: str
    thp: bool
    refs: int
    instructions: int
    cycles: float
    # MMU breakdown
    mmu_cycles: int = 0
    walk_cycles: int = 0
    walks: int = 0
    walk_traffic: int = 0
    l1_tlb_hits: int = 0
    l2_tlb_hits: int = 0
    l2_tlb_miss_rate: float = 0.0
    # Cache behaviour
    l1_mpki: float = 0.0
    l2_mpki: float = 0.0
    l3_mpki: float = 0.0
    dram_accesses: int = 0
    # Walk-cache behaviour
    walk_cache_hit_rate: float = 0.0
    walk_cache_detail: Dict[str, float] = field(default_factory=dict)
    # Structure characterization
    table_bytes: int = 0
    index_size_bytes: int = 0
    index_depth: int = 0
    collision_rate: float = 0.0
    avg_extra_accesses: float = 0.0
    mgmt_cycles: float = 0.0
    mgmt_detail: Dict[str, float] = field(default_factory=dict)
    # Fault injection and graceful degradation
    faults_injected: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    incorrect_translations: int = 0
    recoveries: int = 0
    recovery_detail: Dict[str, int] = field(default_factory=dict)
    recovery_cycles: int = 0
    poison_detections: int = 0

    @property
    def walk_cycles_per_walk(self) -> float:
        return self.walk_cycles / self.walks if self.walks else 0.0

    @property
    def walk_traffic_per_walk(self) -> float:
        return self.walk_traffic / self.walks if self.walks else 0.0

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "SimResult":
        """Inverse of ``dataclasses.asdict``.

        JSON round-trips every field exactly (floats serialize via
        ``repr``), so a result replayed from the run journal or a saved
        ResultSet is bit-identical to the freshly-computed one.
        """
        return cls(**record)


@dataclass
class RunFailure:
    """One (workload, scheme, thp) run that raised instead of finishing."""

    workload: str
    scheme: str
    thp: bool
    error: str  # exception class name
    message: str

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "RunFailure":
        return cls(**record)


class ResultSet:
    """A collection of runs with the paper's normalizations built in."""

    def __init__(self, results: Optional[Iterable[SimResult]] = None):
        self.results: List[SimResult] = list(results or [])
        self.failures: List[RunFailure] = []
        # Filled by run_suite when the trace cache is in play: this
        # sweep's {"root", "hits", "builds", "invalidated",
        # "workloads_built"} counters.
        # Reporting metadata only — never part of SimResult, whose
        # fields are pinned by the golden bit-identity tests.
        self.trace_cache: Optional[dict] = None

    def add(self, result: SimResult) -> None:
        self.results.append(result)

    def add_failure(
        self, workload: str, scheme: str, thp: bool, exc: BaseException
    ) -> None:
        self.failures.append(
            RunFailure(workload, scheme, thp, type(exc).__name__, str(exc))
        )

    # -- persistence -----------------------------------------------------
    def save(self, path) -> None:
        """Write all runs to a JSON file (EXPERIMENTS.md provenance)."""
        from pathlib import Path

        records = [asdict(r) for r in self.results]
        Path(path).write_text(json.dumps(records, indent=1))

    @staticmethod
    def load(path) -> "ResultSet":
        from pathlib import Path

        records = json.loads(Path(path).read_text())
        return ResultSet(SimResult.from_dict(record) for record in records)

    def get(self, workload: str, scheme: str, thp: bool) -> SimResult:
        for r in self.results:
            if r.workload == workload and r.scheme == scheme and r.thp == thp:
                return r
        raise KeyError(f"no run for ({workload}, {scheme}, thp={thp})")

    def workloads(self) -> List[str]:
        seen: List[str] = []
        for r in self.results:
            if r.workload not in seen:
                seen.append(r.workload)
        return seen

    def schemes(self) -> List[str]:
        """Distinct scheme names present, in first-seen order."""
        seen: List[str] = []
        for r in self.results:
            if r.scheme not in seen:
                seen.append(r.scheme)
        return seen

    # -- the paper's metrics ------------------------------------------
    def speedup(self, workload: str, scheme: str, thp: bool,
                baseline_scheme: str = BASELINE_SCHEME,
                baseline_thp: Optional[bool] = None) -> float:
        """Execution-time speedup vs. a baseline run (Figure 9)."""
        if baseline_thp is None:
            baseline_thp = thp
        base = self.get(workload, baseline_scheme, baseline_thp)
        run = self.get(workload, scheme, thp)
        return base.cycles / run.cycles

    def mmu_overhead_relative(self, workload: str, scheme: str, thp: bool) -> float:
        """MMU cycles normalized to the baseline scheme at the same
        page size (Figure 10)."""
        base = self.get(workload, BASELINE_SCHEME, thp)
        run = self.get(workload, scheme, thp)
        return run.mmu_cycles / base.mmu_cycles if base.mmu_cycles else 0.0

    def walk_traffic_relative(self, workload: str, scheme: str, thp: bool) -> float:
        """Page-walk memory requests normalized to the baseline (Fig 11)."""
        base = self.get(workload, BASELINE_SCHEME, thp)
        run = self.get(workload, scheme, thp)
        return run.walk_traffic / base.walk_traffic if base.walk_traffic else 0.0

    def mpki_relative(self, workload: str, scheme: str, thp: bool, level: str) -> float:
        """L2/L3 MPKI normalized to the baseline (Figure 12)."""
        base = self.get(workload, BASELINE_SCHEME, thp)
        run = self.get(workload, scheme, thp)
        base_v = getattr(base, f"{level}_mpki")
        return getattr(run, f"{level}_mpki") / base_v if base_v else 0.0


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0
