"""Learned Virtual Memory (LVM) — a full reproduction of
"Learning to Walk: Architecting Learned Virtual Memory Translation"
(MICRO 2025).

Public API tour:

* :mod:`repro.core` — the learned-index page table (the paper's
  contribution): linear models in Q44.20 fixed point, gapped page
  tables, the cost model, ASLR rebasing, map/unmap/rebuild.
* :mod:`repro.pagetables` — the baselines: radix, hashed (Blake2),
  elastic cuckoo (ECPT), flattened (FPT), and the single-access ideal.
* :mod:`repro.mmu` — the hardware model: caches, TLBs, PWC/LWC/CWC walk
  caches, and per-scheme page walkers.
* :mod:`repro.kernel` — the OS layer (the paper's Linux-prototype
  analogue): VMAs, THP policy, ASLR, demand paging, and the kernel
  index every process shares.
* :mod:`repro.mem` — physical memory: buddy allocator, fragmentation.
* :mod:`repro.schemes` — the scheme registry: every translation scheme
  as a first-class, self-describing descriptor (factories, capability
  flags, stats hooks); ``registry.register()`` is the extension point
  for new schemes.
* :mod:`repro.workloads` — the evaluation suite: graphBIG kernels over
  Kronecker graphs, GUPS, memcached, MUMmer, production-shaped spaces.
* :mod:`repro.sim` — trace-driven full-system-style simulation and the
  experiment runner behind Figures 9-12.
* :mod:`repro.analysis` — the studies: gap coverage (Fig. 2),
  contiguity (Fig. 3), collisions and memory (7.3), area/power (7.4).
"""

from repro.core import LearnedIndex, LVMConfig
from repro.errors import ConfigError, CorruptionError, ReproError, TranslationError
from repro.faults import FaultKind, FaultPlan
from repro.sim import SimConfig, Simulator, run_suite
from repro.types import PTE, PageSize
from repro.workloads import build_workload

__version__ = "1.0.0"

__all__ = [
    "ConfigError",
    "CorruptionError",
    "FaultKind",
    "FaultPlan",
    "LVMConfig",
    "LearnedIndex",
    "PTE",
    "PageSize",
    "ReproError",
    "SimConfig",
    "Simulator",
    "TranslationError",
    "build_workload",
    "run_suite",
    "__version__",
]
