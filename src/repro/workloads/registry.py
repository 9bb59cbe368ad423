"""The evaluation workload suite (paper section 6.2).

Nine workloads: six graphBIG kernels over a Kronecker graph (75 GB),
GUPS (HPC Challenge random access), MUMmer (BioBench, 20 GB) and
memcached (124 GB), plus four production-shaped address spaces
("Workload 1-4") used only by the Figure 2 regularity study.

Footprints are scaled down by ``FOOTPRINT_SCALE`` (default 64) so the
suite runs on one machine while keeping page-table working sets far
beyond TLB and walk-cache reach — the regime the paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.kernel.aslr import ASLRLayout
from repro.kernel.process import Mint, mint
from repro.kernel.vma import VMA
from repro.types import BASE_PAGE_SIZE, Permission
from repro.workloads.address_space import (
    BuiltAddressSpace,
    SegmentSpec,
    build_address_space,
)
from repro.workloads.allocator import JEMALLOC, AllocatorModel
from repro.workloads.compile import CompiledTrace, memoize_trace
from repro.workloads.graph import GRAPH_KERNELS, GraphTracer
from repro.workloads.gups import gups_trace
from repro.workloads.kronecker import CSRGraph, kronecker_graph
from repro.workloads.layout import ArrayRef, HeapLayout, PagePool
from repro.workloads.memcached import memcached_trace
from repro.workloads.mummer import mummer_trace

FOOTPRINT_SCALE = 64
ELEMENT_STRIDE = 64  # bytes per logical element in workload arrays

GB = 1 << 30


@dataclass(frozen=True)
class WorkloadInfo:
    """Static description of one suite workload."""

    name: str
    paper_footprint_bytes: int
    kind: str  # graph / gups / memcached / mummer / production
    instructions_per_ref: float
    description: str


WORKLOADS: Dict[str, WorkloadInfo] = {
    **{
        kernel: WorkloadInfo(
            kernel, 75 * GB, "graph", 5.0,
            f"graphBIG {kernel.upper()} over a Kronecker graph",
        )
        for kernel in GRAPH_KERNELS
    },
    "gups": WorkloadInfo(
        "gups", 64 * GB, "gups", 2.5, "HPC Challenge random access"
    ),
    "mem$": WorkloadInfo(
        "mem$", 124 * GB, "memcached", 6.0, "memcached in-memory KV store"
    ),
    "MUMr": WorkloadInfo(
        "MUMr", 20 * GB, "mummer", 4.0, "MUMmer DNA sequence alignment"
    ),
}

#: Figure 2 additionally reports four Meta production workloads.
PRODUCTION_WORKLOADS: Dict[str, WorkloadInfo] = {
    f"prod{i}": WorkloadInfo(
        f"prod{i}", 48 * GB, "production", 5.0, f"Meta production workload {i}"
    )
    for i in range(1, 5)
}

SUITE = list(WORKLOADS)


@dataclass
class BuiltWorkload:
    """A constructed workload: VMAs plus its trace generator."""

    info: WorkloadInfo
    space: BuiltAddressSpace
    trace_fn: Callable[[int, int], np.ndarray] = field(repr=False, default=None)
    # Build identity, recorded by ``build_workload``: together with the
    # workload name and a (num_refs, trace_seed) pair these fully key a
    # generated trace — the trace compiler hashes them into its
    # content-addressed cache key (repro/workloads/trace_cache.py).
    # None for hand-constructed instances, which then skip the on-disk
    # cache (an unkeyed entry could alias a real one).
    scale: Optional[int] = None
    seed: Optional[int] = None
    # (num_refs, seed) -> CompiledTrace, shared by every (scheme, thp)
    # run of a sweep (see repro/workloads/compile.py).  The generators
    # are pure functions of (num_refs, seed), and the instance is keyed
    # by (name, scale, workload seed) at build time, completing the key.
    _packed_cache: Dict[tuple, object] = field(
        default_factory=dict, repr=False, compare=False
    )
    # (thp, thp_coverage, first frame) -> Mint, shared the same way by
    # every scheme's run of one page mode (see :meth:`mint`).
    _mint_cache: Dict[tuple, Mint] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def vmas(self) -> List[VMA]:
        return self.space.vmas

    def mint(self, thp: bool, thp_coverage: float, first_ppn: int) -> Mint:
        """The PTEs of this workload's VMAs, minted once per (THP,
        coverage, first frame) and then shared: every simulator of one
        page mode installs the same entry objects.  Nothing a run does
        writes a PTE in place (a fault-injected bit flip installs a
        corrupted copy), so one run cannot leak into the next."""
        key = (thp, thp_coverage, first_ppn)
        minted = self._mint_cache.get(key)
        if minted is None:
            minted = self._mint_cache[key] = mint(
                self.vmas, thp, thp_coverage, first_ppn
            )
        return minted

    def forget_mints(self) -> None:
        """Drop the memoized mints; tables that installed their PTEs
        keep them."""
        self._mint_cache.clear()

    def trace(self, num_refs: int, seed: int = 0) -> np.ndarray:
        """A freshly generated raw trace; runs read the memoized packed
        copy through :func:`~repro.workloads.compile.compiled_trace_for`."""
        if self.trace_fn is None:
            raise ValueError(f"{self.info.name} has no trace generator")
        return self.trace_fn(num_refs, seed)


# ---------------------------------------------------------------------------
# Common scaffolding
# ---------------------------------------------------------------------------

def _common_segments(aux_pages: int, hole_fraction: float, hole_max: int = 6):
    """Text/data/stack plus an allocator-churned metadata arena; the
    churn arena carries the workload's gap>1 transitions (Figure 2)."""
    return [
        SegmentSpec("text", "text", 1024, perms=Permission.RX, file_backed=True),
        SegmentSpec("data", "data", 512),
        SegmentSpec(
            "churn", "mmap", aux_pages, hole_fraction=hole_fraction,
            hole_max=hole_max,
        ),
        SegmentSpec("stack", "stack", 2048),
    ]


def _heap_spec(pages: int) -> SegmentSpec:
    return SegmentSpec("heap", "heap", pages)


def _heap_base(space: BuiltAddressSpace) -> int:
    return space.segment_base_vpn["heap"]


_GRAPH_CACHE: Dict[tuple, CSRGraph] = {}


def _graph_for(scale_bits: int, seed: int) -> CSRGraph:
    key = (scale_bits, seed)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = kronecker_graph(scale_bits, edge_factor=8, seed=seed)
    return _GRAPH_CACHE[key]


# ---------------------------------------------------------------------------
# Builders per workload kind
# ---------------------------------------------------------------------------

#: graphBIG vertex property structs (vertex objects, STL containers,
#: per-vertex algorithm state) are far larger than an edge record; a
#: 1 KB-per-vertex property region makes the randomly-accessed surface
#: span most of the footprint, as in the real 75 GB runs.  CSR offsets
#: and edge records use their natural 8-byte layout.
PROPS_STRIDE = 1024
CSR_STRIDE = 8


def _build_graph(
    info: WorkloadInfo, scale: int, seed: int, allocator: AllocatorModel
) -> BuiltWorkload:
    footprint = info.paper_footprint_bytes // scale
    # Bytes per vertex: offsets entry + property struct + ~16 edge
    # records (edge factor 8, symmetrized).
    per_vertex = CSR_STRIDE + PROPS_STRIDE + 16 * CSR_STRIDE
    n_vertices = max(1 << 14, 1 << int(np.log2(footprint / per_vertex)))
    graph = _graph_for(int(np.log2(n_vertices)), seed)
    aux_pages = footprint // BASE_PAGE_SIZE // 20
    layout_pages = (
        (graph.num_vertices + 1 + graph.num_edges) * CSR_STRIDE
        + graph.num_vertices * PROPS_STRIDE
    ) // BASE_PAGE_SIZE
    specs = _common_segments(aux_pages, hole_fraction=0.25) + [
        _heap_spec(layout_pages + 16)
    ]
    space = build_address_space(specs, ASLRLayout(seed=seed), allocator, seed)
    heap = HeapLayout(_heap_base(space))
    offsets_ref = heap.add_array("offsets", graph.num_vertices + 1, CSR_STRIDE)
    props_ref = heap.add_array("props", graph.num_vertices, PROPS_STRIDE)
    edges_ref = heap.add_array("edges", graph.num_edges, CSR_STRIDE)

    def trace_fn(num_refs: int, trace_seed: int) -> np.ndarray:
        tracer = GraphTracer(graph, offsets_ref, edges_ref, props_ref, trace_seed)
        return tracer.trace(info.name, num_refs)

    return BuiltWorkload(info, space, trace_fn)


def _build_gups(
    info: WorkloadInfo, scale: int, seed: int, allocator: AllocatorModel
) -> BuiltWorkload:
    footprint = info.paper_footprint_bytes // scale
    table_pages = footprint // BASE_PAGE_SIZE
    specs = _common_segments(table_pages // 50, hole_fraction=0.1) + [
        _heap_spec(table_pages)
    ]
    space = build_address_space(specs, ASLRLayout(seed=seed), allocator, seed)
    heap = HeapLayout(_heap_base(space))
    table = heap.add_array(
        "table", table_pages * (BASE_PAGE_SIZE // ELEMENT_STRIDE), ELEMENT_STRIDE
    )

    def trace_fn(num_refs: int, trace_seed: int) -> np.ndarray:
        return gups_trace(table, num_refs, trace_seed)

    return BuiltWorkload(info, space, trace_fn)


def _build_memcached(
    info: WorkloadInfo, scale: int, seed: int, allocator: AllocatorModel
) -> BuiltWorkload:
    footprint = info.paper_footprint_bytes // scale
    slab_pages = int(footprint // BASE_PAGE_SIZE * 0.92)
    hash_pages = int(footprint // BASE_PAGE_SIZE * 0.05)
    aux = footprint // BASE_PAGE_SIZE // 12
    specs = _common_segments(aux, hole_fraction=0.45, hole_max=4) + [
        _heap_spec(hash_pages),
        SegmentSpec("slabs", "mmap", slab_pages),
    ]
    space = build_address_space(specs, ASLRLayout(seed=seed), allocator, seed)
    heap = HeapLayout(_heap_base(space))
    hash_ref = heap.add_array(
        "hash", hash_pages * (BASE_PAGE_SIZE // 8), 8
    )
    slab_ref = ArrayRef(
        "slabs",
        space.segment_base_vpn["slabs"] * BASE_PAGE_SIZE,
        slab_pages * BASE_PAGE_SIZE,
        ELEMENT_STRIDE,
    )

    def trace_fn(num_refs: int, trace_seed: int) -> np.ndarray:
        return memcached_trace(hash_ref, slab_ref, num_refs, trace_seed)

    return BuiltWorkload(info, space, trace_fn)


def _build_mummer(
    info: WorkloadInfo, scale: int, seed: int, allocator: AllocatorModel
) -> BuiltWorkload:
    footprint = info.paper_footprint_bytes // scale
    pages = footprint // BASE_PAGE_SIZE
    ref_pages = pages // 4
    query_pages = pages // 10
    tree_pages = pages - ref_pages - query_pages
    # The suffix tree is built from many node allocations: it carries
    # heavy allocator churn — MUMmer is the paper's least regular space.
    specs = [
        SegmentSpec("text", "text", 1024, perms=Permission.RX, file_backed=True),
        SegmentSpec("data", "data", 512),
        SegmentSpec("reference", "heap", ref_pages),
        SegmentSpec("query", "heap", query_pages),
        SegmentSpec("tree", "mmap", tree_pages, hole_fraction=0.30, hole_max=6),
        SegmentSpec("stack", "stack", 2048),
    ]
    space = build_address_space(specs, ASLRLayout(seed=seed), allocator, seed)
    ref_arr = ArrayRef(
        "reference",
        space.segment_base_vpn["reference"] * BASE_PAGE_SIZE,
        ref_pages * BASE_PAGE_SIZE,
        8,
    )
    query_arr = ArrayRef(
        "query",
        space.segment_base_vpn["query"] * BASE_PAGE_SIZE,
        query_pages * BASE_PAGE_SIZE,
        8,
    )
    tree_vpns = np.concatenate(
        [
            np.arange(v.start_vpn, v.end_vpn)
            for v in space.vmas
            if v.name == "tree"
        ]
    )
    tree_pool = PagePool(tree_vpns, ELEMENT_STRIDE)

    def trace_fn(num_refs: int, trace_seed: int) -> np.ndarray:
        return mummer_trace(ref_arr, tree_pool, query_arr, num_refs, trace_seed)

    return BuiltWorkload(info, space, trace_fn)


def _build_production(
    info: WorkloadInfo, scale: int, seed: int, allocator: AllocatorModel
) -> BuiltWorkload:
    """Production-shaped address space (Figure 2's Workload 1-4): many
    arenas with moderate churn; traces are zipf over the arenas."""
    footprint = info.paper_footprint_bytes // scale
    pages = footprint // BASE_PAGE_SIZE
    idx = int(info.name[-1])
    churn = [0.10, 0.16, 0.22, 0.07][idx - 1]
    num_arenas = [6, 10, 4, 8][idx - 1]
    specs = _common_segments(pages // 16, hole_fraction=churn * 2) + [
        SegmentSpec(
            f"arena{i}", "mmap", pages // num_arenas, hole_fraction=churn,
            hole_max=8,
        )
        for i in range(num_arenas)
    ]
    space = build_address_space(specs, ASLRLayout(seed=seed + idx), allocator, seed)
    arena_vpns = np.concatenate(
        [
            np.arange(v.start_vpn, v.end_vpn)
            for v in space.vmas
            if v.name.startswith("arena")
        ]
    )
    pool = PagePool(arena_vpns, ELEMENT_STRIDE)

    def trace_fn(num_refs: int, trace_seed: int) -> np.ndarray:
        rng = np.random.default_rng(trace_seed)
        return pool.va_of(rng.integers(0, pool.num_elements, size=num_refs))

    return BuiltWorkload(info, space, trace_fn)


_BUILDERS = {
    "graph": _build_graph,
    "gups": _build_gups,
    "memcached": _build_memcached,
    "mummer": _build_mummer,
    "production": _build_production,
}


def build_workload(
    name: str,
    scale: int = FOOTPRINT_SCALE,
    seed: int = 0,
    allocator: AllocatorModel = JEMALLOC,
    footprint_override: Optional[int] = None,
) -> BuiltWorkload:
    """Construct one workload's address space and trace generator.

    ``scale`` divides the paper footprint; ``footprint_override``
    replaces the paper footprint entirely (used by the memcached
    scaling study of section 7.3).
    """
    info = WORKLOADS.get(name) or PRODUCTION_WORKLOADS.get(name)
    if info is None:
        raise KeyError(
            f"unknown workload {name!r}; choose from "
            f"{SUITE + list(PRODUCTION_WORKLOADS)}"
        )
    if footprint_override is not None:
        info = WorkloadInfo(
            info.name, footprint_override, info.kind,
            info.instructions_per_ref, info.description,
        )
    built = _BUILDERS[info.kind](info, scale, seed, allocator)
    # A footprint override or non-default allocator changes the
    # generated addresses without showing up in (name, scale, seed):
    # such workloads must not key into the shared on-disk trace cache.
    if footprint_override is None and allocator is JEMALLOC:
        built.scale = scale
        built.seed = seed
    return built


def workload_from_layout(compiled: CompiledTrace) -> BuiltWorkload:
    """The workload behind a trace-cache hit, without building it.

    ``compiled`` must carry the VMA layout its cache entry stored.  The
    result has the layout's VMAs and segment bases, and ``compiled`` as
    its memoized trace; a trace for any other (refs, seed) builds the
    workload once, on first use.
    """
    spec = compiled.spec
    name, scale, seed = spec["workload"], spec["scale"], spec["workload_seed"]
    rebuilt: List[BuiltWorkload] = []

    def trace_fn(num_refs: int, trace_seed: int) -> np.ndarray:
        if not rebuilt:
            rebuilt.append(build_workload(name, scale=scale, seed=seed))
        return rebuilt[0].trace(num_refs, trace_seed)

    built = BuiltWorkload(
        WORKLOADS.get(name) or PRODUCTION_WORKLOADS[name],
        BuiltAddressSpace.from_layout(compiled.layout),
        trace_fn,
        scale=scale,
        seed=seed,
    )
    memoize_trace(built, compiled)
    return built
