"""Tests for workload builders and trace generators."""

import hashlib
from typing import List

import numpy as np
import pytest

from repro.workloads import (
    GRAPH_KERNELS,
    JEMALLOC,
    PRODUCTION_WORKLOADS,
    SUITE,
    TCMALLOC,
    build_workload,
    kronecker_graph,
    zipf_ranks,
)
from repro.workloads.graph import GraphTracer
from repro.workloads.kronecker import RMAT_A, RMAT_B, RMAT_C, CSRGraph
from repro.workloads.layout import ArrayRef, HeapLayout, PagePool


def trace_in_bounds(workload, trace):
    vpns = np.unique(trace >> 12)
    intervals = sorted((v.start_vpn, v.end_vpn) for v in workload.vmas)
    starts = np.array([a for a, _ in intervals])
    ends = np.array([b for _, b in intervals])
    idx = np.searchsorted(starts, vpns, side="right") - 1
    return bool(np.all((idx >= 0) & (vpns < ends[np.clip(idx, 0, None)])))


class TestSuite:
    def test_nine_workloads(self):
        assert len(SUITE) == 9
        assert set(GRAPH_KERNELS) < set(SUITE)
        assert {"gups", "mem$", "MUMr"} < set(SUITE)

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            build_workload("nope")

    @pytest.mark.parametrize("name", ["gups", "mem$", "MUMr", "dc", "prod1"])
    def test_traces_stay_in_mapped_space(self, name):
        workload = build_workload(name)
        trace = workload.trace(20_000, seed=3)
        assert len(trace) == 20_000
        assert trace_in_bounds(workload, trace)

    def test_traces_deterministic_by_seed(self):
        w = build_workload("gups")
        a = w.trace(1000, seed=5)
        b = w.trace(1000, seed=5)
        c = w.trace(1000, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_footprints_scale(self):
        small = build_workload("gups", scale=128)
        large = build_workload("gups", scale=32)
        assert large.space.total_pages > 2 * small.space.total_pages

    def test_gap_coverage_in_paper_band(self):
        coverages = {}
        for name in ("bfs", "gups", "mem$", "MUMr"):
            coverages[name] = build_workload(name).space.gap_coverage()
        # Paper Figure 2: minimum ~78%, most workloads much higher.
        assert all(c >= 0.75 for c in coverages.values())
        assert coverages["MUMr"] == min(coverages.values())
        assert coverages["gups"] > 0.99

    def test_allocators_practically_identical(self):
        a = build_workload("MUMr", allocator=JEMALLOC).space.gap_coverage()
        b = build_workload("MUMr", allocator=TCMALLOC).space.gap_coverage()
        assert abs(a - b) < 0.02

    def test_production_workloads_exist(self):
        for name in PRODUCTION_WORKLOADS:
            built = build_workload(name)
            assert built.space.gap_coverage() > 0.7

    def test_footprint_override(self):
        small = build_workload("mem$", footprint_override=8 << 30)
        default = build_workload("mem$")
        assert small.space.total_pages < default.space.total_pages


class TestKronecker:
    def test_csr_well_formed(self):
        g = kronecker_graph(10, edge_factor=4, seed=1)
        assert g.num_vertices == 1024
        assert g.offsets[0] == 0
        assert g.offsets[-1] == g.num_edges
        assert np.all(np.diff(g.offsets) >= 0)
        assert g.edges.max() < g.num_vertices

    def test_symmetric(self):
        g = kronecker_graph(8, edge_factor=4, seed=2)
        # Undirected: total degree is even and edges come in pairs.
        assert g.num_edges % 2 == 0

    def test_no_self_loops(self):
        g = kronecker_graph(8, edge_factor=4, seed=3)
        for v in range(g.num_vertices):
            assert v not in g.neighbors(v)

    def test_scramble_breaks_degree_id_correlation(self):
        raw = kronecker_graph(10, edge_factor=8, seed=4, scramble=False)
        mixed = kronecker_graph(10, edge_factor=8, seed=4, scramble=True)
        degrees_raw = np.diff(raw.offsets)
        degrees_mixed = np.diff(mixed.offsets)
        n = raw.num_vertices
        low_raw = degrees_raw[: n // 8].sum() / max(1, degrees_raw.sum())
        low_mixed = degrees_mixed[: n // 8].sum() / max(1, degrees_mixed.sum())
        # Raw RMAT concentrates edges on low ids; scrambled does not.
        assert low_raw > 2 * low_mixed

    def test_oversized_graph_rejected_before_sampling(self):
        # 29 id bits above 34 position bits do not fit the sort keys.
        with pytest.raises(ValueError):
            kronecker_graph(29, edge_factor=8)


# The original generator, kept as the reference for the generator's
# bytes: one stable sort of int64 keys and int64 temporaries per bit.
def _reference_rmat_edges(scale: int, edge_factor: int, seed: int = 0) -> np.ndarray:
    """Sample RMAT edge pairs: shape (2, E) with E = edge_factor * 2^scale."""
    rng = np.random.default_rng(seed)
    num_edges = edge_factor << scale
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(num_edges)
        # Quadrant choice per RMAT: a (0,0), b (0,1), c (1,0), d (1,1).
        src_bit = (r >= RMAT_A + RMAT_B).astype(np.int64)
        dst_bit = (
            ((r >= RMAT_A) & (r < RMAT_A + RMAT_B))
            | (r >= RMAT_A + RMAT_B + RMAT_C)
        ).astype(np.int64)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    return np.stack([src, dst])


def _reference_kronecker_graph(
    scale: int, edge_factor: int = 16, seed: int = 0, scramble: bool = True
) -> CSRGraph:
    pairs = _reference_rmat_edges(scale, edge_factor, seed)
    src, dst = pairs[0], pairs[1]
    if scramble:
        rng = np.random.default_rng(seed + 0x5EED)
        perm = rng.permutation(1 << scale)
        src = perm[src]
        dst = perm[dst]
    # Drop self-loops, symmetrize (graphBIG inputs are undirected).
    keep = src != dst
    src, dst = src[keep], dst[keep]
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    order = np.argsort(all_src, kind="stable")
    all_src = all_src[order]
    all_dst = all_dst[order]
    num_vertices = 1 << scale
    counts = np.bincount(all_src, minlength=num_vertices)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CSRGraph(offsets=offsets, edges=all_dst.astype(np.int32))


#: (scale, edge factor, seed, scramble): every combination at scale 8,
#: then each larger scale with a spread of the other three, and one
#: graph whose 81,920 draws per bit end in a partial block.
_GENERATOR_CASES = [
    (8, edge_factor, seed, scramble)
    for edge_factor in (1, 4, 8)
    for seed in (0, 1, 11)
    for scramble in (True, False)
] + [
    (10, 4, 1, True),
    (10, 8, 11, False),
    (14, 1, 11, True),
    (14, 8, 0, False),
    (16, 4, 1, True),
    (16, 8, 11, False),
    (17, 1, 0, True),
    (17, 4, 11, False),
    (17, 8, 1, True),
    (14, 5, 1, True),
]


class TestGeneratorBytes:
    """Every trace, layout and cache key of the six graph workloads rests
    on the generator's bytes, and ``GENERATOR_VERSION`` only changes
    when they do."""

    @pytest.mark.parametrize("scale,edge_factor,seed,scramble", _GENERATOR_CASES)
    def test_matches_the_original_generator(self, scale, edge_factor, seed, scramble):
        got = kronecker_graph(scale, edge_factor=edge_factor, seed=seed, scramble=scramble)
        want = _reference_kronecker_graph(scale, edge_factor, seed, scramble)
        for column in ("offsets", "edges"):
            assert getattr(got, column).dtype == getattr(want, column).dtype
            assert np.array_equal(getattr(got, column), getattr(want, column))

    @pytest.mark.parametrize(
        "seed,offsets_sha256,edges_sha256",
        [
            (
                1,
                "779c1067a581a4d9130940b0fd4eb3eb20b7f88a34489a270acbd3b5502a8daa",
                "051258dce5e3f79da4f370b39912368937d8527aa81831d2b9f71d6ea5c9441c",
            ),
            (
                11,
                "05862fda73ae6dd1819ba159ae149dff6a28e52067721a5566d957a4cee28f27",
                "6859784be6c3ef9054687ebdfecdfd8ef89e2764a917f1e87c2ac1f1ef1c47a5",
            ),
        ],
    )
    def test_suite_graphs_pinned(self, seed, offsets_sha256, edges_sha256):
        # bfs at footprint scale 256 traces this graph; perfbench's suite
        # digests at seeds 1 and 11 rest on it.
        g = kronecker_graph(18, edge_factor=8, seed=seed)
        assert (g.offsets.dtype, g.edges.dtype) == (np.int64, np.int32)
        assert hashlib.sha256(g.offsets.tobytes()).hexdigest() == offsets_sha256
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == edges_sha256


# The BFS trace before it stopped at the vertex that reaches num_refs:
# it built the whole last wavefront (and the next frontier), then cut.
def _reference_trace_bfs(self, num_refs: int) -> np.ndarray:
    g = self.graph
    rng = np.random.default_rng(self.seed)
    visited = np.zeros(g.num_vertices, dtype=bool)
    out: List[np.ndarray] = []
    count = 0
    frontier = np.array([rng.integers(g.num_vertices)], dtype=np.int64)
    visited[frontier] = True
    while count < num_refs:
        if len(frontier) == 0:
            # Disconnected remainder: restart from an unvisited seed.
            pending = np.flatnonzero(~visited)
            if len(pending) == 0:
                break
            frontier = pending[:1].astype(np.int64)
            visited[frontier] = True
        chunk = self._vertex_block(frontier)
        out.append(chunk)
        count += len(chunk)
        starts = g.offsets[frontier]
        stops = g.offsets[frontier + 1]
        degrees = (stops - starts).astype(np.int64)
        base = np.repeat(starts, degrees)
        within = np.arange(int(degrees.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(degrees) - degrees, degrees
        )
        neighbors = g.edges[base + within].astype(np.int64)
        fresh = neighbors[~visited[neighbors]]
        fresh = np.unique(fresh)
        visited[fresh] = True
        frontier = fresh
    return np.concatenate(out)[:num_refs] if out else np.empty(0, np.int64)


def _tracer(graph: CSRGraph, seed: int) -> GraphTracer:
    n, e = graph.num_vertices, graph.num_edges
    return GraphTracer(
        graph,
        ArrayRef("offsets", 1 << 20, (n + 1) * 8, 8),
        ArrayRef("edges", 1 << 30, e * 8, 8),
        ArrayRef("props", 1 << 40, n * 1024, 1024),
        seed,
    )


class TestBFSTrace:
    def _assert_matches(self, tracer, num_refs):
        got = tracer.trace("bfs", num_refs)
        want = _reference_trace_bfs(tracer, num_refs)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    # Seeds whose BFS starts at vertex 3, 1, 5, 4, 6 and 7.
    @pytest.mark.parametrize("seed", [1, 11, 4, 12, 0, 7])
    def test_every_length_on_a_small_graph(self, seed):
        # A 4-cycle 0-1-3-2, the edge 4-5, and isolated 6 and 7: blocks
        # of 5, 3 and 1 accesses, 28 in all.  Every length from 0 to past
        # the graph ends mid-vertex, on a vertex boundary inside a
        # wavefront, in a later component (after a restart) or past the
        # graph.
        adjacency = [[1, 2], [0, 3], [0, 3], [1, 2], [5], [4], [], []]
        offsets = np.cumsum([0] + [len(a) for a in adjacency], dtype=np.int64)
        edges = np.array([v for a in adjacency for v in a], dtype=np.int32)
        tracer = _tracer(CSRGraph(offsets, edges), seed)
        for num_refs in range(32):
            self._assert_matches(tracer, num_refs)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_prefixes_on_a_kronecker_graph(self, seed):
        tracer = _tracer(kronecker_graph(10, edge_factor=2, seed=seed), seed)
        whole = len(_reference_trace_bfs(tracer, 1 << 30))
        # Isolated vertices finish the traversal, one access each.
        for num_refs in (1, 2, 100, 1001, whole // 2, whole - 5, whole, whole + 1):
            self._assert_matches(tracer, num_refs)


class TestGraphTraces:
    @pytest.mark.parametrize("kernel", GRAPH_KERNELS)
    def test_kernel_traces(self, kernel):
        workload = build_workload(kernel)
        trace = workload.trace(5000, seed=1)
        assert len(trace) == 5000
        assert trace_in_bounds(workload, trace)

    def test_random_kernels_touch_many_pages(self):
        workload = build_workload("bfs")
        trace = workload.trace(30_000, seed=1)
        assert len(np.unique(trace >> 12)) > 3000


class TestLayoutHelpers:
    def test_heap_layout_sequential(self):
        heap = HeapLayout(base_vpn=100)
        a = heap.add_array("a", 1000, 8)
        b = heap.add_array("b", 1000, 8)
        assert a.base_va == 100 << 12
        assert b.base_va > a.base_va + a.nbytes - 1
        assert b.base_va % 4096 == 0

    def test_array_ref_va(self):
        ref = ArrayRef("x", 0x10000, 800, 8)
        assert ref.va_of(0) == 0x10000
        assert ref.va_of(10) == 0x10000 + 80
        assert ref.num_elements == 100

    def test_page_pool(self):
        pool = PagePool([5, 9, 100], stride=64)
        assert pool.num_elements == 3 * 64
        assert pool.va_of(0) == 5 << 12
        assert pool.va_of(64) == 9 << 12
        assert pool.va_of(65) == (9 << 12) + 64

    def test_zipf_skew(self):
        rng = np.random.default_rng(0)
        ranks = zipf_ranks(10_000, 0.99, 50_000, rng)
        top = (ranks < 100).mean()
        assert top > 0.2  # heavy head
        assert ranks.max() < 10_000
