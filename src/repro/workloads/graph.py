"""graphBIG-style graph kernels as memory-access trace generators
(section 6.2: BFS, DFS, CC, DC, PR, SSSP over a Kronecker graph).

Each kernel walks the CSR arrays the way the real benchmark does and
records the virtual addresses it touches: the offsets array (streamed),
the edge array (sequential bursts per vertex), and per-vertex property
arrays (the random component that destroys TLB locality).  The arrays
use a 64-byte element stride, as graphBIG's property structs do, which
also makes the scaled footprint land on the paper's ratios.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.workloads.kronecker import CSRGraph
from repro.workloads.layout import ArrayRef

GRAPH_KERNELS = ("bfs", "dfs", "cc", "dc", "pr", "sssp")


class GraphTracer:
    """Generates access traces for one kernel over one graph."""

    def __init__(
        self,
        graph: CSRGraph,
        offsets_ref: ArrayRef,
        edges_ref: ArrayRef,
        props_ref: ArrayRef,
        seed: int = 0,
    ):
        self.graph = graph
        self.offsets_ref = offsets_ref
        self.edges_ref = edges_ref
        self.props_ref = props_ref
        self.seed = seed

    # -- helpers -------------------------------------------------------
    def _vertex_block(self, vertices: np.ndarray) -> np.ndarray:
        """Accesses for processing a batch of vertices, in true program
        order: per vertex, its offsets read, then alternating edge-array
        and neighbour-property reads for each of its edges."""
        g = self.graph
        starts = g.offsets[vertices]
        stops = g.offsets[vertices + 1]
        degrees = (stops - starts).astype(np.int64)
        total_edges = int(degrees.sum())
        num_v = len(vertices)
        out = np.empty(num_v + 2 * total_edges, dtype=np.int64)
        cum = np.cumsum(degrees) - degrees  # edges before each vertex
        vertex_pos = np.arange(num_v, dtype=np.int64) + 2 * cum
        out[vertex_pos] = self.offsets_ref.va_of(vertices)
        if total_edges > 0:
            base = np.repeat(starts, degrees)
            within = np.arange(total_edges, dtype=np.int64) - np.repeat(cum, degrees)
            edge_idx = base + within
            neighbors = g.edges[edge_idx].astype(np.int64)
            edge_pos = np.repeat(vertex_pos + 1, degrees) + 2 * within
            out[edge_pos] = self.edges_ref.va_of(edge_idx)
            out[edge_pos + 1] = self.props_ref.va_of(neighbors)
        return out

    # -- kernels ----------------------------------------------------------
    def trace(self, kernel: str, num_refs: int) -> np.ndarray:
        if kernel not in GRAPH_KERNELS:
            raise ValueError(f"unknown graph kernel {kernel!r}")
        return getattr(self, f"_trace_{kernel}")(num_refs)

    def _trace_bfs(self, num_refs: int) -> np.ndarray:
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
            starts = g.offsets[frontier]
            degrees = g.offsets[frontier + 1] - starts
            # A vertex adds 1 + 2*degree accesses: once the wavefront
            # reaches num_refs, only its prefix up to that vertex counts.
            reach = count + np.cumsum(1 + 2 * degrees)
            last = int(np.searchsorted(reach, num_refs))
            if last < len(frontier):
                out.append(self._vertex_block(frontier[: last + 1]))
                break
            out.append(self._vertex_block(frontier))
            count = int(reach[-1])
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

    def _trace_dfs(self, num_refs: int) -> np.ndarray:
        g = self.graph
        rng = np.random.default_rng(self.seed)
        visited = np.zeros(g.num_vertices, dtype=bool)
        out: List[int] = []
        stack = [int(rng.integers(g.num_vertices))]
        while stack and len(out) < num_refs:
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = True
            out.append(self.offsets_ref.va_of(v))
            lo, hi = int(g.offsets[v]), int(g.offsets[v + 1])
            for e in range(lo, hi):
                out.append(self.edges_ref.va_of(e))
                n = int(g.edges[e])
                out.append(self.props_ref.va_of(n))
                if not visited[n]:
                    stack.append(n)
            if not stack:
                pending = np.flatnonzero(~visited)
                if len(pending):
                    stack.append(int(pending[0]))
        return np.array(out[:num_refs], dtype=np.int64)

    def _sequential_sweep(
        self, num_refs: int, edge_fraction: float = 1.0, own_prop: bool = False
    ) -> np.ndarray:
        """Vertex-order iteration (PR/CC/DC style): offsets stream, edge
        bursts, and random neighbour-property accesses.

        ``edge_fraction`` < 1 models kernels that skip part of each edge
        list (converged CC components); ``own_prop`` adds a per-vertex
        write to the vertex's own property (PageRank's rank update).
        """
        g = self.graph
        out: List[np.ndarray] = []
        count = 0
        batch = 4096
        v = 0
        rng = np.random.default_rng(self.seed + 7)
        while count < num_refs:
            vertices = np.arange(v, min(v + batch, g.num_vertices), dtype=np.int64)
            if len(vertices) == 0:
                v = 0
                continue
            chunk = self._vertex_block(vertices)
            if edge_fraction < 1.0:
                keep = rng.random(len(chunk)) < edge_fraction
                # Always keep the per-vertex offsets accesses.
                chunk = chunk[keep]
            if own_prop:
                own = self.props_ref.va_of(vertices)
                chunk = np.concatenate([chunk, own])
            out.append(chunk)
            count += len(chunk)
            v += batch
            if v >= g.num_vertices:
                v = 0
        return np.concatenate(out)[:num_refs]

    def _trace_pr(self, num_refs: int) -> np.ndarray:
        # PageRank: full edge sweep plus a rank write per vertex.
        return self._sequential_sweep(num_refs, own_prop=True)

    def _trace_cc(self, num_refs: int) -> np.ndarray:
        # Label propagation: converged regions skip part of each list.
        return self._sequential_sweep(num_refs, edge_fraction=0.7)

    def _trace_dc(self, num_refs: int) -> np.ndarray:
        # Degree centrality: one pass streaming the edge lists while
        # scattering in-degree increments over props[dst] — the edge
        # stream is sequential, the increments are random.
        return self._sequential_sweep(num_refs)

    def _trace_sssp(self, num_refs: int) -> np.ndarray:
        # Bellman-Ford-flavoured: BFS-like wavefronts with an extra
        # distance-array access per relaxed edge.
        bfs = self._trace_bfs(num_refs)
        rng = np.random.default_rng(self.seed + 1)
        extra = self.props_ref.va_of(
            rng.integers(0, self.graph.num_vertices, size=len(bfs) // 3)
        )
        merged = np.empty(len(bfs) + len(extra), dtype=np.int64)
        merged[: len(bfs)] = bfs
        merged[len(bfs):] = extra
        # Interleave deterministically by permutation.
        perm = rng.permutation(len(merged))
        return merged[perm][:num_refs]
