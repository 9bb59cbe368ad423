"""Kronecker (RMAT) graph generation — the graphBIG input (section 6.2).

The paper's graph workloads "take a Kronecker graph that produces a
runtime memory footprint of 75GB".  We generate the same family of
graphs (RMAT with the standard Graph500 parameters) at a scaled size
and build a CSR representation the kernels traverse.

Six suite workloads trace this graph, and cached traces and layouts are
keyed by ``GENERATOR_VERSION`` (``workloads/compile.py``), not by the
graph's bytes.  So the generator keeps three things exactly:

* the draws: ``E`` float64 ``rng.random`` draws per bit from
  ``default_rng(seed)``, bits most significant first, then one
  ``permutation`` from ``default_rng(seed + 0x5EED)`` when scrambling.
  How the draws are split into calls is free: each float64 draw takes
  one generator step, so blocks of any size give the same stream;
* the bit identity: with the nested thresholds ``a < a+b < a+b+c``, the
  source bit is ``r >= a+b`` and the destination bit is the parity of
  the three threshold tests (quadrants b and d);
* the CSR order: a vertex's neighbours appear in the order a stable
  sort by source of the symmetrized pair list (forward pairs, then
  reversed ones) puts them.

Any change to the output (an id, an order or a dtype of ``offsets`` or
``edges``) must bump ``GENERATOR_VERSION``; ``tests/test_workloads.py``
pins the bytes against the original generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Graph500 RMAT probabilities.
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19


@dataclass
class CSRGraph:
    """Compressed-sparse-row adjacency."""

    offsets: np.ndarray  # int64[num_vertices + 1]
    edges: np.ndarray  # int32[num_edges]

    @property
    def num_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.edges[self.offsets[v] : self.offsets[v + 1]]


#: Draws per block of a bit's ``rng.random`` stream: a block and its
#: masks stay in the L2 cache while every comparison reads them.
_BLOCK = 1 << 16


def rmat_edges(scale: int, edge_factor: int, seed: int = 0) -> np.ndarray:
    """Sample RMAT edge pairs: shape (2, E) with E = edge_factor * 2^scale.

    Bit ``k`` of every id (most significant first) comes from the
    ``k``-th ``E`` draws of ``rng.random``, taken in blocks into one
    reused buffer.  The quadrant thresholds are nested, so the source
    bit is ``r >= a+b`` and the destination bit (quadrants b and d) is
    the parity of ``r >= a``, ``r >= a+b`` and ``r >= a+b+c``.  The bits
    accumulate eight at a time in byte planes, joined into ids at the
    end.
    """
    rng = np.random.default_rng(seed)
    num_edges = edge_factor << scale
    planes = np.zeros((2, -(-scale // 8), num_edges), dtype=np.uint8)
    buf = np.empty(min(_BLOCK, num_edges))
    above_buf = np.empty(len(buf), dtype=bool)
    for k in range(scale):
        src_plane, dst_plane = planes[:, k // 8]
        for lo in range(0, num_edges, _BLOCK):
            r = rng.random(out=buf[: min(_BLOCK, num_edges - lo)])
            above = above_buf[: len(r)]
            bit = above.view(np.uint8)
            src = src_plane[lo : lo + len(r)]
            dst = dst_plane[lo : lo + len(r)]
            # Doubling shifts the plane's earlier bits up by one.
            src += src
            dst += dst
            # Quadrant choice per RMAT: a (0,0), b (0,1), c (1,0), d (1,1).
            np.greater_equal(r, RMAT_A + RMAT_B, out=above)
            src |= bit
            dst ^= bit
            np.greater_equal(r, RMAT_A, out=above)
            dst ^= bit
            np.greater_equal(r, RMAT_A + RMAT_B + RMAT_C, out=above)
            dst ^= bit
    pairs = np.zeros((2, num_edges), dtype=np.int32 if scale < 32 else np.int64)
    for k in range(planes.shape[1]):
        pairs <<= min(8, scale - 8 * k)
        pairs |= planes[:, k]
    return pairs


def kronecker_graph(
    scale: int, edge_factor: int = 16, seed: int = 0, scramble: bool = True
) -> CSRGraph:
    """Build a CSR Kronecker graph with 2^scale vertices.

    ``scramble`` applies the standard Graph500 vertex-id permutation:
    raw RMAT ids correlate with degree (low ids are hubs), which would
    unrealistically concentrate traversal traffic on a few pages.
    """
    # The CSR sort key holds a vertex id above a position among the at
    # most 2E symmetrized entries.
    tag_bits = (2 * (edge_factor << scale)).bit_length()
    if scale + tag_bits > 62:
        raise ValueError(f"{scale}-bit graph with edge factor {edge_factor} is too large")
    pairs = rmat_edges(scale, edge_factor, seed)
    if scramble:
        rng = np.random.default_rng(seed + 0x5EED)
        pairs = rng.permutation(1 << scale).astype(pairs.dtype)[pairs]
    # Drop self-loops, symmetrize (graphBIG inputs are undirected).
    keep = pairs[0] != pairs[1]
    src, dst = pairs[0][keep], pairs[1][keep]
    heads = np.concatenate([src, dst])
    tails = np.concatenate([dst, src])
    # Each head's tails in input order: a stable sort by head.  Tagging
    # each head with its position (low bits) makes the keys distinct, so
    # one in-place sort yields that order, and a vertex's offset is
    # where its tagged keys begin.
    num_vertices = 1 << scale
    tagged = heads.astype(np.int64) << tag_bits
    tagged |= np.arange(len(heads))
    tagged.sort()
    offsets = np.searchsorted(tagged, np.arange(num_vertices + 1) << tag_bits)
    tagged &= (1 << tag_bits) - 1
    return CSRGraph(offsets=offsets, edges=tails[tagged].astype(np.int32, copy=False))
