"""Spline-point estimation for the cost model (paper section 4.2.3).

The cost model needs a quick estimate of how many children a node should
have.  Following RadixSpline [Kipf et al. 2020], we compute *spline
points*: a greedy error-bounded piecewise-linear approximation of the
key CDF.  Each spline point starts a new linear segment; the number of
segments measures the complexity of the key distribution inside the
node, and the paper uses it as the seed value around which the cost
model searches (±2).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def spline_points(keys: Sequence[int], max_error: int = 32) -> List[int]:
    """Greedy one-pass spline over sorted ``keys``.

    Returns the indexes (into ``keys``) of the spline knots.  A knot is
    placed whenever extending the current linear segment would let some
    covered key's predicted position drift more than ``max_error`` slots
    from its true position.  The algorithm is the classic shrinking-cone
    construction: maintain the feasible slope interval for the segment
    and cut when it empties.

    The cone grows over NumPy chunks of keys.  A running max/min is the
    same sequence of comparisons as the one-key-at-a-time loop, and each
    candidate slope is one IEEE division of two integers below 2**53
    (keys are VPNs, below 2**35), which converts to float64 exactly and
    rounds as Python's ``int / int`` does: the knots are identical.
    Every segment spans at least ``max_error`` + 1 keys (the cone holds
    slope 0 until then), so chunks start at twice that length and
    double while no cut falls inside them.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    if n == 0:
        return []
    if n <= 2:
        return [0] if n == 1 else [0, n - 1]

    knots = [0]
    anchor = 0
    lo_slope = float("-inf")
    hi_slope = float("inf")
    min_chunk = 2 * (max_error + 1)
    chunk = min_chunk
    i = 1
    while i < n:
        stop = min(n, i + chunk)
        dx = keys[i:stop] - keys[anchor]
        dy = np.arange(i - anchor, stop - anchor, dtype=np.int64)
        # Feasible slopes keep each point within +-max_error positions;
        # a point at the anchor's key (dx == 0) leaves the cone as is.
        moved = dx != 0
        cand_lo = np.divide(
            dy - max_error, dx, out=np.full(len(dx), -np.inf), where=moved
        )
        cand_hi = np.divide(
            dy + max_error, dx, out=np.full(len(dx), np.inf), where=moved
        )
        run_lo = np.maximum(lo_slope, np.maximum.accumulate(cand_lo))
        run_hi = np.minimum(hi_slope, np.minimum.accumulate(cand_hi))
        collapsed = np.flatnonzero(run_lo > run_hi)
        if not len(collapsed):
            lo_slope, hi_slope = float(run_lo[-1]), float(run_hi[-1])
            i = stop
            chunk *= 2
            continue
        # Cone collapsed at key j: start a new segment at key j - 1.
        j = i + int(collapsed[0])
        knots.append(j - 1)
        chunk = max(min_chunk, 2 * (j - 1 - anchor))
        anchor = j - 1
        dx0 = int(keys[j] - keys[anchor])
        if dx0 > 0:
            lo_slope = (1 - max_error) / dx0
            hi_slope = (1 + max_error) / dx0
        else:
            lo_slope, hi_slope = float("-inf"), float("inf")
        i = j + 1
    if knots[-1] != n - 1:
        knots.append(n - 1)
    return knots


def num_segments(keys: Sequence[int], max_error: int = 32) -> int:
    """Number of linear segments needed to cover ``keys``.

    This is the cost model's estimate of the useful child count for a
    node (the paper evaluates child counts within ±2 of this value).
    """
    pts = spline_points(keys, max_error)
    return max(1, len(pts) - 1)
