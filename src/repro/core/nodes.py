"""Node structures of the LVM learned index (paper section 4.2.1).

Internal nodes hold a linear model routing VPNs to children; leaf nodes
hold a linear model predicting the slot of a translation entry inside
their private gapped page table.  Every node is 16 bytes in hardware
(Q44.20 slope + intercept); nodes of one depth are stored consecutively
in physical memory so a (level, offset) pair identifies a node and its
physical address — no child pointers are stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

from repro.core.fixed_point import MODEL_BYTES
from repro.core.gapped_page_table import GappedPageTable
from repro.core.linear_model import LinearModel


@dataclass
class LeafNode:
    """A leaf: model + gapped page table for part of the key space."""

    lo: int  # first VPN covered (inclusive)
    hi: int  # one-past-last VPN covered
    model: LinearModel  # scaled: VPN -> gapped-table slot
    table: GappedPageTable
    depth: int
    offset: int = 0  # index within this depth's node array
    search_window: int = 0  # bounded-search width in slots
    num_keys: int = 0  # keys present at (re)build time
    # True when the node was built past the C_err bound (pathological
    # key space at the depth/coverage guardrails).  Inserts into a
    # degraded leaf accept arbitrary displacement instead of triggering
    # rebuilds that cannot improve the structure.
    degraded: bool = False
    # Degraded leaves are bulk-packed in key order at build time, which
    # enables the paper's bounded *binary* search; a later single
    # insert may break the order, reverting lookups to the linear scan.
    sorted_layout: bool = False

    def predict_slot(self, vpn: int) -> int:
        return self.model.predict(vpn)

    @property
    def size_bytes(self) -> int:
        return MODEL_BYTES


@dataclass
class InternalNode:
    """An internal node: model + children evenly dividing [lo, hi)."""

    lo: int
    hi: int
    model: LinearModel  # VPN -> child index
    children: List["Node"] = field(default_factory=list)
    depth: int = 0
    offset: int = 0

    def route(self, vpn: int) -> int:
        """Child index for a VPN, clamped to the valid range.

        Clamping makes lookups of keys just outside [lo, hi) — which
        appear after edge expansions (section 4.3.4) — fall through the
        correct edge spine instead of faulting.
        """
        idx = self.model.predict(vpn)
        if idx < 0:
            return 0
        last = len(self.children) - 1
        return idx if idx <= last else last

    def child_lower_bound(self, index: int) -> int:
        """Smallest VPN the quantized model routes to ``index``.

        Solves ``(slope*x + intercept) >> 20 >= index`` exactly, so the
        build-time partitioning agrees bit-for-bit with hardware
        routing.
        """
        if index <= 0:
            return self.lo
        slope = self.model.slope_raw
        if slope <= 0:
            return self.hi
        threshold = index << 20
        x = -(-(threshold - self.model.intercept_raw) // slope)
        return max(self.lo, min(self.hi, x))

    @property
    def size_bytes(self) -> int:
        return MODEL_BYTES


Node = Union[LeafNode, InternalNode]


def iter_nodes(root: Node):
    """Yield every node of the tree in breadth-first order."""
    frontier: List[Node] = [root]
    while frontier:
        nxt: List[Node] = []
        for node in frontier:
            yield node
            if isinstance(node, InternalNode):
                nxt.extend(node.children)
        frontier = nxt


def assign_offsets(root: Node) -> List[int]:
    """Assign per-level offsets in BFS order; return node count per level.

    The physical address of node (level, offset) is
    ``level_base[level] + offset * MODEL_BYTES``; the OS programs the
    ``level_base`` values into the d_limit control registers
    (section 4.6.2).
    """
    counts: List[int] = []
    frontier: List[Node] = [root]
    while frontier:
        nxt: List[Node] = []
        for i, node in enumerate(frontier):
            node.offset = i
            if isinstance(node, InternalNode):
                nxt.extend(node.children)
        counts.append(len(frontier))
        frontier = nxt
    return counts


def tree_depth(root: Node) -> int:
    """Number of model levels (1 for a lone leaf)."""
    depth = 0
    node = root
    best = 1
    frontier = [(root, 1)]
    while frontier:
        node, depth = frontier.pop()
        if depth > best:
            best = depth
        if isinstance(node, InternalNode):
            frontier.extend((c, depth + 1) for c in node.children)
    return best


def leaf_nodes(root: Node) -> List[LeafNode]:
    return [n for n in iter_nodes(root) if isinstance(n, LeafNode)]
