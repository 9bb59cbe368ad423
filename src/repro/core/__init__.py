"""LVM core: the learned-index page table of the paper (section 4)."""

from repro.core.config import LVMConfig
from repro.core.fixed_point import FixedPoint, FixedPointOverflow, linear_predict
from repro.core.gapped_page_table import GappedPageTable, GPTFullError, GPTLookup
from repro.core.learned_index import LearnedIndex, LVMStats, LVMWalk
from repro.core.linear_model import LinearModel, fit_even_division
from repro.core.nodes import InternalNode, LeafNode
from repro.core.spline import num_segments, spline_points

__all__ = [
    "FixedPoint",
    "FixedPointOverflow",
    "GPTFullError",
    "GPTLookup",
    "GappedPageTable",
    "InternalNode",
    "LVMConfig",
    "LVMStats",
    "LVMWalk",
    "LeafNode",
    "LearnedIndex",
    "LinearModel",
    "fit_even_division",
    "linear_predict",
    "num_segments",
    "spline_points",
]
