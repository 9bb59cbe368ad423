"""Linear models for the LVM learned index (paper sections 4.2.1, 4.3.2).

Two flavours are needed:

* *internal-node models* evenly divide a parent's key range among its
  children, so the line is exact by construction;
* *leaf models* are fit with least-squares regression over
  ``(VPN, position)`` pairs, then scaled by ``ga_scale`` to spread the
  keys across a gapped array (``cost_model.fit_keys`` and
  ``cost_model.scale_model``); the leaf records the max prediction
  error so lookups can bound their search (section 4.3.3).

All models store parameters in Q44.20 fixed point; predictions use only
integer arithmetic, matching the hardware datapath.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fixed_point import linear_predict, quantize


@dataclass(frozen=True)
class LinearModel:
    """``y = floor(a*x + b)`` with quantized Q44.20 parameters."""

    slope_raw: int
    intercept_raw: int

    @staticmethod
    def from_floats(slope: float, intercept: float) -> "LinearModel":
        return LinearModel(quantize(slope), quantize(intercept))

    def predict(self, x: int) -> int:
        return linear_predict(self.slope_raw, self.intercept_raw, x)

    @property
    def slope(self) -> float:
        return self.slope_raw / (1 << 20)

    @property
    def intercept(self) -> float:
        return self.intercept_raw / (1 << 20)


def fit_even_division(lo: int, hi: int, num_children: int) -> LinearModel:
    """Model mapping keys in ``[lo, hi)`` to child indexes ``0..n-1``.

    The children evenly divide the parent's key space (section 4.3.2),
    so the relationship is perfectly linear: ``child = (x - lo) * n /
    (hi - lo)``.  No regression is needed.
    """
    if hi <= lo:
        raise ValueError(f"empty key range [{lo}, {hi})")
    if num_children < 1:
        raise ValueError("need at least one child")
    slope = num_children / (hi - lo)
    intercept = -lo * slope
    return LinearModel.from_floats(slope, intercept)

