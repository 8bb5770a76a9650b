"""Periodic coefficients and the first-order system for the 1D Dirac operator.

The operator acts on pairs y = (y1, y2) as

    L y = J y' + P(x) y,   J = [[0, -1], [1, 0]],
    P(x) = [[p(x) + V(x), q(x)], [q(x), -p(x) - V(x)]],

with p, q real and 1-periodic and V a decaying perturbation.  Writing
L y = lam * y componentwise gives the system:

    y1' = -q(x) y1 + (lam + p(x) + V(x)) y2
    y2' = (p(x) + V(x) - lam) y1 + q(x) y2

In the free case (p = q = V = 0) the flow is the clockwise rotation
y1 + i y2 -> exp(-i lam x) (y1(0) + i y2(0)).  The coefficient matrix is
trace-free, so Wronskians of solution pairs are constants of motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import frac, is_number

__all__ = [
    "PeriodicCoefficient",
    "eval_coefficient",
]


@dataclass(frozen=True)
class PeriodicCoefficient:
    """Truncated Fourier series a0/2 + sum_n (cos_n cos 2pi n x + sin_n sin 2pi n x)."""

    a0: float = 0.0
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cos", tuple(float(c) for c in self.cos))
        object.__setattr__(self, "sin", tuple(float(s) for s in self.sin))
        object.__setattr__(self, "a0", float(self.a0))
        vals = (self.a0,) + self.cos + self.sin
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("coefficient series must be finite")

    @property
    def is_constant(self) -> bool:
        return not any(self.cos) and not any(self.sin)

    def to_dict(self) -> dict:
        return {"a0": self.a0, "cos": list(self.cos), "sin": list(self.sin)}

    @classmethod
    def from_dict(cls, d: dict) -> "PeriodicCoefficient":
        """The series of a JSON block; a ValueError names a mistyped or an
        unknown key."""
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {d!r}")
        unknown = sorted(set(d) - {"a0", "cos", "sin"})
        if unknown:
            raise ValueError(f"{unknown[0]}: unknown coefficient key")
        a0, cos, sin = d.get("a0", 0.0), d.get("cos", []), d.get("sin", [])
        for key, vals in (("a0", [a0]), ("cos", cos), ("sin", sin)):
            if not isinstance(vals, (list, tuple)) \
                    or not all(is_number(v) for v in vals):
                raise ValueError(f"{key}: expected numbers, got {d[key]!r}")
        return cls(a0, tuple(cos), tuple(sin))


def eval_coefficient(coeff: PeriodicCoefficient, x):
    """Evaluate the series at x (scalar or array).

    The argument is reduced to its fractional part first, so values at x
    and x + 1 agree exactly, not just to rounding of 2*pi*(x+1).
    """
    t = frac(np.float64(x) if isinstance(x, float) else np.asarray(x, dtype=float))
    out = np.full_like(t, coeff.a0 / 2.0) if t.ndim else np.float64(coeff.a0 / 2.0)
    for n, c in enumerate(coeff.cos, start=1):
        if c:
            out += c * np.cos(2.0 * np.pi * n * t)
    for n, s in enumerate(coeff.sin, start=1):
        if s:
            out += s * np.sin(2.0 * np.pi * n * t)
    return out if out.ndim else float(out)
