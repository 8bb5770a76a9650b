"""Periodic coefficients and the first-order system for the 1D Dirac operator.

The operator acts on pairs y = (y1, y2) as

    L y = J y' + P(x) y,   J = [[0, -1], [1, 0]],
    P(x) = [[p(x) + V(x), q(x)], [q(x), -p(x) - V(x)]],

with p, q real and 1-periodic and V a decaying perturbation.  Writing
L y = lam * y componentwise gives the system integrated here:

    y1' = -q(x) y1 + (lam + p(x) + V(x)) y2
    y2' = (p(x) + V(x) - lam) y1 + q(x) y2

In the free case (p = q = V = 0) the flow is the clockwise rotation
y1 + i y2 -> exp(-i lam x) (y1(0) + i y2(0)).  The coefficient matrix is
trace-free, so Wronskians of solution pairs are constants of motion.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from ._util import frac
from .errors import NonFiniteState, StepSizeUnderflow

__all__ = [
    "PeriodicCoefficient",
    "Trajectory",
    "eval_coefficient",
    "dirac_rhs",
    "integrate",
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
        """The series of a JSON block; a ValueError names a mistyped key."""
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {d!r}")
        a0, cos, sin = d.get("a0", 0.0), d.get("cos", []), d.get("sin", [])
        for key, vals in (("a0", [a0]), ("cos", cos), ("sin", sin)):
            if not isinstance(vals, (list, tuple)) \
                    or not all(isinstance(v, numbers.Real) for v in vals):
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


def dirac_rhs(p: PeriodicCoefficient, q: PeriodicCoefficient, lam: float, V=None):
    """Right-hand side of the system at spectral parameter lam.

    The optional decaying perturbation V(x) is added to p.  y[0] and y[1]
    may be scalars or equal-length rows (the rows of a fundamental matrix).
    """

    def rhs(x, y):
        pv = eval_coefficient(p, x)
        if V is not None:
            pv = pv + V(x)
        qv = eval_coefficient(q, x)
        return np.array(
            [
                -qv * y[0] + (lam + pv) * y[1],
                (pv - lam) * y[0] + qv * y[1],
            ]
        )

    return rhs


@dataclass
class Trajectory:
    """Adaptive solution at the recorded nodes."""

    xs: np.ndarray
    ys: np.ndarray  # shape (len(xs), dim)
    nfev: int = 0


def integrate(rhs, x0: float, x1: float, y0, rtol: float, atol: float,
              t_eval=None) -> Trajectory:
    """Integrate y' = rhs(x, y) from x0 to x1 with an 8th-order adaptive scheme
    at relative and absolute tolerances rtol and atol.

    Raises NonFiniteState if the state leaves the finite range and
    StepSizeUnderflow if the step controller stalls.
    """
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise NonFiniteState("initial state is not finite")
    if x1 == x0:
        return Trajectory(xs=np.array([x0]), ys=y0[None, :].copy())

    sol = solve_ivp(rhs, (x0, x1), y0, method="DOP853", rtol=rtol,
                    atol=atol, t_eval=t_eval)
    if not sol.success:
        last = np.asarray(sol.y[:, -1]) if sol.y.size else y0
        if not np.all(np.isfinite(last)) or np.max(np.abs(last)) > 1e100:
            raise NonFiniteState(f"state not finite near x={sol.t[-1] if sol.t.size else x0}")
        raise StepSizeUnderflow(sol.message)
    if not np.all(np.isfinite(sol.y)):
        raise NonFiniteState("integration produced non-finite samples")
    return Trajectory(xs=sol.t, ys=sol.y.T, nfev=sol.nfev)
