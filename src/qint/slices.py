"""Slice geometry: each non-real quaternion x lives in a commutative plane
spanned by 1 and a unit imaginary u. Function evaluation, derivatives, and
increment splitting all happen in that plane.
"""

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DegenerateSliceError
from .functions import AnalyticFunction
from .quaternion import Quaternion

# Imaginary radius at or below this counts as "on the real axis".
EPS_AXIS = 1e-12


@dataclass(frozen=True, slots=True)
class UnitImaginary:
    """A quaternion with zero scalar part and unit norm; squares to -1.

    The vector part passed in is renormalized; the scalar part must be
    exactly zero.
    """

    value: Quaternion

    def __post_init__(self):
        v = self.value
        if v.w != 0.0:
            raise ValueError("unit imaginary must have zero scalar part")
        n = math.sqrt(v.x1 * v.x1 + v.x2 * v.x2 + v.x3 * v.x3)
        if n <= EPS_AXIS:
            raise DegenerateSliceError("cannot normalize a (near-)zero vector part")
        object.__setattr__(self, "value", Quaternion(0.0, v.x1 / n, v.x2 / n, v.x3 / n))

    @property
    def x1(self) -> float:
        return self.value.x1

    @property
    def x2(self) -> float:
        return self.value.x2

    @property
    def x3(self) -> float:
        return self.value.x3

    def scaled(self, b: float) -> Quaternion:
        return Quaternion(0.0, b * self.value.x1, b * self.value.x2, b * self.value.x3)


@dataclass(frozen=True, slots=True)
class SlicePoint:
    """x rewritten as xi0 + r*u: a point of the complex plane through x."""

    xi0: float
    r: float
    u: UnitImaginary

    def reconstruct(self) -> Quaternion:
        q = self.u.scaled(self.r)
        return Quaternion(self.xi0, q.x1, q.x2, q.x3)


@dataclass(frozen=True, slots=True)
class DeltaSplit:
    """An increment split into a part that commutes with u (parallel, in the
    slice plane) and a part that anticommutes (perpendicular)."""

    parallel: Quaternion
    perp: Quaternion


def slice_point(x: Quaternion, eps_axis: float = EPS_AXIS) -> SlicePoint:
    """Decompose x into (xi0, r, u). Real x has no slice direction."""
    r = x.imag_norm()
    if r <= eps_axis:
        raise DegenerateSliceError(f"point {x.to_list()} is on the real axis; u is undefined")
    return SlicePoint(x.w, r, UnitImaginary(Quaternion(0.0, x.x1, x.x2, x.x3)))


def decompose_delta(x: Quaternion, delta: Quaternion, eps_axis: float = EPS_AXIS) -> DeltaSplit:
    """Split delta relative to x's slice: parallel = (delta - u*delta*u)/2,
    perp = (delta + u*delta*u)/2."""
    sp = slice_point(x, eps_axis)
    u = sp.u
    # dot of vector parts picks out the in-slice imaginary coefficient
    t = delta.x1 * u.x1 + delta.x2 * u.x2 + delta.x3 * u.x3
    par = Quaternion(delta.w, t * u.x1, t * u.x2, t * u.x3)
    return DeltaSplit(par, delta - par)


def _lift(f: Callable[[complex], complex], x: Quaternion) -> Quaternion:
    """f(xi0 + i*r) = a + i*b mapped to a + b*u, u = (x - xi0)/r. Only r == 0
    snaps to the real a; hypot and u_i = x_i/r keep the lift continuous near
    the axis and finite at subnormal r."""
    r = math.hypot(x.x1, x.x2, x.x3)
    fz = f(complex(x.w, r))
    if r == 0.0:
        return Quaternion(fz.real, 0.0, 0.0, 0.0)
    b = fz.imag
    return Quaternion(fz.real, b * (x.x1 / r), b * (x.x2 / r), b * (x.x3 / r))


def eval_function(F: AnalyticFunction, x: Quaternion, eps_axis: float = EPS_AXIS) -> Quaternion:
    """F(x) through the slice: f(xi0 + i*r) = a + i*b maps to a + b*u.

    At real x this is just the real function value. Conjugating x conjugates
    the result exactly, because a and b are shared and only u flips.
    eps_axis is unused and kept for call compatibility (see _lift).
    """
    return _lift(F.eval_complex, x)


def eval_derivative(F: AnalyticFunction, x: Quaternion, eps_axis: float = EPS_AXIS) -> Quaternion:
    """F'(x) through the slice, same mapping as eval_function."""
    return _lift(F.deriv_complex, x)


def perp_quotient(F: AnalyticFunction, x: Quaternion, eps_axis: float = EPS_AXIS) -> float:
    """The real scalar [F(x) - F(conj x)] * (x - conj x)^-1 = b/r.

    On the real axis the quotient degenerates to the ordinary derivative
    f'(xi0), which is the r -> 0 limit of b/r.
    """
    r = x.imag_norm()
    if r <= eps_axis:
        return F.deriv_complex(complex(x.w, 0.0)).real
    return F.eval_complex(complex(x.w, r)).imag / r


@dataclass(frozen=True, slots=True)
class SliceForm:
    """Local representation F(x) = A + B*x with real A, B."""

    A: float
    B: float


def slice_form(F: AnalyticFunction, x: Quaternion, eps_axis: float = EPS_AXIS) -> SliceForm:
    """Solve a + b*u = A + B*(xi0 + r*u) for real A, B.

    B = b/r is only determined off the real axis.
    """
    r = x.imag_norm()
    if r <= eps_axis:
        raise DegenerateSliceError("A + B*x is not unique at real x (any B works)")
    fz = F.eval_complex(complex(x.w, r))
    B = fz.imag / r
    return SliceForm(fz.real - B * x.w, B)
