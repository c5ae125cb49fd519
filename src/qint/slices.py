"""Slice geometry: each non-real quaternion x lives in a commutative plane
spanned by 1 and a unit imaginary u. Function evaluation, derivatives, and
increment splitting all happen in that plane.

x is on the real axis exactly when x1 == x2 == x3 == 0. Every other x, however
close to the axis, has r = hypot(x1, x2, x3) > 0 and u = (x1, x2, x3) / r.
Where F is analytic the slice quantities tend to their real-axis values as
r -> 0, so a threshold would buy nothing; next to a branch cut it would jump
across the cut.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DegenerateSliceError, DomainError
from .functions import AnalyticFunction
from .quaternion import Quaternion


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
        x1, x2, x3 = v.x1, v.x2, v.x3
        n = math.hypot(x1, x2, x3)
        if n == 0.0:
            raise DegenerateSliceError("cannot normalize a zero vector part")
        if n == math.inf:  # the length overflows; halving is exact and keeps the direction
            x1, x2, x3 = 0.5 * x1, 0.5 * x2, 0.5 * x3
            n = math.hypot(x1, x2, x3)
        object.__setattr__(self, "value", Quaternion(0.0, x1 / n, x2 / n, x3 / n))

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


def slice_point(x: Quaternion) -> SlicePoint:
    """Decompose x into (xi0, r, u). Real x has no slice direction."""
    r = x.imag_norm()
    if r == 0.0:
        raise DegenerateSliceError(f"point {x.to_list()} is on the real axis; u is undefined")
    return SlicePoint(x.w, r, UnitImaginary(Quaternion(0.0, x.x1, x.x2, x.x3)))


def decompose_delta(x: Quaternion, delta: Quaternion) -> DeltaSplit:
    """Split delta relative to x's slice: parallel = (delta - u*delta*u)/2,
    perp = (delta + u*delta*u)/2."""
    sp = slice_point(x)
    u = sp.u
    # dot of vector parts picks out the in-slice imaginary coefficient
    t = delta.x1 * u.x1 + delta.x2 * u.x2 + delta.x3 * u.x3
    par = Quaternion(delta.w, t * u.x1, t * u.x2, t * u.x3)
    return DeltaSplit(par, delta - par)


def _lift(f: Callable[[complex], complex], w: float, x1: float, x2: float,
          x3: float) -> tuple[float, float, float, float]:
    """f(xi0 + i*r) = a + i*b mapped to a + b*u, u = (x - xi0)/r, x = (w, x1, x2, x3);
    a real x maps to the real a. An infinite r or a non-finite f raises OverflowError."""
    r = math.hypot(x1, x2, x3)
    if r == math.inf:
        raise OverflowError("imaginary part out of range")
    fz = f(complex(w, r))
    if not cmath.isfinite(fz):
        raise OverflowError("function value out of range")
    if r == 0.0:
        return fz.real, 0.0, 0.0, 0.0
    b = fz.imag
    return fz.real, b * (x1 / r), b * (x2 / r), b * (x3 / r)


def eval_function(F: AnalyticFunction, x: Quaternion) -> Quaternion:
    """F(x) through the slice: f(xi0 + i*r) = a + i*b maps to a + b*u.

    At real x this is just the real function value. Conjugating x conjugates
    the result exactly, because a and b are shared and only u flips.
    """
    return Quaternion(*_lift(F.eval_complex, x.w, x.x1, x.x2, x.x3))


def eval_derivative(F: AnalyticFunction, x: Quaternion) -> Quaternion:
    """F'(x) through the slice, same mapping as eval_function."""
    return Quaternion(*_lift(F.deriv_complex, x.w, x.x1, x.x2, x.x3))


# Below this r, r * r is subnormal, and b = Im f(xi0 + r i) may lose bits to
# underflow (all of them at r = 5e-324) while Re f'(xi0 + r i) does not.
_TINY_R = 2.0 ** -511


def _tiny_r_quotient(F: AnalyticFunction, z: complex) -> float:
    """b/r at z = xi0 + r i, 0 < r < _TINY_R. Where F is defined at the real
    point xi0, b/r and Re f'(z) both equal f'(xi0) up to O(r^2), far below
    one ulp, so Re f'(z) is taken; on a cut (a DomainError at xi0) b/r stays,
    so no threshold jumps across it."""
    try:
        F.eval_complex(complex(z.real, 0.0))
    except DomainError:
        return F.eval_complex(z).imag / z.imag
    return F.deriv_complex(z).real


def perp_quotient(F: AnalyticFunction, x: Quaternion) -> float:
    """The real scalar [F(x) - F(conj x)] * (x - conj x)^-1 = b/r.

    On the real axis the quotient degenerates to the ordinary derivative
    f'(xi0), which is the r -> 0 limit of b/r; below r = 2**-511 it is read
    as Re f'(z) wherever F is defined at xi0. An infinite r raises
    OverflowError.
    """
    r = math.hypot(x.x1, x.x2, x.x3)
    if r == math.inf:
        raise OverflowError("imaginary part out of range")
    if r == 0.0:
        return F.deriv_complex(complex(x.w, 0.0)).real
    z = complex(x.w, r)
    return F.eval_complex(z).imag / r if r >= _TINY_R else _tiny_r_quotient(F, z)
