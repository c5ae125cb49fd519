"""The first-order differential of F at x applied to an increment delta:

    D F(x) = F'(x) * delta_par + [F(x) - F(x*)] (x - x*)^-1 * delta_perp

Both coefficient factors live in x's slice, so the whole computation reduces
to two complex evaluations plus a projection of delta onto the slice plane.
"""

import math
from typing import Iterable, Sequence

from .functions import AnalyticFunction
from .quaternion import ONE, ZERO, Quaternion
from .slices import (_TINY_R, _tiny_r_quotient, decompose_delta, eval_derivative, eval_function,
                     perp_quotient)


def differential(F: AnalyticFunction, x: Quaternion, delta: Quaternion) -> Quaternion:
    """Apply the differential of F at x to delta. Linear in delta.

    On the real axis (x1 == x2 == x3 == 0) both coefficient factors collapse
    to f'(xi0) and the result is the ordinary f'(x)*delta. A non-finite
    result raises OverflowError.
    """
    d = _differential(F, x.w, x.x1, x.x2, x.x3, delta.w, delta.x1, delta.x2, delta.x3)
    if not all(map(math.isfinite, d)):
        raise OverflowError("differential out of range")
    return Quaternion(*d)


def _differential(F: AnalyticFunction, xw: float, x1: float, x2: float, x3: float,
                  dw: float, d1: float, d2: float, d3: float) -> tuple[float, float, float, float]:
    """differential() on bare components, returning (w, x1, x2, x3); the
    staircase kernel calls it without building a Quaternion per step, and
    checks finiteness on the sum instead of per term. An infinite r raises
    OverflowError."""
    r = math.hypot(x1, x2, x3)
    if r == 0.0:
        d = F.deriv_complex(complex(xw, 0.0)).real
        return d * dw, d * d1, d * d2, d * d3
    if r == math.inf:
        raise OverflowError("imaginary part out of range")
    z = complex(xw, r)
    fp = F.deriv_complex(z)          # F'(x) = c + d*u in the slice
    # perpendicular quotient b/r; at tiny r, where b underflows, Re f'(z)
    q = F.eval_complex(z).imag / r if r >= _TINY_R else _tiny_r_quotient(F, z)
    c, d = fp.real, fp.imag
    u1, u2, u3 = x1 / r, x2 / r, x3 / r
    # delta = [dw + t*u] (parallel, complex in the slice) + rejection (perp)
    t = d1 * u1 + d2 * u2 + d3 * u3
    pw = c * dw - d * t              # (c + d*i)(dw + t*i), real part
    pv = c * t + d * dw              # imaginary coefficient along u
    return (pw,
            pv * u1 + q * (d1 - t * u1),
            pv * u2 + q * (d2 - t * u2),
            pv * u3 + q * (d3 - t * u3))


def _differential_columns(F: AnalyticFunction, XW: Sequence[float], X1: Sequence[float],
                          X2: Sequence[float], X3: Sequence[float], DW: Iterable[float],
                          D1: Iterable[float], D2: Iterable[float],
                          D3: Iterable[float]) -> list[list[float]] | None:
    """_differential over columns of points and increments, as the four
    columns of its terms, bit for bit. The per-point C calls (hypot, complex,
    f' then f at each point) run in map, and one loop does the arithmetic.
    None unless every r is in [_TINY_R, inf), the one branch this covers."""
    R = list(map(math.hypot, X1, X2, X3))
    if not (min(R) >= _TINY_R and sum(R) < math.inf):  # a NaN r fails too
        return None
    Z = list(map(complex, XW, R))
    W, V1, V2, V3 = columns = [[], [], [], []]
    for dw, d1, d2, d3, x1, x2, x3, r, fp, fz in zip(DW, D1, D2, D3, X1, X2, X3, R,
                                                     map(F.deriv_complex, Z),
                                                     map(F.eval_complex, Z)):
        q = fz.imag / r
        c, d = fp.real, fp.imag
        u1, u2, u3 = x1 / r, x2 / r, x3 / r
        t = d1 * u1 + d2 * u2 + d3 * u3
        pv = c * t + d * dw
        W.append(c * dw - d * t)
        V1.append(pv * u1 + q * (d1 - t * u1))
        V2.append(pv * u2 + q * (d2 - t * u2))
        V3.append(pv * u3 + q * (d3 - t * u3))
    return columns


def differential_reference(F: AnalyticFunction, x: Quaternion, delta: Quaternion) -> Quaternion:
    """Same operator assembled from the public slice primitives.

    Slower than differential(); kept as an independent cross-check of the
    flattened arithmetic above.
    """
    if x.imag_norm() == 0.0:
        return eval_derivative(F, x) * delta
    split = decompose_delta(x, delta)
    return eval_derivative(F, x) * split.parallel + perp_quotient(F, x) * split.perp


def conjugate_quotient(F: AnalyticFunction, x: Quaternion) -> Quaternion:
    """[F(x) - F(conj x)] * (x - conj x)^-1 computed literally, as a quaternion.

    The scalar perp_quotient must match this; used to validate it.
    """
    xc = x.conj()
    return (eval_function(F, x) - eval_function(F, xc)) * (x - xc).inverse()


def sym_product_sum(x: Quaternion, delta: Quaternion, n: int) -> Quaternion:
    """Sum_{k=0..n} x^k * delta * x^(n-k), by direct non-commutative products.

    Equals the differential of x^(n+1) at x applied to delta; serves as an
    exactness oracle for the operator on monomials.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    powers = [ONE]
    for _ in range(n):
        powers.append(powers[-1] * x)
    total = ZERO
    for k in range(n + 1):
        total = total + powers[k] * delta * powers[n - k]
    return total
