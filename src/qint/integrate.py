"""Staircase path integration of the differential, plus two companions:
an ordinary ds-quadrature of dF(x(s))/ds used as an independent cross-check,
and a branch-tracked variant for ln on in-slice paths.
"""

import cmath
import math
import statistics
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter
from typing import Iterable, Iterator

from .differential import differential
from .errors import (DegenerateSliceError, DomainError, MissingReferenceError,
                     SliceEscapeError, StepTooCoarseError, UnsupportedFunctionError)
from .functions import AnalyticFunction, NamedFunction
from .paths import Path
from .quaternion import Quaternion
from .slices import EPS_AXIS, eval_function

# Errors at or below this are treated as exact (pure rounding noise), both for
# the "exact" verdict and for excluding points from log-log order fits.
EXACT_FLOOR = 1e-12

# Tolerance for deciding a point has left the slice plane (branch tracking).
SLICE_REJECTION_TOL = 1e-9

# Unwrapping slack: per-step phase change may exceed pi/2 by rounding only.
UNWRAP_SLACK = 1e-9

# Terms per math.fsum call in _qsum; bounds its memory.
_SUM_CHUNK = 1024


@dataclass
class IntegrationReport:
    """Result of one integration or of a convergence study over several N."""

    steps: int
    value: Quaternion
    reference: Quaternion | None = None
    abs_error: float | None = None
    rows: list[tuple[int, Quaternion, float | None]] = field(default_factory=list)
    est_order: float | None = None

    def is_exact(self, floor: float = EXACT_FLOOR) -> bool:
        """True when every measured error is at or below rounding noise."""
        if self.reference is None or not self.rows:
            return False
        return all(err is not None and err <= floor for _, _, err in self.rows)


def _qsum(terms: Iterable[Quaternion]) -> Quaternion:
    """Component-wise compensated sum of a stream of quaternions.

    math.fsum (Shewchuk's correctly rounded summation) runs over chunks of
    _SUM_CHUNK terms. Each chunk is seeded with the running total and the
    remainder its rounding dropped, so the result matches one fsum over all
    terms to about 2**-106 relative while memory stays bounded.
    """
    it = iter(terms)
    carry = [(0.0, 0.0)] * 4  # (total, remainder) per component
    while chunk := list(islice(it, _SUM_CHUNK)):
        new = []
        for (hi, lo), get in zip(carry, map(attrgetter, ("w", "x1", "x2", "x3"))):
            xs = [hi, lo, *map(get, chunk)]
            total = math.fsum(xs)
            xs.append(-total)
            new.append((total, math.fsum(xs)))
        carry = new
    return Quaternion(*(hi for hi, _ in carry))


def endpoint_reference(F: AnalyticFunction, path: Path) -> Quaternion:
    """F(x_b) - F(x_a) by slice evaluation; the closed-form integral value.

    Only meaningful for single-valued F; multivalued functions make the
    endpoint difference path dependent, so no reference exists. An endpoint
    outside F's domain raises DomainError as usual.
    """
    if not F.single_valued:
        raise MissingReferenceError(
            "endpoint difference is path dependent for a multivalued function")
    return eval_function(F, path.end) - eval_function(F, path.start)


def _try_reference(F: AnalyticFunction, path: Path) -> Quaternion | None:
    try:
        return endpoint_reference(F, path)
    except (MissingReferenceError, DomainError):
        return None


def _single_report(steps: int, value: Quaternion, ref: Quaternion | None) -> IntegrationReport:
    err = (value - ref).norm() if ref is not None else None
    return IntegrationReport(steps=steps, value=value, reference=ref, abs_error=err,
                             rows=[(steps, value, err)])


def _check_axis_eval(F: AnalyticFunction, x: Quaternion, s: float, eps_axis: float) -> bool:
    """Raise at a real-axis evaluation point of a non-entire F; else True."""
    if x.imag_norm() <= eps_axis and not F.is_entire:
        raise DegenerateSliceError(
            "evaluation point on the real axis for a non-entire function",
            s_param=s)
    return True


def _chords(path: Path, steps: int,
            rule: str) -> Iterator[tuple[float, Quaternion, Quaternion]]:
    """Yield (s_eval, x_eval, x_n - x_{n-1}) for n = 1..steps of a uniform
    subdivision; x_eval is the chord start ('left') or the path point at the
    parameter midpoint ('midpoint')."""
    inv = 1.0 / steps
    prev = path.point(0.0)
    for n in range(1, steps + 1):
        cur = path.point(n * inv)
        if rule == "left":
            yield (n - 1) * inv, prev, cur - prev
        else:
            s_eval = (n - 0.5) * inv
            yield s_eval, path.point(s_eval), cur - prev
        prev = cur


def integrate(F: AnalyticFunction, path: Path, steps: int, rule: str = "left",
              eps_axis: float = EPS_AXIS) -> IntegrationReport:
    """Sum differential(F, x_eval, x_n - x_{n-1}) over a uniform subdivision.

    rule='left' evaluates at the segment start (first-order accurate);
    rule='midpoint' evaluates at the path midpoint of the segment
    (second-order). Compensated summation keeps the telescoping case
    (F = x, any N) at rounding noise.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if rule not in ("left", "midpoint"):
        raise ValueError(f"unknown rule {rule!r}; expected 'left' or 'midpoint'")
    chords = _chords(path, steps, rule)
    if not F.is_entire:
        chords = (c for c in chords if _check_axis_eval(F, c[1], c[0], eps_axis))
    value = _qsum(differential(F, x, d, eps_axis) for _, x, d in chords)
    return _single_report(steps, value, _try_reference(F, path))


def integrate_slice_quadrature(F: AnalyticFunction, path: Path, steps: int,
                               eps_axis: float = EPS_AXIS) -> IntegrationReport:
    """Trapezoid rule on dF(x(s))/ds with central finite differences.

    Completely independent of the differential operator: it only ever calls
    eval_function along the path, so it cross-checks the staircase. Order 2.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = steps
    h = 1.0 / n
    g = []
    for k in range(n + 1):
        x = path.point(k * h)
        _check_axis_eval(F, x, k * h, eps_axis)
        g.append(eval_function(F, x, eps_axis))
    if n == 1:
        value = g[1] - g[0]
    else:
        # trapezoid weights: half at the ends, 1 inside; the 1/(2h) of each
        # stencil cancels the h of the rule
        ends = (0.5 * ((-3.0) * g[0] + 4.0 * g[1] - g[2]) * 0.5,
                0.5 * (3.0 * g[n] - 4.0 * g[n - 1] + g[n - 2]) * 0.5)
        value = _qsum(chain(ends, (0.5 * (g[k + 1] - g[k - 1]) for k in range(1, n))))
    return _single_report(n, value, _try_reference(F, path))


def convergence_study(F: AnalyticFunction, path: Path, n_list: list[int],
                      rule: str = "left", eps_axis: float = EPS_AXIS) -> IntegrationReport:
    """Run integrate at each N and fit the error order on a log-log scale.

    est_order is the negated least-squares slope of log(err) against log(N),
    computed over rows whose error is above rounding noise; it stays None
    when fewer than two rows qualify (including the all-exact case).
    """
    if len(n_list) < 3:
        raise ValueError("need at least 3 step counts for a study")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("step counts must be strictly ascending")
    ref = endpoint_reference(F, path)  # raises MissingReference if unavailable
    rows: list[tuple[int, Quaternion, float | None]] = []
    for n in n_list:
        r = integrate(F, path, n, rule=rule, eps_axis=eps_axis)
        rows.append((n, r.value, (r.value - ref).norm()))
    pts = [(math.log(n), math.log(err)) for n, _, err in rows if err > EXACT_FLOOR]
    est = None
    if len(pts) >= 2:
        slope, _ = statistics.linear_regression([p[0] for p in pts], [p[1] for p in pts])
        est = -slope
    last = rows[-1]
    return IntegrationReport(steps=last[0], value=last[1], reference=ref,
                             abs_error=last[2], rows=rows, est_order=est)


def integrate_with_branch_tracking(F: AnalyticFunction, path: Path, steps: int,
                                   eps_axis: float = EPS_AXIS) -> IntegrationReport:
    """Staircase integral of ln along a path confined to one slice plane.

    Works in the fixed slice coordinates z(s) = xi0(s) + i*y(s), where y is
    the signed component along the first off-axis direction found. The value
    is the left-endpoint sum of (z_{n+1} - z_n)/z_n, which is branch-free;
    the reference is the continuously unwrapped ln difference, so a loop
    winding m times around 0 reports 2*pi*m*u. One streaming pass in path
    order, so the first fault along the path is the one reported.
    """
    if not (isinstance(F, NamedFunction) and F.name == "ln"):
        raise UnsupportedFunctionError("branch tracking is implemented for ln only")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = steps
    h = 1.0 / n

    u = (0.0, 0.0, 0.0)  # kept on a path along the real axis, where y = 0
    for k in range(n + 1):  # the first off-axis point fixes the slice
        x = path.point(k * h)
        r = x.imag_norm()
        if r > eps_axis:
            u = (x.x1 / r, x.x2 / r, x.x3 / r)
            break

    def slice_z(k: int) -> complex:
        x = path.point(k * h)
        y = x.x1 * u[0] + x.x2 * u[1] + x.x3 * u[2]
        rej = math.sqrt((x.x1 - y * u[0]) ** 2 + (x.x2 - y * u[1]) ** 2
                        + (x.x3 - y * u[2]) ** 2)
        if rej > SLICE_REJECTION_TOL * max(1.0, x.norm()):
            raise SliceEscapeError(
                f"point leaves the slice plane (off-plane magnitude {rej:.3e})",
                s_param=k * h)
        z = complex(x.w, y)
        if z == 0:
            raise DomainError("path passes through 0, where ln is singular",
                              s_param=k * h)
        return z

    z_first = z_prev = slice_z(0)
    phase = total_phase = cmath.phase(z_first)

    def terms() -> Iterator[Quaternion]:
        # complex terms ride in the i-slice so that _qsum can add them
        nonlocal z_prev, total_phase
        for k in range(1, n + 1):
            z = slice_z(k)
            step = math.remainder(cmath.phase(z) - total_phase, math.tau)
            if abs(step) > 0.5 * math.pi + UNWRAP_SLACK:
                raise StepTooCoarseError(
                    f"phase jump {abs(step):.3f} rad exceeds pi/2; increase steps",
                    s_param=k * h)
            total_phase += step
            t = (z - z_prev) / z_prev
            z_prev = z
            yield Quaternion(t.real, t.imag, 0.0, 0.0)

    total = _qsum(terms())

    def to_quaternion(re: float, im: float) -> Quaternion:
        return Quaternion(re, im * u[0], im * u[1], im * u[2])

    return _single_report(n, to_quaternion(total.w, total.x1),
                          to_quaternion(math.log(abs(z_prev)) - math.log(abs(z_first)),
                                        total_phase - phase))
