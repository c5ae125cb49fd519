"""Staircase path integration of the differential, plus two companions:
an ordinary ds-quadrature of dF(x(s))/ds used as an independent cross-check,
and a branch-tracked variant for ln on in-slice paths.
"""

import math
import os
import signal
import statistics
import threading
from array import array
from dataclasses import dataclass, field
from operator import sub
from typing import BinaryIO, Callable, Iterator, Sequence

from .differential import _differential, _differential_columns
from .errors import (DegenerateSliceError, DomainError, MissingReferenceError, QintError,
                     SliceEscapeError, StepTooCoarseError, UnsupportedFunctionError)
from .functions import AnalyticFunction, NamedFunction
from .paths import Path
from .quaternion import Quaternion
from .slices import UnitImaginary, _lift, eval_function

# Errors at or below this are treated as exact (pure rounding noise), both for
# the "exact" verdict and for excluding points from log-log order fits.
EXACT_FLOOR = 1e-12

# Tolerance for deciding a point has left the slice plane (branch tracking).
SLICE_REJECTION_TOL = 1e-9

# Unwrapping slack: per-step phase change may exceed pi/2 by rounding only.
UNWRAP_SLACK = 1e-9

# Steps per chunk, and terms per math.fsum call: bounds the memory of every
# sum. Chunks are summed one by one and then added in s order, so the
# staircase's value is the same whichever process summed which chunk.
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

    def is_exact(self) -> bool:
        """True when every measured error is at or below rounding noise."""
        if self.reference is None or not self.rows:
            return False
        return all(err is not None and err <= EXACT_FLOOR for _, _, err in self.rows)


def _pairs(columns: Sequence[Sequence[float]],
           s_of: Callable[[int], float]) -> list[tuple[float, float]]:
    """The sums of a chunk of terms given as columns of floats, term i at
    index i of each: per column, math.fsum (Shewchuk's correctly rounded
    summation) and the remainder its rounding dropped, as a (total,
    remainder) pair. A non-finite term or total raises DomainError at
    s_of(i), i the index of the first non-finite term (else the chunk's last)."""
    pairs = []
    for xs in columns:
        try:
            total = math.fsum(xs)
            if not math.isfinite(total):
                raise OverflowError("sum out of range")
        except (ValueError, OverflowError) as e:  # inf - inf, or past the largest double
            i = next((i for i, row in enumerate(zip(*columns))
                      if not all(map(math.isfinite, row))), len(xs) - 1)
            raise DomainError(f"overflow ({e})", s_param=s_of(i)) from e
        pairs.append((total, math.fsum([*xs, -total])))
    return pairs


def _add(carry: list[tuple[float, float]], pairs: list[tuple[float, float]],
         s: float) -> list[tuple[float, float]]:
    """The running (total, remainder) pairs with a chunk's pairs added: per
    column, the _pairs of its four floats, matching one fsum over all terms
    to about 2**-106 relative. A total out of range raises DomainError at s."""
    return _pairs([(*a, *b) for a, b in zip(carry, pairs)], lambda i: s)


def _sum(rows: Sequence[Sequence[float]], s_of: Callable[[int], float]) -> list[float]:
    """The totals of _pairs of the rows' columns, one per column."""
    return [hi for hi, _ in _pairs(list(zip(*rows)), s_of)]


def _located(e: OverflowError | QintError, s: float) -> QintError:
    """A failure at path parameter s as an error that names s: an
    OverflowError becomes a DomainError, a QintError without s gets s."""
    if isinstance(e, OverflowError):
        return DomainError(f"overflow ({e})", s_param=s)
    if e.s_param is None:
        e.s_param = s
    return e


def endpoint_reference(F: AnalyticFunction, path: Path) -> Quaternion:
    """F(x_b) - F(x_a) by slice evaluation; the closed-form integral value.

    Only meaningful for single-valued F; multivalued functions make the
    endpoint difference path dependent, so no reference exists. An endpoint
    outside F's domain or a result out of range raises a QintError naming s:
    0 for the start value, 1 for the end value and the difference.
    """
    if not F.single_valued:
        raise MissingReferenceError(
            "endpoint difference is path dependent for a multivalued function")
    try:
        start = eval_function(F, path.start)
    except (OverflowError, QintError) as e:
        raise _located(e, 0.0)
    try:
        ref = eval_function(F, path.end) - start
        if not all(map(math.isfinite, ref.to_list())):
            raise OverflowError("endpoint difference out of range")
    except (OverflowError, QintError) as e:
        raise _located(e, 1.0)
    return ref


def _try_reference(F: AnalyticFunction, path: Path) -> Quaternion | None:
    try:
        return endpoint_reference(F, path)
    except (MissingReferenceError, DomainError):
        return None


def _single_report(steps: int, value: Quaternion, ref: Quaternion | None) -> IntegrationReport:
    err = (value - ref).norm() if ref is not None else None
    return IntegrationReport(steps=steps, value=value, reference=ref, abs_error=err,
                             rows=[(steps, value, err)])


def _check_axis(x1: float, x2: float, x3: float) -> None:
    """Raise at a real-axis evaluation point; for non-entire F only."""
    if not (x1 or x2 or x3):
        raise DegenerateSliceError("evaluation point on the real axis for a non-entire function")


def _staircase(term: Callable[..., Sequence[float]], F: AnalyticFunction, path: Path,
               steps: int, lag: float, first: int) -> list[Sequence[float]]:
    """The row walk: one chunk of rows term(F, x_eval, x_n - x_{n-1}), n =
    first, ..., min(first + _SUM_CHUNK - 1, steps), x_eval at s = (n - lag) /
    steps, on bare floats as in _differential's signature, returned as
    columns; with term = _differential, differential()'s terms bit for bit,
    and no Quaternion per step. A failure names the s of its evaluation point."""
    coords = path.coords
    midpoint = lag != 1.0
    inv = 1.0 / steps
    pw, p1, p2, p3 = coords((first - 1) * inv)  # the float the previous step ended on
    rows = []
    try:
        for n in range(first, min(first + _SUM_CHUNK, steps + 1)):
            w, a1, a2, a3 = coords(n * inv)
            xw, x1, x2, x3 = coords((n - lag) * inv) if midpoint else (pw, p1, p2, p3)
            rows.append(term(F, xw, x1, x2, x3, w - pw, a1 - p1, a2 - p2, a3 - p3))
            pw, p1, p2, p3 = w, a1, a2, a3
    except (OverflowError, QintError) as e:
        raise _located(e, (n - lag) * inv)
    return list(zip(*rows))


def _columns(F: AnalyticFunction, path: Path, steps: int, lag: float,
             first: int) -> list[list[float]] | None:
    """_staircase(_differential, ...)'s chunk by columns, through
    _differential_columns: the points come from map(path.coords, ...), the
    same floats the row walk reads. None where the kernel does not apply."""
    inv = 1.0 / steps
    ns = range(first, min(first + _SUM_CHUNK, steps + 1))
    W, A1, A2, A3 = zip(*map(path.coords, [n * inv for n in range(first - 1, ns.stop)]))
    if lag == 1.0:  # the left rule evaluates where each chord starts
        points = W[:-1], A1[:-1], A2[:-1], A3[:-1]
    else:
        points = zip(*map(path.coords, [(n - lag) * inv for n in ns]))
    return _differential_columns(F, *points, *(map(sub, A[1:], A) for A in (W, A1, A2, A3)))


def _workers(chunks: int) -> int:
    """Processes to share the chunks: one per CPU this process may run on,
    where os.fork exists. One while another thread is alive, because a forked
    copy of a threaded process can deadlock on a lock some thread held."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), chunks)


def _fork(work: Callable[[], list[float]]) -> tuple[int, BinaryIO] | None:
    """Run work() in a forked child that writes its floats to a pipe as raw
    doubles, or nothing if it fails, and exits at once. Returns (pid, the
    pipe's read end), or None when no child can be started."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller sums the run itself
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # the child: no exception, output or exit handler of its own
        status = 1
        try:
            with open(w, "wb") as pipe:
                pipe.write(array("d", work()))
            status = 0
        finally:
            os._exit(status)
    os.close(w)  # else a later child would hold it open, and the read see no end
    return pid, open(r, "rb")


def _read_pairs(pipe: BinaryIO, chunks: int, width: int) -> Iterator[list[tuple[float, float]]]:
    """A child's (total, remainder) pairs, width per chunk, one chunk at a
    time; nothing unless it sent them all."""
    raw = pipe.read()
    if len(raw) == 16 * width * chunks:
        flat = array("d", raw)
        for k in range(0, len(flat), 2 * width):
            yield list(zip(flat[k:k + 2 * width:2], flat[k + 1:k + 2 * width:2]))


def _staircase_sum(walk: Callable[[int], Sequence[Sequence[float]]], steps: int,
                   lag: float) -> list[float]:
    """The column sums of walk(first), one chunk's columns of terms, over
    all steps: the one staircase sum behind integrate, branch tracking and
    by-parts. Each chunk of _SUM_CHUNK steps is summed by _pairs, and the
    chunks' pairs are added by _add in s order, so the value depends on the
    terms only. With one chunk it is _pairs' value bit for bit.

    Runs of chunks are shared between this process and forked children (see
    _workers), which write their pairs back as raw doubles: fork shares
    walk, so nothing is pickled. This process sums its own run,
    then adds every child's pairs in turn, and sums a chunk itself wherever
    a child sent nothing: one that failed, died or could not be forked. So a
    fault is always raised here, by the first chunk along the path that has
    one, with the fold's own type, message and s; a total out of range is
    named by its chunk's last s. Every child is stopped and reaped on exit.
    """
    inv = 1.0 / steps
    firsts = range(1, steps + 1, _SUM_CHUNK)  # each chunk's first step
    workers = _workers(len(firsts))
    runs = [firsts[k * len(firsts) // workers:(k + 1) * len(firsts) // workers]
            for k in range(workers)]

    def chunk(first: int) -> list[tuple[float, float]]:
        return _pairs(walk(first), lambda i: (first + i - lag) * inv)

    children, total = [], None
    try:
        for run in runs[1:]:
            children.append(_fork(lambda run=run: [x for first in run
                                                   for pair in chunk(first) for x in pair]))
        for run, child in zip(runs, [None, *children]):
            sent = _read_pairs(child[1], len(run), len(total)) if child else iter(())
            for first in run:
                pairs = next(sent, None) or chunk(first)
                last = min(first + _SUM_CHUNK, steps + 1) - 1  # the chunk's last step
                total = pairs if total is None else _add(total, pairs, (last - lag) * inv)
    finally:
        for child in filter(None, children):
            os.kill(child[0], signal.SIGKILL)  # no effect on a child that has finished
            child[1].close()
            os.waitpid(child[0], 0)
    return [hi for hi, _ in total]


def _off_axis_differential(F, xw, x1, x2, x3, dw, d1, d2, d3):
    _check_axis(x1, x2, x3)  # a non-entire F is rejected on the real axis
    return _differential(F, xw, x1, x2, x3, dw, d1, d2, d3)


def integrate(F: AnalyticFunction, path: Path, steps: int,
              rule: str = "left") -> IntegrationReport:
    """Sum differential(F, x_eval, x_n - x_{n-1}) over a uniform subdivision.

    rule='left' evaluates at the segment start (first-order accurate);
    rule='midpoint' evaluates at the path midpoint of the segment
    (second-order). Compensated summation keeps the telescoping case
    (F = x, any N) at rounding noise. The sum runs through a float-level
    kernel that equals summing the differential() terms, and a failure names
    the evaluation point's s.

    Steps are summed in chunks of _SUM_CHUNK. A chunk is summed by columns
    (_columns) where every evaluation point has _TINY_R <= r < inf; any other
    chunk, or one whose column kernel raises, takes the row walk
    (_staircase), which gives the same terms and names the s at fault. Where
    os.fork exists, a staircase of several chunks is shared out among the
    CPUs this process may run on; the chunk sums are added in s order, so
    the value is the same on any machine, and a failure is the first one
    along the path.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if rule not in ("left", "midpoint"):
        raise ValueError(f"unknown rule {rule!r}; expected 'left' or 'midpoint'")
    lag = 0.5 if rule == "midpoint" else 1.0
    term = _differential if F.is_entire else _off_axis_differential

    def walk(first: int) -> Sequence[Sequence[float]]:
        try:
            columns = _columns(F, path, steps, lag, first)
        except (OverflowError, QintError):  # the row walk names the s at fault
            columns = None
        return columns or _staircase(term, F, path, steps, lag, first)

    value = _staircase_sum(walk, steps, lag)
    return _single_report(steps, Quaternion(*value), _try_reference(F, path))


def integrate_slice_quadrature(F: AnalyticFunction, path: Path, steps: int) -> IntegrationReport:
    """Trapezoid rule on dF(x(s))/ds with central finite differences. Order 2.

    The interior stencils (g_{k+1} - g_{k-1})/2, g_k = F(x(k/N)), telescope to
    (g_N + g_{N-1} - g_1 - g_0)/2, so the value is F(b) - F(a) plus an O(h^2)
    end correction, read from six samples, k in {0, 1, 2, N-2, N-1, N}. It
    checks the staircase against F's end values only: a loop around a
    singularity, or a pole, a disk's edge or a real-axis point between those
    samples, goes unseen.

    Independent of the differential operator: it reads only f values, lifted
    by the same _lift as eval_function, never _differential, deriv_complex or
    differential. A failure names the s of its sample or first non-finite row.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = 1.0 / steps
    check_axis = not F.is_entire
    g = []  # F at the (at most six) sampled k, in s order, as (w, x1, x2, x3) rows
    try:
        for k in sorted(k for k in {0, 1, 2, steps - 2, steps - 1, steps} if 0 <= k <= steps):
            w, x1, x2, x3 = path.coords(k * h)
            if check_axis:
                _check_axis(x1, x2, x3)
            g.append(_lift(F.eval_complex, w, x1, x2, x3))
    except (OverflowError, QintError) as e:
        raise _located(e, k * h)
    if steps == 1:
        rows, at = [[-c for c in g[0]], g[1]], [0.0, 1.0]
    else:
        # trapezoid weights: half at the ends, 1 inside; the 1/(2h) of each
        # stencil cancels the h of the rule. The two one-sided end stencils,
        # and the interior central differences by their telescoped sum.
        rows = [[-0.5 * c for c in g[0]],
                [0.5 * (-3.0 * a + 4.0 * b - c) * 0.5 for a, b, c in zip(*g[:3])],
                [-0.5 * c for c in g[1]],
                [0.5 * c for c in g[-2]],
                [0.5 * c for c in g[-1]],
                [0.5 * (3.0 * a - 4.0 * b + c) * 0.5 for c, b, a in zip(*g[-3:])]]
        at = [0.0, 0.0, h, (steps - 1) * h, 1.0, 1.0]  # each row's sample s
    value = Quaternion(*_sum(rows, lambda i: at[i]))
    return _single_report(steps, value, _try_reference(F, path))


def convergence_study(F: AnalyticFunction, path: Path, n_list: list[int],
                      rule: str = "left") -> IntegrationReport:
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
        r = integrate(F, path, n, rule=rule)
        rows.append((n, r.value, (r.value - ref).norm()))
    pts = [(math.log(n), math.log(err)) for n, _, err in rows if err > EXACT_FLOOR]
    est = None
    if len(pts) >= 2:
        slope, _ = statistics.linear_regression([p[0] for p in pts], [p[1] for p in pts])
        est = -slope
    last = rows[-1]
    return IntegrationReport(steps=last[0], value=last[1], reference=ref,
                             abs_error=last[2], rows=rows, est_order=est)


def integrate_with_branch_tracking(F: AnalyticFunction, path: Path,
                                   steps: int) -> IntegrationReport:
    """Staircase integral of ln along a path confined to one slice plane.

    Works in the fixed slice coordinates z(s) = xi0(s) + i*y(s), where y is
    the signed component along the first off-axis direction u found. The
    value is the left-rule staircase of t = (z_n - z_{n-1})/z_{n-1}, which is
    branch-free; the reference is the continuously unwrapped ln difference,
    log|z_N| - log|z_0| plus the sum of the per-step phases arg(1 + t), so a
    loop winding m times around 0 reports 2*pi*m*u. Both ride _staircase_sum
    as the columns of one row per step, so they are shared out among CPUs
    like integrate's sum, and a fault is the first one along the path, named
    by its step's left end: a point off the slice plane, the point 0, or a
    phase step beyond pi/2.
    """
    if not (isinstance(F, NamedFunction) and F.name == "ln"):
        raise UnsupportedFunctionError("branch tracking is implemented for ln only")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = 1.0 / steps

    coords = path.coords
    u = (0.0, 0.0, 0.0)  # kept on a path along the real axis, where y = 0
    for k in range(steps + 1):  # the first off-axis point fixes the slice
        _, x1, x2, x3 = coords(k * h)
        if x1 or x2 or x3:
            u = UnitImaginary(Quaternion(0.0, x1, x2, x3)).value.to_list()[1:]
            break

    u1, u2, u3 = u

    def slice_z(w: float, x1: float, x2: float, x3: float) -> complex:
        y = x1 * u1 + x2 * u2 + x3 * u3
        rej = math.hypot(x1 - y * u1, x2 - y * u2, x3 - y * u3)
        # rej > SLICE_REJECTION_TOL * max(1, |x|), with |x| taken only when needed
        if rej > SLICE_REJECTION_TOL and rej > SLICE_REJECTION_TOL * math.hypot(w, x1, x2, x3):
            raise SliceEscapeError(
                f"point leaves the slice plane (off-plane magnitude {rej:.3e})")
        z = complex(w, y)
        if z == 0:
            raise DomainError("path passes through 0, where ln is singular")
        return z

    def term(F, w, x1, x2, x3, dw, d1, d2, d3) -> tuple[float, float, float]:
        t = complex(dw, d1 * u1 + d2 * u2 + d3 * u3) / slice_z(w, x1, x2, x3)
        step = math.atan2(t.imag, 1.0 + t.real)  # arg(1 + t) = arg(z_n / z_{n-1})
        if abs(step) > 0.5 * math.pi + UNWRAP_SLACK:
            raise StepTooCoarseError(
                f"phase jump {abs(step):.3f} rad exceeds pi/2; increase steps")
        return t.real, t.imag, step

    def to_quaternion(re: float, im: float) -> Quaternion:
        return Quaternion(re, im * u1, im * u2, im * u3)

    try:
        log_first = math.log(abs(slice_z(*coords(0.0))))
    except (OverflowError, QintError) as e:
        raise _located(e, 0.0)
    re, im, phase = _staircase_sum(lambda first: _staircase(term, F, path, steps, 1.0, first),
                                   steps, 1.0)
    try:
        log_last = math.log(abs(slice_z(*coords(steps * h))))
    except (OverflowError, QintError) as e:
        raise _located(e, steps * h)
    return _single_report(steps, to_quaternion(re, im), to_quaternion(log_last - log_first, phase))
