"""Staircase path integration of the differential, plus two companions:
an ordinary ds-quadrature of dF(x(s))/ds used as an independent cross-check,
and a branch-tracked variant for ln on in-slice paths.
"""

import cmath
import math
import os
import signal
import statistics
import threading
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .differential import _differential
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

# Terms per math.fsum call in _sum; bounds the memory of every sum.
_SUM_CHUNK = 1024

# Steps per block of the staircase sum, a multiple of _SUM_CHUNK. Blocks are
# summed one by one and then folded in s order, so the value is the same
# whichever process summed which block.
_BLOCK = 4 * _SUM_CHUNK


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


def _fold(chunks: Iterable[Sequence[Sequence[float]]], s_of: Callable[[int], float],
          carry: list[tuple[float, float]] | None = None) -> list[tuple[float, float]]:
    """Component-wise sum of chunks of terms, each term a row of floats:
    math.fsum (Shewchuk's correctly rounded summation) adds each column to a
    carried (total, remainder) pair, matching one fsum over all terms to about
    2**-106 relative. Returns the pairs; a given carry continues an earlier
    fold. A non-finite term or total raises DomainError at s_of(i), i the
    running index of the first non-finite term (else the chunk's last)."""
    done = 0
    for chunk in chunks:
        new = []
        for j, (hi, lo) in enumerate(carry or [(0.0, 0.0)] * len(chunk[0])):
            xs = [hi, lo, *map(itemgetter(j), chunk)]  # column j of the chunk
            try:
                total = math.fsum(xs)
                if not math.isfinite(total):
                    raise OverflowError("sum out of range")
            except (ValueError, OverflowError) as e:  # inf - inf, or past the largest double
                i = next((i for i, row in enumerate(chunk) if not all(map(math.isfinite, row))),
                         len(chunk) - 1)
                raise DomainError(f"overflow ({e})", s_param=s_of(done + i)) from e
            xs.append(-total)
            new.append((total, math.fsum(xs)))
        carry, done = new, done + len(chunk)
        del chunk, xs  # hold one chunk at a time: free it before the next is built
    return carry


def _sum(chunks: Iterable[Sequence[Sequence[float]]],
         s_of: Callable[[int], float]) -> list[float]:
    """The totals of _fold(chunks, s_of), one per column."""
    return [hi for hi, _ in _fold(chunks, s_of)]


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
               steps: int, lag: float, first: int, stop: int) -> Iterator[list[Sequence[float]]]:
    """_sum chunks of rows term(F, x_eval, x_n - x_{n-1}), n = first..stop-1, x_eval
    at s = (n - lag) / steps, on bare floats as in _differential's signature; with
    term = _differential, differential()'s terms bit for bit, and no Quaternion
    per step. A failure names the s of its evaluation point."""
    coords = path.coords
    midpoint = lag != 1.0
    inv = 1.0 / steps
    pw, p1, p2, p3 = coords((first - 1) * inv)
    for chunk_first in range(first, stop, _SUM_CHUNK):
        rows = []
        try:
            for n in range(chunk_first, min(chunk_first + _SUM_CHUNK, stop)):
                w, a1, a2, a3 = coords(n * inv)
                xw, x1, x2, x3 = coords((n - lag) * inv) if midpoint else (pw, p1, p2, p3)
                rows.append(term(F, xw, x1, x2, x3, w - pw, a1 - p1, a2 - p2, a3 - p3))
                pw, p1, p2, p3 = w, a1, a2, a3
        except (OverflowError, QintError) as e:
            raise _located(e, (n - lag) * inv)
        yield rows


def _workers(blocks: int) -> int:
    """Processes to share the blocks: one per CPU this process may run on,
    where os.fork exists. One while another thread is alive, because a forked
    copy of a threaded process can deadlock on a lock some thread held."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), blocks)


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


def _read_pairs(pipe: BinaryIO, blocks: int, width: int) -> list[list[tuple[float, float]]] | None:
    """A child's (total, remainder) pairs, width per block, or None unless it sent them all."""
    raw = pipe.read()
    if len(raw) != 16 * width * blocks:
        return None
    flat = iter(array("d", raw))
    pairs = list(zip(flat, flat))
    return [pairs[k * width:(k + 1) * width] for k in range(blocks)]


def _staircase_sum(term: Callable[..., Sequence[float]], F: AnalyticFunction, path: Path,
                   steps: int, lag: float) -> list[float]:
    """The component sums of _staircase(term, ...) over all steps, in fixed
    blocks of _BLOCK steps. Each block is folded by _fold into one (total,
    remainder) pair per component, and the pairs are folded in s order, so
    the value depends on F, the path, steps and lag only. With one block it
    is the sequential fold's value bit for bit.

    Runs of blocks are shared between this process and forked children (see
    _workers), which write their pairs back as raw doubles: fork shares F,
    the path and term, so nothing is pickled. A child that fails or dies
    sends nothing, and its blocks are summed here instead. A block that fails
    alone, or whose pair takes the running total out of range, is re-walked
    on top of the running pair, which is the sequential fold from there on.
    So every failure is raised here, with the type, message and s of the
    first fault along the path, and a fault stops and reaps every child.
    """
    inv = 1.0 / steps
    firsts = range(1, steps + 1, _BLOCK)  # each block's first step
    workers = _workers(len(firsts))
    runs = [firsts[k * len(firsts) // workers:(k + 1) * len(firsts) // workers]
            for k in range(workers)]

    def block(first: int, carry=None) -> list[tuple[float, float]]:
        return _fold(_staircase(term, F, path, steps, lag, first, min(first + _BLOCK, steps + 1)),
                     lambda i: (first + i - lag) * inv, carry)

    children, carry = [], None
    try:
        for run in runs[1:]:
            children.append(_fork(lambda run=run: [x for first in run
                                                   for pair in block(first) for x in pair]))
        for run, child in zip(runs, [None, *children]):
            sent = _read_pairs(child[1], len(run), len(carry)) if child else None
            for k, first in enumerate(run):
                try:
                    pairs = sent[k] if sent else block(first)
                    # s_of goes unused: a total out of range is re-walked below
                    carry = pairs if carry is None else _fold([list(zip(*pairs))], float, carry)
                    continue
                except QintError:
                    if carry is None:  # the first block's own fold is the sequential one
                        raise
                # outside the except clause, so that what it raises is the
                # sequential fold's own error, with no other chained to it
                carry = block(first, carry)
    except BaseException:
        for child in filter(None, children):
            os.kill(child[0], signal.SIGKILL)
        raise
    finally:
        for child in filter(None, children):
            child[1].close()
            os.waitpid(child[0], 0)
    return [hi for hi, _ in carry]


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

    Steps are summed in fixed blocks of _BLOCK. Where os.fork exists, a
    staircase of several blocks is shared out among the CPUs this process
    may run on; the blocks are folded in s order, so the value is the same
    on any machine, and a failure is the first one along the path.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if rule not in ("left", "midpoint"):
        raise ValueError(f"unknown rule {rule!r}; expected 'left' or 'midpoint'")
    lag = 0.5 if rule == "midpoint" else 1.0
    inv = 1.0 / steps
    term = _differential if F.is_entire else _off_axis_differential
    value = _staircase_sum(term, F, path, steps, lag)
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
    value = Quaternion(*_sum([rows], lambda i: at[i]))
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
    h = 1.0 / steps

    coords = path.coords
    u = (0.0, 0.0, 0.0)  # kept on a path along the real axis, where y = 0
    for k in range(steps + 1):  # the first off-axis point fixes the slice
        _, x1, x2, x3 = coords(k * h)
        if x1 or x2 or x3:
            u = UnitImaginary(Quaternion(0.0, x1, x2, x3)).value.to_list()[1:]
            break

    def slice_z(k: int) -> complex:
        w, x1, x2, x3 = coords(k * h)
        y = x1 * u[0] + x2 * u[1] + x3 * u[2]
        rej = math.hypot(x1 - y * u[0], x2 - y * u[1], x3 - y * u[2])
        if rej > SLICE_REJECTION_TOL * max(1.0, math.hypot(w, x1, x2, x3)):
            raise SliceEscapeError(
                f"point leaves the slice plane (off-plane magnitude {rej:.3e})")
        z = complex(w, y)
        if z == 0:
            raise DomainError("path passes through 0, where ln is singular")
        return z

    def to_quaternion(re: float, im: float) -> Quaternion:
        return Quaternion(re, im * u[0], im * u[1], im * u[2])

    reference = []  # the unwrapped ln difference, set once the pass reaches s = 1

    def chunks() -> Iterator[list[tuple[float, float]]]:
        k = 0
        try:
            z_first = z_prev = slice_z(0)
            phase = total_phase = cmath.phase(z_first)
            log_first = math.log(abs(z_first))
            for first in range(1, steps + 1, _SUM_CHUNK):
                rows = []
                for k in range(first, min(first + _SUM_CHUNK, steps + 1)):
                    z = slice_z(k)
                    step = math.remainder(cmath.phase(z) - total_phase, math.tau)
                    if abs(step) > 0.5 * math.pi + UNWRAP_SLACK:
                        raise StepTooCoarseError(
                            f"phase jump {abs(step):.3f} rad exceeds pi/2; increase steps")
                    total_phase += step
                    t = (z - z_prev) / z_prev
                    rows.append((t.real, t.imag))
                    z_prev = z
                yield rows
            reference.append(to_quaternion(math.log(abs(z_prev)) - log_first,
                                           total_phase - phase))
        except (OverflowError, QintError) as e:
            raise _located(e, k * h)

    re, im = _sum(chunks(), lambda i: i * h)  # term i spans [i h, (i + 1) h]
    return _single_report(steps, to_quaternion(re, im), reference[0])
