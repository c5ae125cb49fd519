"""Staircase path integration of the differential, plus two companions:
an ordinary ds-quadrature of dF(x(s))/ds used as an independent cross-check,
and a branch-tracked variant for ln on in-slice paths.
"""

import math
import mmap
import os
import select
import signal
import threading
from array import array
from dataclasses import dataclass, field
from operator import add
from typing import Callable, Sequence

from .differential import _differential
from .errors import (DomainError, MissingReferenceError, QintError, SliceEscapeError,
                     StepTooCoarseError, UnsupportedFunctionError)
from .functions import AnalyticFunction, NamedFunction
from .paths import Line, Path
from .quaternion import Quaternion, _hamilton
from .slices import _TINY_R, UnitImaginary, _lift, eval_function

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


def _at(s: float, f: Callable, *args):
    """f(*args), a failure raised as _located(e, s)."""
    try:
        return f(*args)
    except (OverflowError, QintError) as e:
        raise _located(e, s)


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
    start = _at(0.0, eval_function, F, path.start)
    ref = _at(1.0, eval_function, F, path.end) - start
    if not all(map(math.isfinite, ref.to_list())):
        raise DomainError("overflow (endpoint difference out of range)", s_param=1.0)
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


def _check_singular_points(path: Path, *functions: AnalyticFunction) -> None:
    """Raise DomainError where the path passes a real singular point x of one
    of the functions within SLICE_REJECTION_TOL * max(1, |x|), at the least
    such s over them all: a chord across x sums to a meaningless value."""
    hits = [(s, x) for F in functions for x in F.singular_points
            if (s := path.passes(x, SLICE_REJECTION_TOL * max(1.0, abs(x)))) is not None]
    if hits:
        s, x = min(hits)
        raise DomainError(f"the path passes x = {x:g}, a pole or branch point of the function",
                          s_param=s)


def _staircase(term: Callable[..., Sequence[float]], F: AnalyticFunction, path: Path,
               steps: int, lag: float, first: int) -> list[Sequence[float]]:
    """The row walk: one chunk of rows term(F, x_eval, x_n - x_{n-1}), n =
    first, ..., min(first + _SUM_CHUNK - 1, steps), x_eval at s = (n - lag) /
    steps, on bare floats as in _differential's signature, returned as
    columns; integrate's _differential_walk gives the same floats. A failure
    names the s of its evaluation point."""
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


def _differential_walk(term: Callable[..., Sequence[float]], F: AnalyticFunction, path: Path,
                       steps: int, lag: float, first: int) -> list[list[float]]:
    """_staircase's chunk, bit for bit, for term = _differential. Where
    _TINY_R <= r < inf, _differential's formula runs inline: the same calls
    in the same order (f', then f unless F's eval_complex is its
    deriv_complex, as for exp), the same expressions. Any other point (the
    real axis, a tiny, infinite or NaN r) takes the row term itself, which at
    a real-axis point is f'(x) times the chord: it is refused only where F is
    undefined there, by F's own error. A failure names the s of its
    evaluation point.

    The nodes of a Line (not of a subclass, which may override coords) are
    computed here with a copy of Line.coords' lerp, the same operations in
    the same order, so they are its floats; every other path, and the
    midpoint rule's evaluation point, is read through coords. The tests pin
    the copy: test_kernel_equals_summed_public_differentials and
    test_value_does_not_depend_on_the_worker_count hold its floats, and
    test_a_lines_nodes_are_computed_in_the_walk_and_other_paths_read_coords
    which paths call coords."""
    coords, hypot, f_prime, f = path.coords, math.hypot, F.deriv_complex, F.eval_complex
    inf, f_is_f_prime, line = math.inf, f is f_prime, type(path) is Line
    midpoint, inv = lag != 1.0, 1.0 / steps
    if line:
        (aw, a1, a2, a3), (bw, b1, b2, b3) = path._ends
    pw, p1, p2, p3 = coords((first - 1) * inv)  # the float the previous step ended on
    ns = range(first, min(first + _SUM_CHUNK, steps + 1))
    W, V1, V2, V3 = columns = [[0.0] * len(ns) for _ in range(4)]
    try:
        for i, n in enumerate(ns):
            if line:  # Line.coords(n * inv)
                s = n * inv
                t = 1.0 - s
                w = t * aw + s * bw
                y1 = t * a1 + s * b1
                y2 = t * a2 + s * b2
                y3 = t * a3 + s * b3
            else:
                w, y1, y2, y3 = coords(n * inv)
            if midpoint:
                xw, x1, x2, x3 = coords((n - lag) * inv)
            else:
                xw = pw
                x1 = p1
                x2 = p2
                x3 = p3
            dw = w - pw
            d1 = y1 - p1
            d2 = y2 - p2
            d3 = y3 - p3
            pw = w
            p1 = y1
            p2 = y2
            p3 = y3
            r = hypot(x1, x2, x3)
            if not _TINY_R <= r < inf:
                W[i], V1[i], V2[i], V3[i] = term(F, xw, x1, x2, x3, dw, d1, d2, d3)
                continue
            z = complex(xw, r)
            fp = f_prime(z)
            q = (fp if f_is_f_prime else f(z)).imag / r
            c, d = fp.real, fp.imag
            u1, u2, u3 = x1 / r, x2 / r, x3 / r
            t = d1 * u1 + d2 * u2 + d3 * u3
            pv = c * t + d * dw
            W[i] = c * dw - d * t
            V1[i] = pv * u1 + q * (d1 - t * u1)
            V2[i] = pv * u2 + q * (d2 - t * u2)
            V3[i] = pv * u3 + q * (d3 - t * u3)
    except (OverflowError, QintError) as e:
        raise _located(e, (n - lag) * inv)
    return columns


def _workers(chunks: int) -> int:
    """Processes to share the chunks: one per CPU this process may run on,
    where os.fork exists, but no more than give each process two chunks: a
    fork costs milliseconds of CPU, and two processes beat one only from
    four chunks on. One while another thread is alive, because a forked
    copy of a threaded process can deadlock on a lock some thread held."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), chunks // 2) or 1


def _staircase_sum(term: Callable[..., Sequence[float]], F: AnalyticFunction, path: Path,
                   steps: int, lag: float, width: int, walk: Callable = _staircase) -> list[float]:
    """The sums of the width columns of term's rows over all steps: the one
    staircase sum behind integrate, branch tracking and by-parts. A chunk's
    columns are walk(term, F, path, steps, lag, first): the row walk
    _staircase, or integrate's _differential_walk, which gives its floats.
    Each chunk is summed by _pairs and the pairs added by _add in s order, so
    the value depends on the terms only; with one chunk it is _pairs' value.

    Where _workers gives more than one process, chunks are shared with
    forked children through a queue: a pipe of 4-byte claims, written whole
    before the first fork and closed for writing. Nothing reads it yet, so it
    must fit select.PIPE_BUF bytes, the least buffer POSIX grants a pipe
    (4096 for a Linux user past pipe-user-pages-soft), or the write would
    block for ever. Each process sums one claim's chunks at a time until the
    queue is empty, so a faster CPU sums more. Each chunk's pairs go into its
    slot of one block shared by all the processes, and then a mark of its own
    is set: a NaN in their place would not do, as a copy cut short can leave
    a wrong finite double. A fault empties the queue. This process then waits
    for every child, which ends once the queue is empty. The closing fold adds
    the pairs in s order and sums itself each chunk whose slot is unmarked:
    every chunk where one process sums the staircase alone, else one that
    faulted, or whose child died or was not forked. So a fault is always
    raised here, by the first faulty chunk along the path, with the fold's
    own type, message and s; a total out of range is named by its chunk's
    last s.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    inv = 1.0 / steps
    firsts = range(1, steps + 1, _SUM_CHUNK)  # each chunk's first step
    n, size = len(firsts), 1 + 2 * width  # a chunk's slot: its mark, then its pairs
    slots = memoryview(mmap.mmap(-1, 8 * size * n)).cast("d")  # all zero: none marked

    def chunk(k: int) -> list[tuple[float, float]]:
        first = firsts[k]
        return _pairs(walk(term, F, path, steps, lag, first), lambda i: (first + i - lag) * inv)

    def sums() -> None:  # each claim's chunks into their slots, up to the first fault
        try:
            while claim := os.read(queue, 4):  # a claim's first chunk
                for k in range(n)[int.from_bytes(claim, "little"):][:per]:
                    slots[k * size + 1:(k + 1) * size] = array("d", sum(chunk(k), ()))
                    slots[k * size] = 1.0  # marked only once its pairs are whole
        except Exception:  # summed again below, where it raises unless an earlier chunk does,
            os.read(queue, select.PIPE_BUF)  # so no claim still queued, all past it, is needed

    pids, workers = [], _workers(n)
    if workers > 1:  # else this process sums every chunk in the fold below
        queue, w = os.pipe()
        try:
            per = -(-n // (select.PIPE_BUF // 4))  # chunks per claim: the queue must fit PIPE_BUF
            os.write(w, b"".join(k.to_bytes(4, "little") for k in range(0, n, per)))
            os.close(w)  # so that reading the empty queue returns EOF
            for _ in range(workers - 1):
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: the claims are left to the others
                    break
                if pid == 0:  # the child: no exception, output or exit handler of its own
                    try:
                        sums()
                    finally:
                        os._exit(0)
                pids.append(pid)
            sums()
        except BaseException:  # the children's sums will not be read
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.close(queue)
            for pid in pids:  # each ends once the queue is empty
                os.waitpid(pid, 0)
    total = None
    for k, first in enumerate(firsts):
        slot = slots[k * size:(k + 1) * size]
        pairs = list(zip(slot[1::2], slot[2::2])) if slot[0] else chunk(k)
        last = min(first + _SUM_CHUNK, steps + 1) - 1  # the chunk's last step
        total = pairs if total is None else _add(total, pairs, (last - lag) * inv)
    return [hi for hi, _ in total]


def integrate(F: AnalyticFunction, path: Path, steps: int,
              rule: str = "left") -> IntegrationReport:
    """Sum differential(F, x_eval, x_n - x_{n-1}) over a uniform subdivision.

    rule='left' evaluates at the segment start (first-order accurate);
    rule='midpoint' evaluates at the path midpoint of the segment
    (second-order). Compensated summation keeps the telescoping case
    (F = x, any N) at rounding noise. The sum runs through a float-level
    kernel that equals summing the differential() terms, and a failure names
    the evaluation point's s. A path that passes one of F's singular points
    is rejected before any step, naming the s there; a node on the real axis
    is refused only where F is undefined there.

    _staircase_sum sums the terms in chunks of _SUM_CHUNK, shared among the
    CPUs where each gets two (see _workers), each chunk in one
    _differential_walk: only a point on the real axis or with r < 2**-511
    takes the row term, not its whole chunk. The value is the same on any
    machine and whichever process summed which chunk, and a failure is the
    first one along the path.
    """
    if rule not in ("left", "midpoint"):
        raise ValueError(f"unknown rule {rule!r}; expected 'left' or 'midpoint'")
    lag = 0.5 if rule == "midpoint" else 1.0
    _check_singular_points(path, F)
    value = _staircase_sum(_differential, F, path, steps, lag, 4, _differential_walk)
    return _single_report(steps, Quaternion(*value), _try_reference(F, path))


def integrate_slice_quadrature(F: AnalyticFunction, path: Path, steps: int) -> IntegrationReport:
    """Trapezoid rule on dF(x(s))/ds with central finite differences. Order 2.

    The interior stencils (g_{k+1} - g_{k-1})/2, g_k = F(x(k/N)), telescope to
    (g_N + g_{N-1} - g_1 - g_0)/2, so the value is F(b) - F(a) plus an O(h^2)
    end correction, read from six samples, k in {0, 1, 2, N-2, N-1, N}. It
    checks the staircase against F's end values only: a loop around a
    singularity, or a pole, a disk's edge or a cut between those samples,
    goes unseen. A sample on the real axis is refused only where F is
    undefined there.

    Independent of the differential operator: it reads only f values, lifted
    by the same _lift as eval_function, never _differential, deriv_complex or
    differential. A failure names the s of its sample or first non-finite row.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = 1.0 / steps
    g = []  # F at the (at most six) sampled k, in s order, as (w, x1, x2, x3) rows
    try:
        for k in sorted(k for k in {0, 1, 2, steps - 2, steps - 1, steps} if 0 <= k <= steps):
            g.append(_lift(F.eval_complex, *path.coords(k * h)))
    except (OverflowError, QintError) as e:
        raise _located(e, k * h if k < steps else 1.0)
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


def _fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    x_bar, y_bar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)  # one float on any Python
    dxs = [x - x_bar for x in xs]
    return math.fsum(dx * (y - y_bar) for dx, y in zip(dxs, ys)) / math.fsum(dx * dx for dx in dxs)


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
        rows.append((n, r.value, r.abs_error))
    pts = [(math.log(n), math.log(err)) for n, _, err in rows if err > EXACT_FLOOR]
    est = -_fit_slope(*zip(*pts)) if len(pts) >= 2 else None
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

    log_first = _at(0.0, lambda: math.log(abs(slice_z(*coords(0.0)))))
    re, im, phase = _staircase_sum(term, F, path, steps, 1.0, 3)
    log_last = _at(1.0, lambda: math.log(abs(slice_z(*coords(steps * h)))))
    return _single_report(steps, to_quaternion(re, im), to_quaternion(log_last - log_first, phase))


def _integrate_by_parts(F: AnalyticFunction, G: AnalyticFunction, path: Path,
                        steps: int) -> IntegrationReport:
    """The left-rule staircase sum[F dG + (dF) G] as value, against the
    boundary term F G |_a^b as reference. Order matters: F multiplies from
    the left in one term and G from the right in the other. A failure names
    the s of the first node at fault, or 1 for F G at the end. As in
    integrate, a path through a singular point of F or G is rejected before
    any step, at the least such s over both; a real-axis node is refused only
    where F or G is undefined there."""
    _check_singular_points(path, F, G)

    def term(F, *xd):  # F(x) dG + dF G(x) as a row; xd is x then the chord
        dF, dG = _differential(F, *xd), _differential(G, *xd)
        Fx, Gx = _lift(F.eval_complex, *xd[:4]), _lift(G.eval_complex, *xd[:4])
        return tuple(map(add, _hamilton(*Fx, *dG), _hamilton(*dF, *Gx)))

    total = _staircase_sum(term, F, path, steps, 1.0, 4)
    at_end = _at(1.0, lambda: eval_function(F, path.end) * eval_function(G, path.end))
    at_start = eval_function(F, path.start) * eval_function(G, path.start)  # the walk's first node
    boundary = _sum([at_end.to_list(), (-at_start).to_list()], lambda i: 1.0 - i)
    return _single_report(steps, Quaternion(*total), Quaternion(*boundary))
