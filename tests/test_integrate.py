import errno
import math
import os
import random
import select
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from conftest import (FORKS, FUNCTION_SPECS, PATH_SPECS, POINT_SPECS, assert_close,
                      assert_no_child_left, quaternions)
from qint import (DomainError, IntegrationReport, Line, MissingReferenceError, Monomial,
                  NamedFunction, PolyLine, PowerSeries, QintError, Quaternion, Scaled, SliceCircle,
                  UnitImaginary, convergence_study, differential, endpoint_reference,
                  eval_function, integrate, integrate_slice_quadrature,
                  integrate_with_branch_tracking, parse_function, parse_path)
from qint.functions import AnalyticFunction
from qint.differential import _differential
from qint.integrate import _SUM_CHUNK, _add, _off_axis_differential, _pairs, _staircase
from qint.suite import catalog_functions, catalog_paths
from qint.verify import by_parts_residual, inverse_ftc_residual

U_I = UnitImaginary(Quaternion(0, 1, 0, 0))

# every point of the line and the polyline has x1 >= 0.6, off the real axis
KERNEL_PATHS = {
    "line": Line(Quaternion(0.3, 1.0, 0.5, -0.2), Quaternion(1.1, 0.6, -0.3, 0.9)),
    "polyline": PolyLine((Quaternion(0.2, 0.7, 0, 0), Quaternion(0.5, 0.6, 0.4, 0),
                          Quaternion(0.1, 0.8, 0.1, 0.6))),
    "circle": SliceCircle(0.3, 0.6, UnitImaginary(Quaternion(0, 1, 2, -1)), 1.5),
}
KERNEL_FUNCTIONS = {
    "exp": NamedFunction("exp"),
    "series5": PowerSeries((1.0, -0.5, 0.25, 0.3, -0.1, 0.07)),
    "ln": NamedFunction("ln"),
}
KERNEL_CASES = [(f, p) for f in ("exp", "series5") for p in KERNEL_PATHS] + [
    ("ln", "line"), ("ln", "polyline")]


@settings(max_examples=25, deadline=None)
@given(quaternions(1.5), quaternions(1.5), st.integers(min_value=1, max_value=500))
def test_identity_telescopes_exactly(a, b, n):
    rep = integrate(Monomial(1), Line(a, b), n)
    assert_close(rep.value, b - a, 1e-12)


def test_square_over_j_segment():
    rep = integrate(Monomial(2), Line(Quaternion(0, 0, 0, 0), Quaternion(0, 0, 1, 0)), 10_000)
    assert_close(rep.value, Quaternion(-1, 0, 0, 0), 1e-3)
    assert rep.abs_error <= 1e-3


def test_cube_converges_to_endpoint_difference():
    # segment stepping off 1+i in the j direction
    path = Line(Quaternion(1, 1, 0, 0), Quaternion(1, 1, 1, 0))
    ref = Quaternion(-3, -1, 1, 0)  # (1+i+j)^3 - (1+i)^3 by direct cubing
    assert_close(endpoint_reference(Monomial(3), path), ref, 1e-12)
    study = convergence_study(Monomial(3), path, [100, 400, 1600, 6400])
    errs = [e for _, _, e in study.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert study.est_order == pytest.approx(1.0, abs=0.1)
    assert_close(study.value, ref, 1e-3)


def test_left_rule_error_scales_first_order():
    path = Line(Quaternion(1, 1, 0, 0), Quaternion(2, 0, 1, 0))
    e1 = integrate(Monomial(2), path, 500).abs_error
    e2 = integrate(Monomial(2), path, 1000).abs_error
    assert e1 / e2 == pytest.approx(2.0, rel=0.05)


def test_midpoint_rule_is_sharper():
    path = Line(Quaternion(1, 1, 0, 0), Quaternion(2, 0, 1, 0))
    left = integrate(NamedFunction("exp"), path, 2000, rule="left").abs_error
    mid = integrate(NamedFunction("exp"), path, 2000, rule="midpoint").abs_error
    assert mid < left / 100


def test_integrate_validates_arguments():
    path = Line(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0))
    with pytest.raises(ValueError):
        integrate(Monomial(1), path, 0)
    with pytest.raises(ValueError):
        integrate(Monomial(1), path, 100, rule="simpson")


def test_quadrature_identity_is_almost_exact():
    rep = integrate_slice_quadrature(
        Monomial(1), Line(Quaternion(0, 0, 0, 0), Quaternion(0, 0, 1, 0)), 1000)
    assert rep.abs_error <= 1e-10


def test_quadrature_euler_segment():
    rep = integrate_slice_quadrature(
        NamedFunction("exp"), Line(Quaternion(0, 0, 0, 0), Quaternion(0, math.pi, 0, 0)),
        10_000)
    assert_close(rep.value, Quaternion(-2, 0, 0, 0), 1e-6)


def test_quadrature_single_step_telescopes():
    rep = integrate_slice_quadrature(
        Monomial(2), Line(Quaternion(1, 1, 0, 0), Quaternion(1, 1, 1, 0)), 1)
    assert_close(rep.value, rep.reference, 1e-12)


def test_quadrature_validates_steps():
    path = Line(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0))
    with pytest.raises(ValueError, match="steps must be >= 1"):
        integrate_slice_quadrature(Monomial(1), path, 0)


@settings(max_examples=10, deadline=None)
@given(st.tuples(*(st.floats(-1, 1) for _ in range(4))),
       st.tuples(*(st.floats(-1, 1) for _ in range(4))))
# at N = 200 both errors are about 4e-5 and of one sign, so the two values
# nearly agree there; at N = 800 their gap is 0.97 times that at N = 200,
# while each error falls by 5x and 16x
@example((0.892578125, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))
def test_staircase_and_quadrature_agree_increasingly(a4, b4):
    # each method converges on its own to F(b) - F(a): their gap at N can be
    # small where the two errors happen to cancel
    a, b = Quaternion(*a4), Quaternion(*b4)
    F = PowerSeries((0.5, 1.0, -2.0, 1.5))
    path = Line(a, b)
    ref = endpoint_reference(F, path)
    for method in (integrate, integrate_slice_quadrature):
        errors = [(method(F, path, n).value - ref).norm() for n in (200, 800)]
        assert errors[1] <= errors[0] * 0.5 + 1e-12


def test_closed_loop_of_entire_function_is_small():
    circle = SliceCircle(0.25, 1.0, U_I, 1.0)
    n = 10_000
    rep = integrate(NamedFunction("exp"), circle, n)
    assert rep.value.norm() <= 25.0 / n
    assert_close(rep.reference, Quaternion(0, 0, 0, 0), 1e-12)


def test_polynomial_closed_loop_is_exact():
    # in-slice circles sample monomials at roots of unity; the sums cancel
    circle = SliceCircle(2.0, 1.0, U_I, 1.0)
    rep = integrate(Monomial(3), circle, 64)
    assert rep.value.norm() <= 1e-12


def test_study_requires_three_ascending_counts():
    path = Line(Quaternion(1, 1, 0, 0), Quaternion(1, 1, 1, 0))
    with pytest.raises(ValueError):
        convergence_study(Monomial(2), path, [100, 200])
    with pytest.raises(ValueError):
        convergence_study(Monomial(2), path, [100, 300, 200])


def test_study_exact_case_reports_no_order():
    path = Line(Quaternion(1, 1, 0, 0), Quaternion(1, 1, 1, 0))
    study = convergence_study(Monomial(1), path, [100, 200, 400])
    assert study.est_order is None
    assert study.is_exact()
    assert all(err <= 1e-12 for _, _, err in study.rows)


def test_a_report_without_reference_or_rows_is_not_exact():
    # ln is multivalued, so its integral along a line has no endpoint reference
    rep = integrate(NamedFunction("ln"), Line(Quaternion(1, 1, 0, 0), Quaternion(2, 1, 0, 0)), 100)
    assert rep.reference is None and not rep.is_exact()
    # with no rows there is no error to be small, whatever the reference
    for ref in (None, rep.value):
        assert not IntegrationReport(steps=100, value=rep.value, reference=ref).is_exact()


def test_study_without_reference_raises():
    path = Line(Quaternion(1, 1, 0, 0), Quaternion(2, 1, 0, 0))
    with pytest.raises(MissingReferenceError):
        convergence_study(NamedFunction("ln"), path, [100, 200, 400])


@pytest.mark.parametrize("name, a, b, steps, rule, want", [
    # the continuous values, bit for bit: the singular-point check moves none
    ("reciprocal", 0.25, 0.5, 101, "left", [0.011248462124318948, 1.23072544369941, 0.0, 0.0]),
    ("reciprocal", 0.25, 0.5, 3001, "left", [0.0003785720341740119, 1.2307691811723338, 0.0, 0.0]),
    ("reciprocal", 0.25, 0.5, 3000, "midpoint",
     [1.487601613615365e-18, 1.2307692555842145, 0.0, 0.0]),
    ("ln", -1.0, 1.0, 101, "left", [-0.0099009900990099, -1.5707636502599762, 0.0, 0.0]),
    ("ln", -1.0, 1.0, 3001, "left",
     [-0.00033322225924691776, -1.5707962897825385, 0.0, 0.0]),
    ("ln", -1.0, 1.0, 3000, "midpoint", [1.9743808604905707e-19, -1.570796345313415, 0.0, 0.0]),
])
def test_a_crossing_at_a_regular_point_keeps_its_value(name, a, b, steps, rule, want):
    # reciprocal across 0.25 and ln across its cut at -1: no node on the axis
    path = Line(Quaternion(a, -b, 0, 0), Quaternion(a, b, 0, 0))
    assert integrate(NamedFunction(name), path, steps, rule=rule).value.to_list() == want


@pytest.mark.parametrize("F, path, s", [
    (NamedFunction("ln"), PolyLine((Quaternion(-1, 1, 0, 0), Quaternion(1, 1, 0, 0),
                                    Quaternion(1, -1, 0, 0), Quaternion(-1, -1, 0, 0),
                                    Quaternion(1, 1, 0, 0))), 0.875),
    (Scaled(NamedFunction("ln1m"), -1.0), SliceCircle(2.0, 1.0, U_I, 1.0), 0.5),
    (NamedFunction("reciprocal"), SliceCircle(0.0, 1.0, U_I, 1.0), 0.0),
])
def test_a_path_through_a_singular_point_is_rejected_before_any_step(F, path, s, monkeypatch):
    monkeypatch.setattr(sys.modules["qint.integrate"], "_staircase_sum", None)
    exp = NamedFunction("exp")
    # integrate under either rule; by-parts with the singular function as F and as G
    for call in (lambda: integrate(F, path, 1001),
                 lambda: integrate(F, path, 1001, rule="midpoint"),
                 lambda: by_parts_residual(F, exp, path, 1001),
                 lambda: by_parts_residual(exp, F, path, 1001)):
        with pytest.raises(DomainError, match="pole or branch point") as exc:
            call()
        assert exc.value.s_param == s


def test_axis_crossing_fine_for_entire():
    path = Line(Quaternion(0.25, -0.5, 0, 0), Quaternion(0.25, 0.5, 0, 0))
    rep = integrate(NamedFunction("exp"), path, 4000)
    assert rep.abs_error <= 1e-3


def test_reference_and_error_populated():
    path = Line(Quaternion(1, 1, 0, 0), Quaternion(1, 1, 1, 0))
    rep = integrate(Monomial(2), path, 100)
    ref = eval_function(Monomial(2), path.end) - eval_function(Monomial(2), path.start)
    assert_close(rep.reference, ref, 1e-15)
    assert rep.abs_error == pytest.approx((rep.value - ref).norm())
    assert rep.rows == [(100, rep.value, rep.abs_error)]


def summed_differentials(F, path, n, rule):
    """Component-wise math.fsum of the public differential over the chords
    of an n-step staircase, with each s formed as k * (1/n)."""
    inv = 1.0 / n
    terms = [differential(F, path.point((k - 1) * inv if rule == "left" else (k - 0.5) * inv),
                          path.point(k * inv) - path.point((k - 1) * inv))
             for k in range(1, n + 1)]
    return Quaternion(*(math.fsum(getattr(t, c) for t in terms)
                        for c in ("w", "x1", "x2", "x3")))


@pytest.mark.parametrize("rule", ["left", "midpoint"])
@pytest.mark.parametrize("fn,path", KERNEL_CASES)
def test_kernel_equals_summed_public_differentials(fn, path, rule):
    F, P = KERNEL_FUNCTIONS[fn], KERNEL_PATHS[path]
    # one fsum chunk: the same terms rounded once, so equal bit for bit
    assert integrate(F, P, 1000, rule=rule).value == summed_differentials(F, P, 1000, rule)
    # several chunks, folded with a carried remainder
    got, want = integrate(F, P, 3000, rule=rule).value, summed_differentials(F, P, 3000, rule)
    assert (got - want).norm() <= 1e-15 * want.norm()


def trapezoid_of_central_differences(F, path, n):
    """The quadrature's sum written out: the trapezoid rule over all n + 1
    samples, O(n) terms, one math.fsum per component."""
    h = 1.0 / n
    g = [eval_function(F, path.point(k * h)).to_list() for k in range(n + 1)]
    terms = [[0.25 * (-3.0 * a + 4.0 * b - c) for a, b, c in zip(*g[:3])],
             [0.25 * (3.0 * a - 4.0 * b + c) for c, b, a in zip(*g[-3:])]]
    terms += [[0.5 * (b - a) for a, b in zip(p, q)] for p, q in zip(g, g[2:])]
    return Quaternion(*map(math.fsum, zip(*terms)))


@pytest.mark.parametrize("n", [2, 3, 7, 100, 1000])
@pytest.mark.parametrize("fn", ["exp", "series5"])
@pytest.mark.parametrize("path", list(KERNEL_PATHS))
def test_quadrature_equals_its_trapezoid_sum(fn, path, n):
    # the interior stencils telescope: six samples give the O(n) sum's value
    F, P = KERNEL_FUNCTIONS[fn], KERNEL_PATHS[path]
    got = integrate_slice_quadrature(F, P, n).value
    want = trapezoid_of_central_differences(F, P, n)
    assert (got - want).norm() <= 1e-14 * max(1.0, want.norm())


class CountingExp(AnalyticFunction):
    """exp that counts its evaluations."""

    def __init__(self):
        self.evals = self.derivs = 0

    def eval_complex(self, z):
        self.evals += 1
        return NamedFunction("exp").eval_complex(z)

    def deriv_complex(self, z):
        self.derivs += 1
        return NamedFunction("exp").deriv_complex(z)

    is_entire = True


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100_000])
def test_quadrature_reads_six_samples_and_no_derivative(n):
    F = CountingExp()
    integrate_slice_quadrature(F, KERNEL_PATHS["line"], n)
    assert F.evals <= min(n + 1, 6) + 2  # the rule's samples, then the reference's two
    assert F.derivs == 0


def test_quadrature_memory_does_not_grow_with_n():
    tracemalloc.start()
    try:
        integrate_slice_quadrature(NamedFunction("exp"), KERNEL_PATHS["line"], 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64_000


def test_quadrature_cannot_see_a_loop_around_a_singularity():
    # a documented blind spot: ln around 0 along a box in the i-slice. The
    # staircase finds the winding, 2 pi i; the telescoped quadrature reads
    # F only near the two (equal) ends, so it returns about 0.
    box = PolyLine(tuple(Quaternion(w, y, 0, 0)
                         for w, y in ((1, .1), (-1, .1), (-1, -.1), (1, -.1), (1, .1))))
    ln = KERNEL_FUNCTIONS["ln"]
    assert integrate(ln, box, 1001).value.x1 == pytest.approx(2 * math.pi, rel=1e-4)
    assert integrate_slice_quadrature(ln, box, 1001).value.norm() < 1e-4


def test_sum_carries_the_remainder_across_chunks():
    # large terms cancel only in a later chunk, so each chunk's rounded total
    # drops the small terms; only the carried remainder brings them back. The
    # terms are dyadic and span under 2**106, so (total, remainder) holds
    # every partial sum exactly and the result equals one fsum bit for bit.
    rng = random.Random(3)
    rows = [(rng.randint(-2**20, 2**20) * 2.0**-10, rng.randint(-2**20, 2**20) * 2.0**-30)
            for _ in range(3 * _SUM_CHUNK + 7)]
    rows[_SUM_CHUNK - 1] = (2.0**70, -2.0**50)
    rows[_SUM_CHUNK] = (3 * 2.0**66, 2.0**48)
    rows[2 * _SUM_CHUNK + 2] = (-2.0**70, 2.0**50)
    rows[3 * _SUM_CHUNK] = (-3 * 2.0**66, -2.0**48)
    total = _pairs(list(zip(*rows[:_SUM_CHUNK])), float)
    for i in range(_SUM_CHUNK, len(rows), _SUM_CHUNK):
        total = _add(total, _pairs(list(zip(*rows[i:i + _SUM_CHUNK])), float), 0.0)
    assert [hi for hi, _ in total] == [math.fsum(column) for column in zip(*rows)]


@pytest.mark.parametrize("rule", ["left", "midpoint"])
@pytest.mark.parametrize("steps", [1000, 12305, 100_000])
@pytest.mark.parametrize("line", ["line_j_step", "line_cross_slice", "line_from_zero"])
def test_square_on_a_line_equals_its_discrete_sum(line, steps, rule, cpus):
    # with the chord d = (b - a)/N, x d + d x = (x + d)^2 - x^2 - d^2, so the
    # left rule sums exactly to F(b) - F(a) - N d^2 and the midpoint rule, at
    # x + d/2, to F(b) - F(a): a step dropped or doubled anywhere shows
    cpus(4)
    path = catalog_paths()[line]
    a, b = path.start, path.end
    ref = b * b - a * a
    if rule == "left":
        ref = ref - (b - a) * (b - a) * (1.0 / steps)
    got = integrate(Monomial(2), path, steps, rule=rule).value
    assert (got - ref).norm() <= 1e-13 * max(1.0, ref.norm())


def sequential_fold(F, path, steps, lag):
    """The staircase summed in this process alone, chunk after chunk in s order."""
    term = _differential if F.is_entire else _off_axis_differential
    inv = 1.0 / steps
    total = None
    for first in range(1, steps + 1, _SUM_CHUNK):
        pairs = _pairs(_staircase(term, F, path, steps, lag, first),
                       lambda i: (first + i - lag) * inv)
        last = min(first + _SUM_CHUNK, steps + 1) - 1
        total = pairs if total is None else _add(total, pairs, (last - lag) * inv)
    return [hi for hi, _ in total]


@FORKS
@pytest.mark.parametrize("rule", ["left", "midpoint"])
@pytest.mark.parametrize("fn", list(catalog_functions()))
def test_value_does_not_depend_on_the_worker_count(fn, rule, cpus):
    # under any worker count, the value is this process's own chunk-by-chunk fold
    F, lag = catalog_functions()[fn], 1.0 if rule == "left" else 0.5
    # 13 chunks, the last one short; and one chunk whose last node on a line,
    # at 49 * (1/49) = 1 - 2**-53, is Line.coords' float there, not the end b
    for steps in (12305, 49):
        want = [Quaternion(*sequential_fold(F, path, steps, lag))
                for path in catalog_paths().values()]
        for k in (1, 2, 3, 4):
            cpus(k)
            assert [integrate(F, path, steps, rule=rule).value
                    for path in catalog_paths().values()] == want
    assert_no_child_left()


# points the inline differential must leave to the row term, which handles
# r == 0 and r < 2**-511 on its own branches
ROW_WALK_PATHS = {
    # the left rule's point at s = 1/16, step 513 of 8192, is on the real axis
    "axis": Line(Quaternion(1, -1, 0, 0), Quaternion(1, 15, 0, 0)),
    # every r on it is below 2**-511
    "tiny": Line(Quaternion(-1, 1e-160, 0, 0), Quaternion(1, 1e-160, 1e-160, 0)),
}


@pytest.mark.parametrize("rule", ["left", "midpoint"])
@pytest.mark.parametrize("fn", ["x3", "exp"])
@pytest.mark.parametrize("path", list(ROW_WALK_PATHS))
def test_chunks_with_a_real_axis_or_tiny_r_point_equal_the_row_walk(path, fn, rule, cpus,
                                                                    monkeypatch):
    F, P = {"x3": Monomial(3), "exp": NamedFunction("exp")}[fn], ROW_WALK_PATHS[path]
    lag = 1.0 if rule == "left" else 0.5
    want = Quaternion(*sequential_fold(F, P, 8192, lag))
    for k in (1, 4):
        cpus(k)
        assert integrate(F, P, 8192, rule=rule).value == want
    # one row term per point the formula leaves out, not one per point of its chunk
    module, calls = sys.modules["qint.integrate"], []
    row_term = module._differential

    def counted(*args):
        calls.append(1)
        return row_term(*args)

    monkeypatch.setattr(module, "_differential", counted)
    cpus(1)
    assert integrate(F, P, 8192, rule=rule).value == want
    assert len(calls) == {"axis": 1 if rule == "left" else 0, "tiny": 8192}[path]


class ReversedLine(Line):
    """The segment from b to a: a Line subclass with coords of its own."""

    def coords(self, s):
        return Line.coords(self, 1.0 - s)


def test_a_lines_nodes_are_computed_in_the_walk_and_other_paths_read_coords(cpus, monkeypatch):
    # Line.coords gives a Line's walk the node before each chunk and, at the
    # midpoint rule, each evaluation point; endpoint_reference reads both ends
    steps = 3 * _SUM_CHUNK + 17
    inv = 1.0 / steps
    chunks = [range(first, min(first + _SUM_CHUNK, steps + 1))
              for first in range(1, steps + 1, _SUM_CHUNK)]
    ends = [0.0, 1.0]
    coords, calls = Line.coords, []

    def logged(self, s):
        calls.append(s)
        return coords(self, s)

    monkeypatch.setattr(Line, "coords", logged)
    cpus(1)
    F = NamedFunction("exp")
    integrate(F, KERNEL_PATHS["line"], steps)
    assert calls == [(ns[0] - 1) * inv for ns in chunks] + ends
    calls.clear()
    integrate(F, KERNEL_PATHS["line"], steps, rule="midpoint")
    assert calls == [s for ns in chunks
                     for s in [(ns[0] - 1) * inv, *((n - 0.5) * inv for n in ns)]] + ends
    # every node of any other path goes through its coords: a PolyLine's
    # segments' coords, or the coords of a Line subclass, which may not be Line's
    a, b = KERNEL_PATHS["line"].a, KERNEL_PATHS["line"].b
    for path in (KERNEL_PATHS["polyline"], ReversedLine(a, b)):
        calls.clear()
        integrate(F, path, steps)
        assert len(calls) == steps + len(chunks) + len(ends)


STEPS = 32774  # even: the left rule evaluates at s = 1/2


@FORKS
def test_a_child_that_dies_before_writing_is_summed_again(cpus, monkeypatch):
    F, path = NamedFunction("exp"), KERNEL_PATHS["circle"]
    cpus(1)
    want = integrate(F, path, STEPS).value
    parent, pairs = os.getpid(), sys.modules["qint.integrate"]._pairs

    def dying(*args):  # every chunk is folded by _pairs, whichever kernel summed it
        if os.getpid() != parent:
            os._exit(1)
        return pairs(*args)

    monkeypatch.setattr(sys.modules["qint.integrate"], "_pairs", dying)
    cpus(4)
    assert integrate(F, path, STEPS).value == want
    assert_no_child_left()


class _Interrupt(BaseException):
    """Not an Exception, like KeyboardInterrupt, so the staircase's sums pass it on."""


@FORKS
def test_an_interrupt_after_the_forks_kills_every_child(cpus, monkeypatch, tmp_path):
    # this process raises from its first chunk's fold, which comes after the forks; each
    # child stalls in its own first fold and would then note that it ran on: none may
    F, path = NamedFunction("exp"), KERNEL_PATHS["circle"]
    want = Quaternion(*sequential_fold(F, path, STEPS, 1.0))
    parent, pairs = os.getpid(), sys.modules["qint.integrate"]._pairs
    ran_on = os.open(tmp_path / "ran_on", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    raised = []

    def interrupted(*args):
        if not raised:  # in a child, as it was when the child was forked
            if os.getpid() == parent:
                raised.append(1)
                raise _Interrupt
            time.sleep(1.0)
            os.write(ran_on, b"c")
        return pairs(*args)

    monkeypatch.setattr(sys.modules["qint.integrate"], "_pairs", interrupted)
    cpus(4)
    with pytest.raises(_Interrupt):
        integrate(F, path, STEPS)
    assert_no_child_left()
    assert os.fstat(ran_on).st_size == 0
    assert integrate(F, path, STEPS).value == want
    assert_no_child_left()
    os.close(ran_on)


@FORKS
def test_a_later_fault_claimed_by_this_process_is_not_the_one_reported(cpus, monkeypatch,
                                                                       tmp_path):
    # exp overflows from w ~ 709.8 on, at s ~ 0.204: chunk 3 of 16 and every one after it.
    # This process stalls before its first claim, so the children claim chunk 3 and the
    # next ones and stall in their walks of them; this process then claims a later faulty
    # chunk and meets its fault first. Chunk 3's is reported
    F, path = NamedFunction("exp"), Line(Quaternion(700, 1, 0, 0), Quaternion(748, 1, 0, 0))
    steps = 16 * _SUM_CHUNK
    with pytest.raises(QintError) as want:
        sequential_fold(F, path, steps, 1.0)
    assert 3 / 16 <= want.value.s_param < 4 / 16
    parent, read, module = os.getpid(), os.read, sys.modules["qint.integrate"]
    walk = module._differential_walk
    stalled = os.open(tmp_path / "stalled", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def stalled_claim(fd, size):
        if os.getpid() == parent and not stalls:
            stalls.append(fd)
            time.sleep(0.2)
        return read(fd, size)

    def stalled_walk(term, F, path, steps, lag, first):
        if os.getpid() != parent and first > 3 * _SUM_CHUNK:
            os.write(stalled, b"c")
            time.sleep(0.6)
        return walk(term, F, path, steps, lag, first)

    monkeypatch.setattr(os, "read", stalled_claim)
    monkeypatch.setattr(module, "_differential_walk", stalled_walk)
    for k in (2, 4):
        cpus(k)
        stalls = []
        with pytest.raises(QintError) as got:
            integrate(F, path, steps)
        assert stalls
        assert type(got.value) is type(want.value)
        assert (str(got.value), got.value.s_param) == (str(want.value), want.value.s_param)
        assert_no_child_left()
    assert os.fstat(stalled).st_size > 0
    os.close(stalled)


class _TornSlots:
    """The staircase's block of slots. Its first write in this process waits, so
    that the children claim chunks; a child writes half of a chunk's pairs into
    the chunk's slot, notes the tear and dies before the mark."""

    def __init__(self, block, parent: int, tears: int):
        self.view, self.parent, self.tears, self.waited = memoryview(block), parent, tears, False

    def cast(self, fmt):
        self.view = self.view.cast(fmt)
        return self

    def __getitem__(self, i):
        return self.view[i]

    def __setitem__(self, i, x):
        if os.getpid() == self.parent and not self.waited:
            self.waited = True
            time.sleep(0.2)
        elif os.getpid() != self.parent and isinstance(i, slice):
            half = len(x) // 2
            self.view[i.start:i.start + half] = x[:half]
            os.write(self.tears, b"t")
            os._exit(1)
        self.view[i] = x


@FORKS
@pytest.mark.parametrize("death", ["before_claiming", "after_claiming", "while_writing"])
def test_a_child_that_dies_at_any_point_is_summed_again(death, cpus, monkeypatch, tmp_path):
    F, path = NamedFunction("exp"), KERNEL_PATHS["circle"]
    want = Quaternion(*sequential_fold(F, path, STEPS, 1.0))
    parent, read, module = os.getpid(), os.read, sys.modules["qint.integrate"]
    tears = os.open(tmp_path / "tears", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def claim(fd, size):  # every claim a child reads goes through here
        if os.getpid() != parent and death == "before_claiming":
            os._exit(1)
        record = read(fd, size)
        if os.getpid() != parent and death == "after_claiming":
            os._exit(1)
        return record

    monkeypatch.setattr(os, "read", claim)
    if death == "while_writing":
        monkeypatch.setattr(module, "memoryview", lambda block: _TornSlots(block, parent, tears),
                            raising=False)
    for k in (2, 4):
        cpus(k)
        torn = os.fstat(tears).st_size
        assert integrate(F, path, STEPS).value == want
        assert_no_child_left()
        assert (os.fstat(tears).st_size > torn) == (death == "while_writing")
    os.close(tears)


@FORKS
@pytest.mark.parametrize("pipe_buf", [None, 8])
def test_each_chunk_is_claimed_and_summed_once(pipe_buf, cpus, monkeypatch, tmp_path):
    # 13 chunks, no fault and no death. A PIPE_BUF of 8 bytes holds two claims, of 7
    # chunks and 6, as a staircase of more than 1024 chunks has claims of several
    F, path, steps = NamedFunction("exp"), KERNEL_PATHS["line"], 12305
    cpus(1)
    want = integrate(F, path, steps).value
    module = sys.modules["qint.integrate"]
    walk, firsts = module._differential_walk, tmp_path / "firsts"
    log = os.open(firsts, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(term, F, path, steps, lag, first):  # every chunk of this staircase comes here
        os.write(log, b"%d\n" % first)
        return walk(term, F, path, steps, lag, first)

    monkeypatch.setattr(module, "_differential_walk", logged)
    if pipe_buf is not None:
        monkeypatch.setattr(select, "PIPE_BUF", pipe_buf)
    for k in (2, 4):
        cpus(k)
        os.ftruncate(log, 0)
        assert integrate(F, path, steps).value == want
        assert_no_child_left()
        assert sorted(map(int, firsts.read_text().split())) == list(range(1, steps + 1, _SUM_CHUNK))
    os.close(log)


@FORKS
def test_a_fork_that_fails_leaves_the_run_to_this_process(cpus, monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "no process to spare")

    F, path = NamedFunction("exp"), KERNEL_PATHS["circle"]
    cpus(1)
    want = integrate(F, path, STEPS).value
    monkeypatch.setattr(os, "fork", no_fork)
    cpus(4)
    assert integrate(F, path, STEPS).value == want


@FORKS
def test_no_fork_while_another_thread_is_alive(cpus, monkeypatch):
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    cpus(4)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        value = integrate(NamedFunction("exp"), KERNEL_PATHS["line"], STEPS).value
    finally:
        release.set()
        other.join()
    assert forks == []
    assert value == Quaternion(*sequential_fold(NamedFunction("exp"), KERNEL_PATHS["line"],
                                                STEPS, 1.0))


@FORKS
def test_a_fork_needs_two_chunks_per_process(cpus, monkeypatch):
    F, path, fork, children = NamedFunction("exp"), KERNEL_PATHS["line"], os.fork, []

    def counted():  # the real fork; a child appends only to its own copy of the list
        pid = fork()
        children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    cpus(4)
    for chunks, forks in ((2, 0), (3, 0), (4, 1), (8, 3)):
        steps = chunks * _SUM_CHUNK
        want = Quaternion(*sequential_fold(F, path, steps, 1.0))
        children.clear()
        assert integrate(F, path, steps).value == want
        assert len(children) == forks
        assert_no_child_left()


def test_a_lone_process_sums_each_chunk_once_the_faulty_one_too(cpus, monkeypatch):
    # |z| passes 1 at s ~ 0.43, past the first chunk
    F, path = PowerSeries((1, 1), radius=1), Line(Quaternion(0, 0.5), Quaternion(2, 0.5))
    with pytest.raises(QintError) as want:
        sequential_fold(F, path, STEPS, 1.0)
    faulty = round(want.value.s_param * STEPS) // _SUM_CHUNK * _SUM_CHUNK + 1  # its first step
    assert faulty > _SUM_CHUNK
    module = sys.modules["qint.integrate"]
    walk, firsts = module._differential_walk, []

    def logged(term, F, path, steps, lag, first):  # every chunk of this staircase comes here
        firsts.append(first)
        return walk(term, F, path, steps, lag, first)

    monkeypatch.setattr(module, "_differential_walk", logged)
    monkeypatch.setattr(module, "_staircase", None)  # the faulty chunk is not walked again
    cpus(1)
    with pytest.raises(QintError) as got:
        integrate(F, path, STEPS)
    assert firsts == list(range(1, faulty + 1, _SUM_CHUNK))
    assert type(got.value) is type(want.value)
    assert (str(got.value), got.value.s_param) == (str(want.value), want.value.s_param)


LN = NamedFunction("ln")


@settings(max_examples=150, deadline=None)
@given(FUNCTION_SPECS, FUNCTION_SPECS, PATH_SPECS, POINT_SPECS, POINT_SPECS,
       st.integers(1, 64))
# the differential of ln1m at x, applied to delta, is past the largest double
@example({"kind": "named", "name": "ln1m"}, {"kind": "named", "name": "exp"},
         {"kind": "line", "a": [0.0, 1.0, 0.0, 0.0], "b": [1.0, 1.0, 0.0, 0.0]},
         [2.0, 0.0, 0.0, 8.44e-157], [0.0, 0.0, 1e300, 1e300], 1)
def test_library_contract_holds_for_generated_specs(f, g, p, x, d, steps):
    # every returned number is finite, or a QintError names the s at fault;
    # inverse_ftc_residual takes points, not a path, so it may raise without s.
    # Branch tracking runs on ln, the one function it accepts.
    try:
        F, G, path = parse_function(f), parse_function(g), parse_path(p)
        x, delta = Quaternion.from_list(x), Quaternion.from_list(d)
    except (ValueError, QintError):
        reject()
    calls = {
        "left": lambda: integrate(F, path, steps),
        "midpoint": lambda: integrate(F, path, steps, rule="midpoint"),
        "quadrature": lambda: integrate_slice_quadrature(F, path, steps),
        "branch": lambda: integrate_with_branch_tracking(LN, path, steps),
        "by_parts": lambda: by_parts_residual(F, G, path, steps),
        "inverse_ftc": lambda: inverse_ftc_residual(F, x, delta, steps),
    }
    for name, call in calls.items():
        try:
            out = call()
        except QintError as e:
            assert e.s_param is not None or name == "inverse_ftc", (name, e)
            continue
        if isinstance(out, IntegrationReport):
            out = (out.value, out.reference, out.abs_error)
        numbers = []
        for item in out if isinstance(out, tuple) else (out,):
            if isinstance(item, Quaternion):
                numbers += item.to_list()
            elif item is not None:
                numbers.append(item)
        assert all(map(math.isfinite, numbers)), (name, out)
