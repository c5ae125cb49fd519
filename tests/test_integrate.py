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
from hypothesis import given, reject, settings, strategies as st

from conftest import (FORKS, FUNCTION_SPECS, PATH_SPECS, POINT_SPECS, assert_close,
                      assert_no_child_left, quaternions)
from qint import (DegenerateSliceError, DomainError, IntegrationReport, Line,
                  MissingReferenceError, Monomial, NamedFunction, PolyLine, PowerSeries,
                  QintError, Quaternion, SliceCircle, UnitImaginary, convergence_study,
                  differential, endpoint_reference, eval_function, integrate,
                  integrate_slice_quadrature, integrate_with_branch_tracking, parse_function,
                  parse_path)
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


@settings(max_examples=10, deadline=None)
@given(st.tuples(*(st.floats(-1, 1) for _ in range(4))),
       st.tuples(*(st.floats(-1, 1) for _ in range(4))))
def test_staircase_and_quadrature_agree_increasingly(a4, b4):
    a, b = Quaternion(*a4), Quaternion(*b4)
    F = PowerSeries((0.5, 1.0, -2.0, 1.5))
    path = Line(a, b)
    gaps = []
    for n in (200, 800):
        va = integrate(F, path, n).value
        vb = integrate_slice_quadrature(F, path, n).value
        gaps.append((va - vb).norm())
    assert gaps[1] <= gaps[0] * 0.5 + 1e-12


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


def test_study_without_reference_raises():
    path = Line(Quaternion(1, 1, 0, 0), Quaternion(2, 1, 0, 0))
    with pytest.raises(MissingReferenceError):
        convergence_study(NamedFunction("ln"), path, [100, 200, 400])


def test_endpoint_outside_domain_raises_domain_error():
    geometric = PowerSeries((1.0,) * 30, radius=1.0)
    # stays off the real axis throughout, but |z| reaches 2 at the far end
    path = Line(Quaternion(0, 0.5, 0, 0), Quaternion(0, 0, 2, 0))
    with pytest.raises(DomainError):
        convergence_study(geometric, path, [100, 200, 400])
    with pytest.raises(DomainError):
        integrate(geometric, path, 100)


def test_axis_crossing_rejected_for_non_entire():
    # crosses the real axis midway; reciprocal is not entire
    path = Line(Quaternion(0.25, -0.5, 0, 0), Quaternion(0.25, 0.5, 0, 0))
    with pytest.raises(DegenerateSliceError) as exc:
        integrate(NamedFunction("reciprocal"), path, 100)
    assert exc.value.s_param == pytest.approx(0.5, abs=0.01)
    # the quadrature samples only near the ends, so it sees the axis only there
    from_axis = Line(Quaternion(0.25, 0, 0, 0), Quaternion(0.25, 0.5, 0, 0))
    with pytest.raises(DegenerateSliceError) as exc:
        integrate_slice_quadrature(NamedFunction("reciprocal"), from_axis, 100)
    assert exc.value.s_param == 0.0


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


def test_kernel_failures_name_the_evaluation_s():
    far = Line(Quaternion(700, 1, 0, 0), Quaternion(720, 1, 0, 0))
    with pytest.raises(DomainError, match="overflow") as exc:
        integrate(NamedFunction("exp"), far, 10)
    assert exc.value.s_param == 0.5
    outside = Line(Quaternion(0, 0.5, 0, 0), Quaternion(2, 0.5, 0, 0))
    with pytest.raises(DomainError, match=r"^\|z\| = .* outside radius") as exc:
        integrate(PowerSeries((1, 1), radius=1), outside, 10)
    assert exc.value.s_param == 0.5


def test_quadrature_failures_name_the_sample_s():
    # samples at s = 0, 0.1, 0.2, 0.8, 0.9, 1: the fault starts at s = 0.5,
    # so the first sample that meets it is s = 0.8
    far = Line(Quaternion(700, 1, 0, 0), Quaternion(720, 1, 0, 0))
    with pytest.raises(DomainError, match="overflow") as exc:
        integrate_slice_quadrature(NamedFunction("exp"), far, 10)
    assert exc.value.s_param == 0.8
    outside = Line(Quaternion(0, 0.5, 0, 0), Quaternion(2, 0.5, 0, 0))
    with pytest.raises(DomainError, match=r"^\|z\| = .* outside radius") as exc:
        integrate_slice_quadrature(PowerSeries((1, 1), radius=1), outside, 10)
    assert exc.value.s_param == 0.8


def test_quadrature_sum_overflow_names_the_stencil_centre():
    # every sample is finite; in the end stencil at s = 0, 4 g(0.1) = 1.6 peak is not
    peak = 1.5e308
    path = PolyLine(tuple(Quaternion(w, 1, 0, 0) for w in (0, peak, 0, 0, 0)))
    with pytest.raises(DomainError, match="overflow") as exc:
        integrate_slice_quadrature(Monomial(1), path, 10)
    assert exc.value.s_param == 0.0
    # one step is the pair of samples; their difference is past the largest double
    wide = Line(Quaternion(-1.7e308, 1, 0, 0), Quaternion(1.7e308, 1, 0, 0))
    with pytest.raises(DomainError, match="overflow") as exc:
        integrate_slice_quadrature(Monomial(1), wide, 1)
    assert exc.value.s_param == 1.0


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


def test_staircase_fault_past_the_first_chunk_names_its_s():
    # past s = 0.5 each chord moves x2 by ~4.9e6, so a term is ~4.9e6 exp(w):
    # term 4055 of 4096, at w ~ 694.5, is the first non-finite one
    path = PolyLine((Quaternion(0, 1, 0, 0), Quaternion(1, 1, 0, 0),
                     Quaternion(709, 1, 1e10, 0)))
    with pytest.raises(DomainError, match=r"overflow \(.* in fsum\)") as exc:
        integrate(NamedFunction("exp"), path, 4096)
    assert exc.value.s_param == 4055 / 4096


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
    F, steps = catalog_functions()[fn], 12305  # 13 chunks, the last one short
    lag = 1.0 if rule == "left" else 0.5
    want = [Quaternion(*sequential_fold(F, path, steps, lag)) for path in catalog_paths().values()]
    for k in (1, 2, 3, 4):
        cpus(k)
        assert [integrate(F, path, steps, rule=rule).value
                for path in catalog_paths().values()] == want
    assert_no_child_left()


# chunks the column kernel must leave to the row walk, which handles r == 0
# and r < 2**-511 on its own branches
ROW_WALK_PATHS = {
    # the left rule's point at s = 1/16, step 513 of 8192, is on the real axis
    "axis": Line(Quaternion(1, -1, 0, 0), Quaternion(1, 15, 0, 0)),
    # every r on it is below 2**-511
    "tiny": Line(Quaternion(-1, 1e-160, 0, 0), Quaternion(1, 1e-160, 1e-160, 0)),
}


@pytest.mark.parametrize("rule", ["left", "midpoint"])
@pytest.mark.parametrize("fn", ["x3", "exp"])
@pytest.mark.parametrize("path", list(ROW_WALK_PATHS))
def test_chunks_with_a_real_axis_or_tiny_r_point_equal_the_row_walk(path, fn, rule, cpus):
    F, P = {"x3": Monomial(3), "exp": NamedFunction("exp")}[fn], ROW_WALK_PATHS[path]
    lag = 1.0 if rule == "left" else 0.5
    want = Quaternion(*sequential_fold(F, P, 8192, lag))
    for k in (1, 4):
        cpus(k)
        assert integrate(F, P, 8192, rule=rule).value == want


def test_ln_on_the_real_axis_mid_chunk_names_its_s(cpus):
    for k in (1, 4):
        cpus(k)
        with pytest.raises(DegenerateSliceError) as exc:
            integrate(NamedFunction("ln"), ROW_WALK_PATHS["axis"], 8192)
        assert exc.value.s_param == 0.0625


STEPS = 32774  # even: the left rule evaluates at s = 1/2
HUGE = 1.7e308
FAULTS = {
    # a term out of range from w ~ 709.8 on, at s ~ 0.49
    "term": (NamedFunction("exp"), Line(Quaternion(700, 1, 0, 0), Quaternion(720, 1, 0, 0))),
    # |z| passes 1 at s ~ 0.43
    "disk": (PowerSeries((1, 1), radius=1), Line(Quaternion(0, 0.5, 0, 0), Quaternion(2, 0.5, 0, 0))),
    # the evaluation point s = 1/2 is on the real axis
    "axis": (NamedFunction("reciprocal"),
             Line(Quaternion(0.25, -0.5, 0, 0), Quaternion(0.25, 0.5, 0, 0))),
    # every term is finite, but the running total x_n - x_0 passes the largest double at s ~ 0.53
    "total": (Monomial(1), PolyLine((Quaternion(-HUGE, 1, 0, 0), Quaternion(0, 1, 0, 0),
                                     Quaternion(HUGE, 1, 0, 0)))),
    # out of the disk in segment 2 of 8 and again in segment 6, in chunks that any
    # process may claim; the first is reported
    "twice": (PowerSeries((1, 1), radius=1),
              PolyLine(tuple(Quaternion(*p) for p in [(0, .5, 0, 0), (.3, .4, .2, 0), (0, .5, 0, 0),
                                                        (0, 0, 1.5, 0)] * 2 + [(0, .5, 0, 0)]))),
}


@FORKS
@pytest.mark.parametrize("fault,rule", [(f, r) for f in FAULTS for r in ("left", "midpoint")
                                        if (f, r) != ("axis", "midpoint")])
def test_fault_is_the_sequential_folds_under_any_worker_count(fault, rule, cpus):
    F, path = FAULTS[fault]
    lag = 1.0 if rule == "left" else 0.5
    with pytest.raises(QintError) as want:
        sequential_fold(F, path, STEPS, lag)
    assert want.value.s_param > 4096 / STEPS  # past the first 4096 steps
    for k in (1, 4):
        cpus(k)
        with pytest.raises(QintError) as got:
            integrate(F, path, STEPS, rule=rule)
        assert type(got.value) is type(want.value)
        assert (str(got.value), got.value.s_param) == (str(want.value), want.value.s_param)
        assert_no_child_left()
    if fault == "twice":
        assert 2 / 8 < want.value.s_param < 3 / 8


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


@FORKS
def test_a_later_fault_claimed_by_this_process_is_not_the_one_reported(cpus, monkeypatch):
    # exp overflows from w ~ 709.8 on, at s ~ 0.204: chunk 3 of 16 and every one after it,
    # and only such a chunk takes the row walk. This process stalls before its first claim,
    # so the children claim chunk 3 and the next ones and stall in their row walks; this
    # process then claims a later faulty chunk and meets its fault first. Chunk 3's is reported
    F, path = NamedFunction("exp"), Line(Quaternion(700, 1, 0, 0), Quaternion(748, 1, 0, 0))
    steps = 16 * _SUM_CHUNK
    with pytest.raises(QintError) as want:
        sequential_fold(F, path, steps, 1.0)
    assert 3 / 16 <= want.value.s_param < 4 / 16
    parent, read, module = os.getpid(), os.read, sys.modules["qint.integrate"]
    row_walk = module._staircase

    def stalled_claim(fd, size):
        if os.getpid() == parent and not stalls:
            stalls.append(fd)
            time.sleep(0.2)
        return read(fd, size)

    def stalled_row_walk(*args):
        if os.getpid() != parent:
            time.sleep(0.6)
        return row_walk(*args)

    monkeypatch.setattr(os, "read", stalled_claim)
    monkeypatch.setattr(module, "_staircase", stalled_row_walk)
    for k in (2, 4):
        cpus(k)
        stalls = []
        with pytest.raises(QintError) as got:
            integrate(F, path, steps)
        assert stalls
        assert type(got.value) is type(want.value)
        assert (str(got.value), got.value.s_param) == (str(want.value), want.value.s_param)
        assert_no_child_left()


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
    columns, firsts = module._columns, tmp_path / "firsts"
    log = os.open(firsts, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(F, path, steps, lag, first):  # every chunk of this staircase goes through here
        os.write(log, b"%d\n" % first)
        return columns(F, path, steps, lag, first)

    monkeypatch.setattr(module, "_columns", logged)
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


LN = NamedFunction("ln")


@settings(max_examples=150, deadline=None)
@given(FUNCTION_SPECS, FUNCTION_SPECS, PATH_SPECS, POINT_SPECS, POINT_SPECS,
       st.integers(1, 64))
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
