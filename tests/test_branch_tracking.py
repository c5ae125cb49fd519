import math
import tracemalloc

import pytest

from conftest import assert_close
from qint import (DomainError, Line, Monomial, NamedFunction, PolyLine,
                  Quaternion, SliceCircle, SliceEscapeError, StepTooCoarseError,
                  UnitImaginary, UnsupportedFunctionError,
                  integrate_with_branch_tracking)

LN = NamedFunction("ln")
U_I = UnitImaginary(Quaternion(0, 1, 0, 0))
U_JK = UnitImaginary(Quaternion(0, 0, 1, 1))


def test_unit_circle_single_turn():
    rep = integrate_with_branch_tracking(LN, SliceCircle(0.0, 1.0, U_I, 1.0), 10_000)
    assert_close(rep.reference, Quaternion(0, 2 * math.pi, 0, 0), 1e-12)
    assert_close(rep.value, Quaternion(0, 2 * math.pi, 0, 0), 1e-2)
    # left-rule winding error is (2 pi)^2 / (2 N) to leading order
    assert rep.abs_error == pytest.approx((2 * math.pi) ** 2 / 2e4, rel=0.05)


def test_reverse_turn_flips_sign():
    rep = integrate_with_branch_tracking(LN, SliceCircle(0.0, 1.0, U_I, -1.0), 10_000)
    assert_close(rep.reference, Quaternion(0, -2 * math.pi, 0, 0), 1e-12)
    assert_close(rep.value, Quaternion(0, -2 * math.pi, 0, 0), 1e-2)


def test_double_turn_in_tilted_slice():
    rep = integrate_with_branch_tracking(LN, SliceCircle(0.0, 1.0, U_JK, 2.0), 20_000)
    s = 4 * math.pi / math.sqrt(2.0)
    assert_close(rep.reference, Quaternion(0, 0, s, s), 1e-9)
    assert_close(rep.value, rep.reference, 2e-2)


def test_winding_value_is_additive_over_turns():
    # the 2-turn sampling repeats the 1-turn sampling twice, term for term
    one = integrate_with_branch_tracking(LN, SliceCircle(0.0, 1.0, U_I, 1.0), 4000)
    two = integrate_with_branch_tracking(LN, SliceCircle(0.0, 1.0, U_I, 2.0), 8000)
    assert_close(two.value, 2.0 * one.value, 1e-9)
    assert_close(two.reference, 2.0 * one.reference, 1e-9)


def test_real_segment_reduces_to_real_log():
    rep = integrate_with_branch_tracking(
        LN, Line(Quaternion(1, 0, 0, 0), Quaternion(2, 0, 0, 0)), 10_000)
    assert_close(rep.reference, Quaternion(math.log(2), 0, 0, 0), 1e-12)
    assert rep.abs_error <= 1e-3


def test_crossing_the_negative_axis_continues_the_branch():
    # second quadrant to third quadrant of the i-slice; no cut in the way
    path = Line(Quaternion(-1, 1, 0, 0), Quaternion(-1, -1, 0, 0))
    rep = integrate_with_branch_tracking(LN, path, 4000)
    assert_close(rep.reference, Quaternion(0, math.pi / 2, 0, 0), 1e-12)
    assert_close(rep.value, rep.reference, 1e-3)


def test_zero_turn_loop_is_zero():
    rep = integrate_with_branch_tracking(LN, SliceCircle(2.0, 1.0, U_I, 0.0), 100)
    assert rep.value == Quaternion(0, 0, 0, 0)
    assert rep.reference == Quaternion(0, 0, 0, 0)


def test_huge_circle_winds_like_the_unit_circle():
    # the terms (z_k - z_{k-1}) / z_{k-1} do not depend on the radius; at
    # radius 1e200 the squared imaginary radius overflows, which once made
    # u the zero vector
    unit = integrate_with_branch_tracking(LN, SliceCircle(0.0, 1.0, U_JK, 1.0), 64)
    huge = integrate_with_branch_tracking(LN, SliceCircle(0.0, 1e200, U_JK, 1.0), 64)
    assert_close(huge.value, unit.value, 1e-13)


def test_path_through_zero_raises():
    path = Line(Quaternion(0, -1, 0, 0), Quaternion(0, 1, 0, 0))
    with pytest.raises(DomainError) as exc:
        integrate_with_branch_tracking(LN, path, 100)
    assert exc.value.s_param == pytest.approx(0.5)


def test_overflow_past_the_first_chunk_names_its_s():
    # the term (z - z_prev) / z_prev leaving 5e-324 at s = 0.5 overflows
    path = PolyLine((Quaternion(1, 0, 0, 0), Quaternion(5e-324, 0, 0, 0),
                     Quaternion(1, 0, 0, 0)))
    with pytest.raises(DomainError, match="overflow") as exc:
        integrate_with_branch_tracking(LN, path, 4096)
    assert exc.value.s_param == 0.5


def test_leaving_the_slice_plane_raises():
    path = Line(Quaternion(1, 1, 0, 0), Quaternion(1, 0, 1, 0))
    with pytest.raises(SliceEscapeError) as exc:
        integrate_with_branch_tracking(LN, path, 100)
    assert 0.0 < exc.value.s_param <= 0.1


def test_coarse_sampling_of_a_loop_raises():
    with pytest.raises(StepTooCoarseError):
        integrate_with_branch_tracking(LN, SliceCircle(0.0, 1.0, U_I, 1.0), 3)


def test_quarter_steps_are_accepted():
    rep = integrate_with_branch_tracking(LN, SliceCircle(0.0, 1.0, U_I, 1.0), 4)
    assert_close(rep.reference, Quaternion(0, 2 * math.pi, 0, 0), 1e-9)


def test_first_fault_along_the_path_is_reported():
    # a phase jump of ~pi at s = 0.5, then a slice escape at s = 1
    path = PolyLine((Quaternion(1, 0.1, 0, 0), Quaternion(-1, 0.1, 0, 0),
                     Quaternion(-1, 0, 1, 0)))
    with pytest.raises(StepTooCoarseError) as exc:
        integrate_with_branch_tracking(LN, path, 2)
    assert exc.value.s_param == pytest.approx(0.5)


def test_only_ln_is_supported():
    circle = SliceCircle(0.0, 1.0, U_I, 1.0)
    with pytest.raises(UnsupportedFunctionError):
        integrate_with_branch_tracking(NamedFunction("exp"), circle, 100)
    with pytest.raises(UnsupportedFunctionError):
        integrate_with_branch_tracking(Monomial(1), circle, 100)
    with pytest.raises(ValueError):
        integrate_with_branch_tracking(LN, circle, 0)


def test_open_arc_accumulates_partial_phase():
    # from +1 counterclockwise through i and -1, stopping at -i: +3/2 pi
    rep = integrate_with_branch_tracking(LN, SliceCircle(0.0, 1.0, U_I, 0.75), 6000)
    assert_close(rep.reference, Quaternion(0, 1.5 * math.pi, 0, 0), 1e-9)
    assert_close(rep.value, rep.reference, 1e-2)


def test_report_fields_are_consistent():
    rep = integrate_with_branch_tracking(LN, SliceCircle(0.0, 1.0, U_I, 1.0), 5000)
    assert rep.steps == 5000
    assert rep.abs_error == pytest.approx((rep.value - rep.reference).norm())
    assert rep.rows == [(5000, rep.value, rep.abs_error)]
    assert rep.est_order is None


def test_memory_stays_bounded():
    # a streaming pass; O(N) point lists would peak near 2 MB at this N
    tracemalloc.start()
    try:
        integrate_with_branch_tracking(LN, SliceCircle(0.0, 1.0, U_I, 3.0), 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
