import math

import pytest
from hypothesis import given, settings

from conftest import assert_close, off_axis_quaternions, quaternions, unit_imaginaries
from qint import (DegenerateSliceError, DomainError, Monomial, NamedFunction,
                  PowerSeries, Quaternion, UnitImaginary, antiderivative,
                  decompose_delta, eval_derivative, eval_function, perp_quotient,
                  slice_point)


def test_unit_imaginary_normalizes():
    u = UnitImaginary(Quaternion(0, 3, 0, 4))
    assert u.value.norm() == pytest.approx(1.0, abs=1e-12)
    assert_close(u.value * u.value, Quaternion(-1, 0, 0, 0), 1e-12)


def test_unit_imaginary_rejects_scalar_part():
    with pytest.raises(ValueError):
        UnitImaginary(Quaternion(0.1, 1, 0, 0))


def test_unit_imaginary_rejects_zero_vector():
    with pytest.raises(DegenerateSliceError):
        UnitImaginary(Quaternion(0, 0, 0, 0))


@pytest.mark.parametrize("big", [1e300, 1.7e308])
def test_unit_imaginary_normalizes_huge_components(big):
    # the squared length overflows at 1e300 and the length itself at 1.7e308
    u = UnitImaginary(Quaternion(0, big, big, 0)).value
    assert_close(u, Quaternion(0, math.sqrt(0.5), math.sqrt(0.5), 0), 1e-15)
    u = UnitImaginary(Quaternion(0, 5e-324, 0, 0)).value
    assert u == Quaternion(0, 1, 0, 0)


def test_slice_point_examples():
    sp = slice_point(Quaternion(3, 4, 0, 0))
    assert (sp.xi0, sp.r) == (3, 4)
    assert sp.u.value == Quaternion(0, 1, 0, 0)

    sp = slice_point(Quaternion(1, 2, 0, 2))
    assert sp.xi0 == 1
    assert sp.r == pytest.approx(2 * math.sqrt(2))
    s = 1 / math.sqrt(2)
    assert_close(sp.u.value, Quaternion(0, s, 0, s), 1e-12)

    with pytest.raises(DegenerateSliceError):
        slice_point(Quaternion(5, 0, 0, 0))


@given(off_axis_quaternions())
def test_slice_point_reconstructs(x):
    assert_close(slice_point(x).reconstruct(), x, 1e-12)


def test_decompose_examples():
    split = decompose_delta(Quaternion(0, 1, 0, 0), Quaternion(2, 0, 0, 0))
    assert_close(split.parallel, Quaternion(2, 0, 0, 0), 1e-12)
    assert_close(split.perp, Quaternion(0, 0, 0, 0), 1e-12)

    split = decompose_delta(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0))
    assert_close(split.parallel, Quaternion(0, 0, 0, 0), 1e-12)
    assert_close(split.perp, Quaternion(0, 0, 1, 0), 1e-12)

    x = Quaternion(1, 1, 0, 0)
    split = decompose_delta(x, x)
    assert_close(split.parallel, x, 1e-12)
    assert_close(split.perp, Quaternion(0, 0, 0, 0), 1e-12)


@given(off_axis_quaternions(min_r=1e-6), quaternions())
def test_decompose_invariants(x, d):
    split = decompose_delta(x, d)
    u = slice_point(x).u.value
    assert_close(split.parallel + split.perp, d, 1e-12)
    assert_close(u * split.parallel, split.parallel * u, 1e-12)
    assert_close(u * split.perp, -(split.perp * u), 1e-12)


@given(off_axis_quaternions(), quaternions(), quaternions())
def test_decompose_is_linear(x, d1, d2):
    a = decompose_delta(x, d1)
    b = decompose_delta(x, d2)
    c = decompose_delta(x, d1 + d2)
    assert_close(c.parallel, a.parallel + b.parallel, 1e-9)
    assert_close(c.perp, a.perp + b.perp, 1e-9)


@given(unit_imaginaries())
def test_euler_identity_in_any_slice(u):
    x = u.scaled(math.pi)
    assert_close(eval_function(NamedFunction("exp"), x), Quaternion(-1, 0, 0, 0), 1e-12)


def test_eval_examples():
    v = eval_function(NamedFunction("reciprocal"), Quaternion(0.5, 0, 0, 0))
    assert_close(v, Quaternion(2, 0, 0, 0), 1e-12)
    v = eval_function(Monomial(2), Quaternion(1, 1, 0, 0))
    assert_close(v, Quaternion(0, 2, 0, 0), 1e-12)


def test_eval_derivative_examples():
    assert_close(eval_derivative(Monomial(3), Quaternion(2, 0, 0, 0)),
                 Quaternion(12, 0, 0, 0), 1e-12)
    assert_close(eval_derivative(NamedFunction("exp"), Quaternion(0, math.pi, 0, 0)),
                 Quaternion(-1, 0, 0, 0), 1e-12)
    assert_close(eval_derivative(Monomial(2), Quaternion(1, 0, 1, 0)),
                 Quaternion(2, 0, 2, 0), 1e-12)


@given(off_axis_quaternions(min_r=1e-6))
def test_eval_stays_in_slice(x):
    # F(x) commutes with x: both live in the same commutative plane
    v = eval_function(NamedFunction("exp"), x)
    assert_close(v * x, x * v, 1e-10)


@given(quaternions())
def test_eval_conjugation_equivariance(x):
    for F in (Monomial(3), NamedFunction("exp"), PowerSeries((0.5, -1.0, 2.0))):
        assert_close(eval_function(F, x.conj()), eval_function(F, x).conj(), 1e-10)


def test_eval_at_real_point_is_real():
    v = eval_function(NamedFunction("sin"), Quaternion(2, 0, 0, 0))
    assert v == Quaternion(math.sin(2), 0, 0, 0)


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_function(NamedFunction("ln"), Quaternion(-1, 0, 0, 0))
    with pytest.raises(DomainError):
        eval_function(PowerSeries((1.0, 1.0), radius=1.0), Quaternion(1, 1, 0, 0))
    # ln off the axis is fine even at negative scalar part
    eval_function(NamedFunction("ln"), Quaternion(-1, 1, 0, 0))


def test_perp_quotient_examples():
    x = Quaternion(1.5, 0.3, -0.4, 1.0)
    assert perp_quotient(Monomial(2), x) == pytest.approx(2 * x.w, rel=1e-12)
    assert perp_quotient(Monomial(1), x) == pytest.approx(1.0, rel=1e-12)
    assert perp_quotient(NamedFunction("exp"), Quaternion(3, 0, 0, 0)) == \
        pytest.approx(math.exp(3), rel=1e-12)


def test_perp_quotient_at_subnormal_r_is_the_derivative():
    # Im f(xi0 + r i) underflows at r = 5e-324; f is defined at xi0, so b/r = Re f'(z)
    x = Quaternion(-1, 5e-324, 0, 0)
    assert perp_quotient(NamedFunction("exp"), x) == math.exp(-1)
    assert perp_quotient(Monomial(3), x) == 3.0
    with pytest.raises(OverflowError):  # on the cut, pi / r is past the largest double
        perp_quotient(NamedFunction("ln"), x)


@settings(max_examples=60)
@given(off_axis_quaternions(span=3.0, min_r=1e-6))
def test_perp_quotient_matches_conjugate_difference(x):
    from qint import conjugate_quotient
    for F in (Monomial(2), Monomial(3), NamedFunction("exp"), NamedFunction("sin")):
        scalar = perp_quotient(F, x)
        full = conjugate_quotient(F, x)
        ref = Quaternion(scalar, 0, 0, 0)
        assert (full - ref).norm() <= 1e-9 * max(1.0, abs(scalar))


@given(off_axis_quaternions(span=0.8, min_r=1e-3))
def test_antiderivative_derivative_recovers_on_disk(x):
    f = PowerSeries((1.0, -0.5, 0.25, 2.0), radius=1.8)
    h = antiderivative(f)
    if x.norm() < 0.9 * f.radius:
        assert_close(eval_derivative(h, x), eval_function(f, x), 1e-10)
