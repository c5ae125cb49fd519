import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import assert_close, off_axis_quaternions, quaternions
from qint import (Monomial, NamedFunction, PowerSeries, Quaternion, differential,
                  differential_reference, eval_function, sym_product_sum)


def test_differential_examples():
    # x*d + d*x at x = 1+i, d = j: (1+i)j + j(1+i) = 2j
    assert_close(differential(Monomial(2), Quaternion(1, 1, 0, 0), Quaternion(0, 0, 1, 0)),
                 Quaternion(0, 0, 2, 0), 1e-12)
    # ij + ji = 0
    assert_close(differential(Monomial(2), Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0)),
                 Quaternion(0, 0, 0, 0), 1e-12)


@given(off_axis_quaternions(), quaternions())
def test_differential_of_identity_is_delta(x, d):
    assert_close(differential(Monomial(1), x, d), d, 1e-12)


def test_sym_product_sum_examples():
    d = Quaternion(0.3, -1, 0.5, 2)
    assert sym_product_sum(Quaternion(1, 2, 3, 4), d, 0) == d
    assert_close(sym_product_sum(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), 1),
                 Quaternion(0, 0, 0, 0), 1e-12)
    x = Quaternion(1, 1, 0, 0)
    k = Quaternion(0, 0, 0, 1)
    expected = k * x * x + x * k * x + x * x * k
    assert_close(sym_product_sum(x, k, 2), expected, 1e-12)
    with pytest.raises(ValueError):
        sym_product_sum(x, k, -1)


def test_sym_product_sum_keeps_fraction_input_exact():
    # j i i + i j i + i i j = -j + j - j = -j, with no float in any component
    zero, one = Fraction(0), Fraction(1)
    got = sym_product_sum(Quaternion(zero, one, zero, zero), Quaternion(zero, zero, one, zero), 2)
    assert got == Quaternion(0, 0, -1, 0)
    assert all(isinstance(c, Fraction) for c in got.to_list())


@settings(max_examples=100)
@given(off_axis_quaternions(span=1.2, min_r=1e-3), quaternions(1.0))
def test_monomial_differential_equals_symmetric_sum(x, d):
    for n in range(7):
        assert_close(differential(Monomial(n + 1), x, d),
                     sym_product_sum(x, d, n), 1e-10)


@settings(max_examples=50)
@given(off_axis_quaternions(span=0.8, min_r=1e-3), quaternions(1.0))
def test_leibniz_rule_on_polynomials(x, d):
    F = PowerSeries((0.5, -1.0, 0.0, 2.0))
    G = PowerSeries((1.0, 2.0, -0.5))
    lhs = differential(F * G, x, d)
    rhs = differential(F, x, d) * eval_function(G, x) \
        + eval_function(F, x) * differential(G, x, d)
    assert_close(lhs, rhs, 1e-9)


@given(off_axis_quaternions(min_r=1e-6), quaternions(), quaternions())
def test_differential_linear_in_delta(x, d1, d2):
    F = Monomial(3)
    assert_close(differential(F, x, d1 + d2),
                 differential(F, x, d1) + differential(F, x, d2), 1e-9)
    assert_close(differential(F, x, 2.5 * d1), 2.5 * differential(F, x, d1), 1e-9)


@given(off_axis_quaternions(min_r=1e-6), quaternions())
def test_flattened_matches_reference_assembly(x, d):
    for F in (Monomial(4), NamedFunction("exp"), PowerSeries((1.0, 0.0, -2.0, 0.5))):
        assert_close(differential(F, x, d), differential_reference(F, x, d), 1e-11)


@pytest.mark.parametrize("r", [2e-12, 1e-13, 1e-300])
def test_flattened_matches_reference_next_to_the_axis(r):
    # off the axis means r > 0: both assemblies use the true u and b/r, even
    # at -1 + r*i, a hair from the cut of ln
    x = Quaternion(-1.0, r, 0.0, 0.0)
    d = Quaternion(0.3, -0.7, 1.1, 0.4)
    for F in (NamedFunction("ln"), NamedFunction("exp"), Monomial(3),
              PowerSeries((1.0, 0.0, -2.0, 0.5))):
        got, ref = differential(F, x, d), differential_reference(F, x, d)
        assert (got - ref).norm() <= 1e-12 * ref.norm()


def test_real_axis_reduces_to_ordinary_derivative():
    for xw, dw in ((0.75, 0.5), (-1.25, 2.0), (2.0, -0.125)):
        x = Quaternion(xw, 0, 0, 0)
        d = Quaternion(dw, 0, 0, 0)
        got = differential(NamedFunction("exp"), x, d)
        assert_close(got, Quaternion(math.exp(xw) * dw, 0, 0, 0), 1e-12)
        assert differential_reference(NamedFunction("exp"), x, d) == got
        got = differential(Monomial(3), x, d)
        assert_close(got, Quaternion(3 * xw * xw * dw, 0, 0, 0), 1e-12)
        assert differential_reference(Monomial(3), x, d) == got


def test_real_axis_limit_applies_to_any_delta():
    # on the axis the operator collapses to f'(x) * delta even off-slice
    x = Quaternion(0.5, 0, 0, 0)
    d = Quaternion(0.1, -0.2, 0.3, 0.4)
    got = differential(Monomial(2), x, d)
    assert_close(got, 1.0 * d, 1e-12)  # f'(0.5) = 1


def test_first_order_remainder_shrinks_quadratically():
    F = NamedFunction("sin")
    x = Quaternion(0.5, 1.0, -0.5, 0.25)
    d = Quaternion(0.4, 0.1, 0.8, -0.3)
    hs = [1e-2 * 0.5 ** k for k in range(9)]
    rems = []
    for h in hs:
        hd = h * d
        rems.append((eval_function(F, x + hd) - eval_function(F, x)
                     - differential(F, x, hd)).norm())
    logs = [math.log(r) for r in rems]
    slope = (logs[-1] - logs[0]) / (math.log(hs[-1]) - math.log(hs[0]))
    assert slope == pytest.approx(2.0, abs=0.2)
