import cmath
import math

import pytest
from hypothesis import given, strategies as st

from qint import (DomainError, Monomial, NamedFunction, PowerSeries, Scaled,
                  UnsupportedFunctionError, antiderivative, parse_function)
from qint.functions import AnalyticFunction


def test_series_evaluates_polynomial():
    f = PowerSeries((1.0, -2.0, 3.0))  # 1 - 2z + 3z^2
    z = 0.5 + 0.25j
    assert f.eval_complex(z) == pytest.approx(1 - 2 * z + 3 * z * z)
    assert f.deriv_complex(z) == pytest.approx(-2 + 6 * z)


def test_series_zero_coefficients_do_not_truncate_early():
    f = PowerSeries((0.0, 0.0, 1.0))
    assert f.eval_complex(2.0 + 0j) == 4.0


def test_series_small_middle_term_does_not_stop_the_sum():
    f = PowerSeries((1.0, 1e-20, 1e10))
    assert f.eval_complex(1.0 + 0j) == 1e10 + 1.0
    assert f.deriv_complex(1.0 + 0j) == 2e10
    # cached evaluation data stays out of equality, hashing and repr
    assert f == PowerSeries((1, 1e-20, 1e10)) and hash(f) == hash(PowerSeries((1, 1e-20, 1e10)))
    assert repr(f) == "PowerSeries(coeffs=(1.0, 1e-20, 10000000000.0), radius=inf)"


def test_series_rejects_outside_radius():
    f = PowerSeries((1.0, 1.0, 1.0), radius=1.0)
    f.eval_complex(0.99 + 0j)
    with pytest.raises(DomainError):
        f.eval_complex(1.0 + 0j)
    with pytest.raises(DomainError):
        f.deriv_complex(0.8 + 0.8j)


def test_series_requires_positive_radius():
    with pytest.raises(ValueError):
        PowerSeries((1.0,), radius=0.0)


def test_series_long_tail_truncates():
    # exp's series: truncation must stop long before 150 terms at z = 1
    f = PowerSeries(tuple(1.0 / math.factorial(n) for n in range(150)))
    assert f.eval_complex(1.0 + 0j) == pytest.approx(math.e, rel=1e-14)


def test_series_product_convolves():
    f = PowerSeries((1.0, 1.0), radius=2.0)       # 1 + z
    g = PowerSeries((1.0, -1.0, 2.0), radius=3.0)  # 1 - z + 2z^2
    fg = f * g
    assert fg.coeffs == (1.0, 0.0, 1.0, 2.0)
    assert fg.radius == 2.0


@given(st.integers(min_value=0, max_value=8))
def test_monomial_matches_series(n):
    z = 0.7 - 0.3j
    coeffs = tuple(0.0 if k < n else 1.0 for k in range(n + 1))
    assert Monomial(n).eval_complex(z) == pytest.approx(PowerSeries(coeffs).eval_complex(z))
    assert Monomial(n).deriv_complex(z) == pytest.approx(PowerSeries(coeffs).deriv_complex(z))


def test_monomial_rejects_bad_exponent():
    with pytest.raises(ValueError):
        Monomial(-1)


def test_named_registry():
    z = 0.3 + 1.1j
    assert NamedFunction("exp").eval_complex(z) == cmath.exp(z)
    assert NamedFunction("sin").deriv_complex(z) == cmath.cos(z)
    assert NamedFunction("cos").deriv_complex(z) == -cmath.sin(z)
    assert NamedFunction("reciprocal").eval_complex(z) == pytest.approx(1 / (1 - z))
    with pytest.raises(ValueError):
        NamedFunction("sinh")


def test_ln_principal_branch_and_cut():
    assert NamedFunction("ln").eval_complex(1.0 + 0j) == 0.0
    assert NamedFunction("ln").eval_complex(1j) == pytest.approx(0.5j * math.pi)
    for z in (-1.0 + 0j, 0j, -0.5 + 0j):
        with pytest.raises(DomainError):
            NamedFunction("ln").eval_complex(z)
        with pytest.raises(DomainError):
            NamedFunction("ln").deriv_complex(z)
    with pytest.raises(DomainError, match=r"ln\(1 - x\) is undefined on the branch cut"):
        NamedFunction("ln1m").deriv_complex(2 + 0j)


def test_reciprocal_pole():
    with pytest.raises(DomainError):
        NamedFunction("reciprocal").eval_complex(1.0 + 0j)


def test_entire_and_single_valued_flags():
    assert NamedFunction("exp").is_entire
    assert not NamedFunction("ln").is_entire
    assert not NamedFunction("ln").single_valued
    assert not NamedFunction("reciprocal").is_entire
    assert NamedFunction("reciprocal").single_valued
    assert PowerSeries((1.0,)).is_entire
    assert not PowerSeries((1.0,), radius=2.0).is_entire
    assert Monomial(5).is_entire


def test_singular_points():
    # a series' disk holds every chord between nodes inside it, so it lists none
    assert [NamedFunction(n).singular_points for n in ("exp", "sin", "cos")] == [()] * 3
    assert NamedFunction("ln").singular_points == (0.0,)
    assert NamedFunction("ln1m").singular_points == (1.0,)
    assert NamedFunction("reciprocal").singular_points == (1.0,)
    assert PowerSeries((1.0, 1.0), radius=1.0).singular_points == ()
    assert Monomial(3).singular_points == ()
    assert Scaled(NamedFunction("ln1m"), -1.0).singular_points == (1.0,)


def test_antiderivative_series_shift():
    h = antiderivative(PowerSeries((0.0, 0.0, 1.0)))  # t^2 -> t^3/3
    assert h.coeffs == (0.0, 0.0, 0.0, pytest.approx(1 / 3))
    assert antiderivative(PowerSeries((1.0,))).coeffs == (0.0, 1.0)
    assert antiderivative(PowerSeries((1.0, 1.0), radius=2.0)).radius == 2.0


def test_antiderivative_named_rules():
    z = 0.4 - 0.2j
    cases = [
        (NamedFunction("exp"), NamedFunction("exp")),
        (NamedFunction("cos"), NamedFunction("sin")),
        (NamedFunction("sin"), Scaled(NamedFunction("cos"), -1.0)),
    ]
    for f, expected in cases:
        h = antiderivative(f)
        assert h.eval_complex(z) == pytest.approx(expected.eval_complex(z))
        assert h.deriv_complex(z) == pytest.approx(f.eval_complex(z))
    assert antiderivative(Scaled(NamedFunction("cos"), 2.0)) == Scaled(NamedFunction("sin"), 2.0)
    # 1/(1-x) integrates to -ln(1-x)
    h = antiderivative(NamedFunction("reciprocal"))
    assert h.eval_complex(z) == pytest.approx(-cmath.log(1 - z))
    assert h.deriv_complex(z) == pytest.approx(1 / (1 - z))


def test_antiderivative_monomial():
    h = antiderivative(Monomial(3))
    assert h.eval_complex(2.0 + 0j) == pytest.approx(16 / 4)


def test_antiderivative_unsupported():
    with pytest.raises(UnsupportedFunctionError):
        antiderivative(NamedFunction("ln"))


def test_antiderivative_of_a_kind_with_no_rule():
    class Doubling(AnalyticFunction):
        def eval_complex(self, z):
            return 2 * z

    with pytest.raises(UnsupportedFunctionError, match="no antiderivative rule for Doubling"):
        antiderivative(Doubling())


@given(st.lists(st.floats(-2, 2, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_antiderivative_derivative_round_trip(coeffs):
    f = PowerSeries(tuple(coeffs))
    h = antiderivative(f)
    z = 0.3 + 0.4j
    assert h.deriv_complex(z) == pytest.approx(f.eval_complex(z), abs=1e-12)


def test_parse_function_series():
    f = parse_function({"kind": "series", "coeffs": [1, 0, 2], "radius": 3})
    assert isinstance(f, PowerSeries)
    assert f.coeffs == (1.0, 0.0, 2.0)
    assert f.radius == 3.0
    entire = parse_function({"kind": "series", "coeffs": [1]})
    assert entire.is_entire
    assert parse_function({"kind": "series", "coeffs": [1], "radius": None}).is_entire


def test_parse_function_named_and_monomial():
    assert parse_function({"kind": "named", "name": "exp"}) == NamedFunction("exp")
    m = parse_function({"kind": "named", "name": "monomial", "n": 3})
    assert m == Monomial(3)


@pytest.mark.parametrize("bad", [
    None, [], {"kind": "wat"}, {"kind": "series"}, {"kind": "series", "coeffs": "x"},
    {"kind": "named"}, {"kind": "named", "name": "monomial"},
    {"kind": "named", "name": "monomial", "n": 1.5},
    {"kind": "named", "name": "monomial", "n": True},
    {"kind": "scaled", "factor": "x", "inner": {"kind": "named", "name": "exp"}},
])
def test_parse_function_rejects(bad):
    with pytest.raises(ValueError):
        parse_function(bad)


def test_function_json_round_trip():
    for f in (PowerSeries((1.0, 2.0), radius=1.5), PowerSeries((0.5,)),
              Monomial(4), NamedFunction("sin"),
              Scaled(NamedFunction("cos"), -1.0)):
        assert parse_function(f.to_json()) == f
