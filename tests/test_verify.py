import inspect
import math
import sys
from dataclasses import fields, replace

import pytest

from conftest import FORKS, assert_no_child_left
from qint import (ZERO, CheckReport, DegenerateSliceError, DomainError, Line, Monomial,
                  NamedFunction, PolyLine, PowerSeries, Quaternion, SliceCircle, Tolerances,
                  UnitImaginary, UnsupportedFunctionError, decompose_delta, differential,
                  eval_function, integrate, inverse_ftc_residual, tolerances_from_env,
                  verify_antiderivative_map, verify_ftc_forward, verify_ftc_inverse,
                  verify_integration_by_parts)
from qint.suite import (EXTRA_CHECKS, catalog_functions, catalog_paths, check_antiderivative,
                        check_exact_identities, check_inverse_ftc, check_mutual_oracle,
                        check_winding, check_winding_additivity, run_suite)
from qint.verify import DEFAULT_BASE, by_parts_residual

X = Monomial(1)
X2 = Monomial(2)
X3 = Monomial(3)


class TestToleranceEnv:
    def test_defaults_without_variable(self):
        tol = tolerances_from_env(env={})
        assert tol == Tolerances()
        assert tol.exact_floor == 1e-12
        assert tol.by_parts == 2e-3
        assert tol.slope_min == 0.9

    def test_empty_string_means_defaults(self):
        assert tolerances_from_env(env={"QINT_TOL": "  "}) == Tolerances()

    def test_bare_number_overrides_residual_bounds_only(self):
        tol = tolerances_from_env(env={"QINT_TOL": "1e-6"})
        assert tol.by_parts == 1e-6
        assert tol.winding == 1e-6
        assert tol.exact_floor == 1e-6
        # slope targets and slack factors are not residual bounds
        assert tol.slope_min == 0.9
        assert tol.slope_two_tol == 0.3
        assert tol.rule_upgrade_margin == 0.5
        assert tol.decay_slack == 1.05

    @pytest.mark.parametrize("name", [f.name for f in fields(Tolerances)])
    def test_bare_number_sets_every_field_but_the_four_non_residual_ones(self, name):
        tol = tolerances_from_env(env={"QINT_TOL": "1e-6"})
        kept = {"slope_min", "slope_two_tol", "rule_upgrade_margin", "decay_slack"}
        expected = getattr(Tolerances(), name) if name in kept else 1e-6
        assert getattr(tol, name) == expected

    def test_object_overrides_named_fields(self):
        tol = tolerances_from_env(env={"QINT_TOL": '{"by_parts": 1e-4, "slope_min": 0.5}'})
        assert tol.by_parts == 1e-4
        assert tol.slope_min == 0.5
        assert tol.winding == Tolerances().winding

    @pytest.mark.parametrize("raw", [
        "not json", '"1e-6"', "true", "[1, 2]",
        '{"no_such_bound": 1e-6}', '{"by_parts": true}', '{"by_parts": "small"}',
        "Infinity", "1e400", "NaN", "-Infinity", '{"by_parts": Infinity}', '{"winding": NaN}',
        "-1", "-1e-300", '{"by_parts": -0.001}', '{"slope_min": -0.9}',
    ])
    def test_rejects_malformed_values(self, raw):
        with pytest.raises(ValueError):
            tolerances_from_env(env={"QINT_TOL": raw})

    def test_zero_is_a_bound(self):
        assert tolerances_from_env(env={"QINT_TOL": "0"}).by_parts == 0.0
        assert tolerances_from_env(env={"QINT_TOL": '{"winding": 0}'}).winding == 0.0

    def test_describe_lists_every_field(self):
        d = Tolerances().describe()
        assert d["mutual_oracle"] == 2e-3
        assert len(d) == 15


class TestCheckReport:
    def test_json_shape(self):
        rep = CheckReport(check="demo", passed=True, residuals=[1e-5], tolerance=1e-3,
                          config={"n": 4})
        js = rep.to_json()
        assert js == {"check": "demo", "pass": True, "residuals": [1e-5],
                      "tolerance": 1e-3, "config": {"n": 4}}

    def test_summary_line(self):
        rep = CheckReport(check="demo", passed=False, residuals=[1e-5, 3e-2],
                          tolerance=1e-3)
        line = rep.summary_line()
        assert line.startswith("FAIL demo:")
        assert "3.000e-02" in line and "1.000e-03" in line

    def test_summary_line_without_residuals(self):
        assert "0.000e+00" in CheckReport("demo", True, [], 1.0).summary_line()

    @pytest.mark.parametrize("residuals,passed", [
        ([1e-3], True),               # a residual equal to the bound passes
        ([0.0, 1e-3, 5e-4], True),
        ([1e-4, 2e-3], False),        # the first is within, a later one is not
        ([2e-3, 1e-4], False),
        ([1e-4, math.nan], False),
    ])
    def test_within_passes_when_every_residual_is_within(self, residuals, passed):
        config = {"n": 4}
        rep = CheckReport.within("demo", residuals, 1e-3, config)
        assert rep.passed is passed
        assert (rep.check, rep.residuals, rep.tolerance, rep.config) == \
            ("demo", residuals, 1e-3, config)
        assert rep.residuals is residuals and rep.config is config


class TestFtcForward:
    PATH = Line(Quaternion(1, 1, 0, 0), Quaternion(0.5, 0, 1, 0))

    STEPS = [400, 2000, 10000]

    def test_cube_passes_with_decaying_errors(self):
        rep = verify_ftc_forward(X3, self.PATH, self.STEPS)
        assert rep.passed
        assert rep.residuals[0] > rep.residuals[1] > rep.residuals[2]
        assert rep.config["est_order"] == pytest.approx(1.0, abs=0.15)

    def test_unreachable_tolerance_fails_honestly(self):
        tight = replace(Tolerances(), ftc_final=1e-15)
        rep = verify_ftc_forward(X3, self.PATH, self.STEPS, tol=tight)
        assert not rep.passed

    def test_path_leaving_the_disk_raises(self):
        geometric = PowerSeries((1.0,) * 25, radius=1.0)
        bad = Line(Quaternion(0, 0.5, 0, 0), Quaternion(0, 0, 2, 0))
        with pytest.raises(DomainError):
            verify_ftc_forward(geometric, bad, [100, 200, 400])


class TestFtcInverse:
    def test_cube_small_step(self):
        rep = verify_ftc_inverse(X3, Quaternion(1, 1, 0, 0),
                                 Quaternion(0, 0, 0.01, 0), 2000)
        assert rep.passed
        assert rep.residuals[0] <= 1e-3
        assert rep.config["base"] == [1.0, 1.0, 0.0, 0.0]

    def test_identity_is_near_exact(self):
        res = inverse_ftc_residual(X, Quaternion(0.3, 0.7, -0.2, 0.1),
                                   Quaternion(0.02, -0.01, 0.03, 0.0), 500)
        assert res <= 1e-10

    def test_zero_delta_gives_zero_residual(self):
        res = inverse_ftc_residual(X2, Quaternion(1, 1, 0, 0),
                                   Quaternion(0, 0, 0, 0), 100)
        assert res <= 1e-15

    # x is DEFAULT_BASE or not; delta is perpendicular to x's slice (so the
    # parallel leg is empty) or has both parts; each case names its empty legs
    @pytest.mark.parametrize("x,delta,empty", [
        (DEFAULT_BASE, Quaternion(0, 0, 0.01, 0), [True, True, False]),
        (DEFAULT_BASE, Quaternion(0.01, 0.02, -0.01, 0.005), [True, False, False]),
        (Quaternion(0.5, 0, 2, 0), Quaternion(0, 0.01, 0, 0.02), [False, True, False]),
        (Quaternion(0.5, 0, 2, 0), Quaternion(0.01, 0.02, -0.01, 0.005), [False, False, False]),
    ], ids=["base-perp", "base-both", "off_base-perp", "off_base-both"])
    def test_residual_sums_the_non_empty_legs(self, x, delta, empty):
        x_mid = x + decompose_delta(x, delta).parallel
        legs = [(DEFAULT_BASE, x), (x, x_mid), (x_mid, x + delta)]
        assert [a == b for a, b in legs] == empty
        g_x, leg_par, leg_perp = (ZERO if e else integrate(X3, Line(a, b), 1000).value
                                  for (a, b), e in zip(legs, empty))
        expected = ((g_x + leg_par + leg_perp - g_x) - differential(X3, x, delta)).norm()
        assert inverse_ftc_residual(X3, x, delta, 1000) == expected

    def test_an_empty_perpendicular_leg_is_still_integrated(self):
        # delta lies in the slice, so x + delta's parallel part is 1, on the real
        # axis, and only the (empty) perpendicular leg evaluates ln there
        x, delta = Quaternion(1, 1, 0, 0), Quaternion(0, -1, 0, 0)
        assert decompose_delta(x, delta).perp == ZERO
        with pytest.raises(DegenerateSliceError) as exc:
            inverse_ftc_residual(NamedFunction("ln"), x, delta, 100)
        assert exc.value.s_param == 0.0

    def test_base_equal_to_x_skips_the_shared_leg(self):
        from qint.verify import DEFAULT_BASE
        res = inverse_ftc_residual(X2, DEFAULT_BASE, Quaternion(0, 0, 0.01, 0), 1000)
        assert res <= 1e-3

    @pytest.mark.parametrize("F,x,delta,message", [
        # the differential of ln1m a hair off the real axis, applied to 1e300
        (NamedFunction("ln1m"), Quaternion(2, 0, 0, 8.44e-157), Quaternion(0, 0, 1e300, 1e300),
         "overflow (differential out of range)"),
        # every staircase, the differential and each component of their difference
        # are finite; its norm is not
        (X2, Quaternion(0, 0, -1e154, 0), Quaternion(-7e153, 1e154, 7e153, 1e154),
         "overflow (residual out of range)"),
    ])
    def test_out_of_range_is_a_domain_error(self, F, x, delta, message):
        with pytest.raises(DomainError) as exc:
            inverse_ftc_residual(F, x, delta, 1)
        assert str(exc.value) == message

    def test_residual_shrinks_quadratically_in_delta(self):
        x = Quaternion(1, 1, 0, 0)
        rs = [inverse_ftc_residual(X3, x, Quaternion(0, 0, m, 0), 4000)
              for m in (0.02, 0.01, 0.005)]
        assert rs[0] / rs[1] == pytest.approx(4.0, rel=0.25)
        assert rs[1] / rs[2] == pytest.approx(4.0, rel=0.25)


class TestByParts:
    def test_product_of_identities(self):
        path = Line(Quaternion(0, 0, 0, 0), Quaternion(1, 1, 1, 0))
        rep = verify_integration_by_parts(X, X, path, 10_000)
        assert rep.passed
        # boundary term is (1+i+j)^2 - 0
        assert rep.config["boundary"] == pytest.approx([-1.0, 2.0, 2.0, 0.0])

    def test_square_against_identity(self):
        path = Line(Quaternion(0, 0, 0, 0), Quaternion(1, 1, 1, 0))
        rep = verify_integration_by_parts(X2, X, path, 10_000)
        assert rep.passed

    def test_constant_factor_reduces_to_plain_ftc(self):
        const = PowerSeries((2.5,))
        path = Line(Quaternion(1, 1, 0, 0), Quaternion(0.5, 0, 1, 0))
        rep = verify_integration_by_parts(const, X2, path, 10_000)
        assert rep.passed

    def test_closed_loop_has_zero_boundary(self):
        u = UnitImaginary(Quaternion(0, 1, 0, 0))
        rep = verify_integration_by_parts(X, X2, SliceCircle(1.5, 0.5, u, 1.0), 20_000)
        assert rep.config["boundary"] == pytest.approx([0.0, 0.0, 0.0, 0.0])
        assert rep.passed

    def test_too_few_steps_fails_honestly(self):
        path = Line(Quaternion(0, 0, 0, 0), Quaternion(1, 1, 1, 0))
        rep = verify_integration_by_parts(X2, X, path, 3)
        assert not rep.passed

    def test_overflow_names_the_node_s(self):
        exp = NamedFunction("exp")
        far = Line(Quaternion(700, 1, 0, 0), Quaternion(720, 1, 0, 0))
        with pytest.raises(DomainError, match="overflow") as exc:
            verify_integration_by_parts(exp, exp, far, 10)
        assert exc.value.s_param == 0.5
        # every value is finite; from the node w = 355 on, exp(w) * exp(w) is not
        products = Line(Quaternion(350, 1, 0, 0), Quaternion(360, 1, 0, 0))
        with pytest.raises(DomainError, match="overflow") as exc:
            verify_integration_by_parts(exp, exp, products, 10)
        assert exc.value.s_param == 0.5
        # the walk stops at the last left node, w = 709; exp(710) at the end overflows
        near = Line(Quaternion(700, 1, 0, 0), Quaternion(710, 1, 0, 0))
        with pytest.raises(DomainError, match="overflow") as exc:
            verify_integration_by_parts(exp, PowerSeries((1.0,)), near, 10)
        assert exc.value.s_param == 1.0
        # the walk's terms stay finite up to the last left node, w = 354; the
        # boundary term F G at the end, exp(355)^2, does not
        boundary = Line(Quaternion(345, 1, 0, 0), Quaternion(355, 1, 0, 0))
        with pytest.raises(DomainError, match="overflow") as exc:
            verify_integration_by_parts(exp, exp, boundary, 10)
        assert exc.value.s_param == 1.0

    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_raise_value_error(self, steps):
        # as from the other staircases: not a ZeroDivisionError, nor mmap's OSError
        path = Line(Quaternion(0, 0, 0, 0), Quaternion(1, 1, 1, 0))
        for call in (by_parts_residual, verify_integration_by_parts):
            with pytest.raises(ValueError, match="steps must be >= 1"):
                call(X, X, path, steps)

    @pytest.mark.parametrize("steps", [1000, 12305])
    def test_square_off_one_slice_sums_exactly(self, steps, cpus):
        # x d + d x = (x + d)^2 - x^2 - d^2 with the chord d = (b - a)/N, so the
        # sum is b^2 - a^2 - N d^2 and the residual exactly |b - a|^2 / N on a
        # line across slices; G(x) dF in place of dF G(x) adds N [a, d] = [a, b]
        path = catalog_paths()["line_cross_slice"]
        want = (path.end - path.start).norm() ** 2 / steps
        for k in (1, 4):
            cpus(k)
            res, boundary = by_parts_residual(X, X, path, steps)
            assert abs(res - want) <= 1e-13 * max(1.0, boundary.norm())

    @pytest.mark.parametrize("steps", [1000, 1024])
    @pytest.mark.parametrize("pair", [("x^2", "x"), ("exp", "sin"), ("x", "x"), ("x^3", "cos")])
    def test_one_chunk_equals_its_public_operator_sum(self, pair, steps):
        # one chunk is one math.fsum per component of F(x) dG + dF G(x), with
        # x = x_{n-1} and the chord x_n - x_{n-1} at the walk's s = n * (1/N)
        F, G = (catalog_functions()[name] for name in pair)
        h = 1.0 / steps
        for path in catalog_paths().values():
            terms = []
            for n in range(1, steps + 1):
                x = path.point((n - 1) * h)
                d = path.point(n * h) - x
                terms.append((eval_function(F, x) * differential(G, x, d)
                              + differential(F, x, d) * eval_function(G, x)).to_list())
            total = Quaternion(*map(math.fsum, zip(*terms)))
            boundary = (eval_function(F, path.end) * eval_function(G, path.end)
                        - eval_function(F, path.start) * eval_function(G, path.start))
            assert by_parts_residual(F, G, path, steps) == ((total - boundary).norm(), boundary)

    @FORKS
    def test_residual_does_not_depend_on_the_worker_count(self, cpus):
        fns, steps = catalog_functions(), 12305  # 13 chunks, the last one short
        pairs = [(fns["x^2"], fns["x"]), (fns["exp"], fns["sin"])]
        paths = [catalog_paths()[name] for name in ("polyline_bent", "circle_real_center")]
        got = []
        for k in (1, 2, 3, 4):
            cpus(k)
            got.append([by_parts_residual(F, G, path, steps) for F, G in pairs for path in paths])
        assert got[1] == got[0] and got[2] == got[0] and got[3] == got[0]
        assert_no_child_left()

    @FORKS
    def test_overflow_names_the_same_node_under_any_worker_count(self, cpus):
        # every value is finite; exp(w) exp(w) overflows from the node w ~ 354.9
        # on, at s ~ 0.6, in chunk 20 of 32, which the second of three children sums
        exp, steps = NamedFunction("exp"), 32768
        far = Line(Quaternion(340, 1, 0, 0), Quaternion(365, 1, 0, 0))
        errors = []
        for k in (1, 4):
            cpus(k)
            with pytest.raises(DomainError, match="overflow") as exc:
                by_parts_residual(exp, exp, far, steps)
            errors.append((str(exc.value), exc.value.s_param))
            assert_no_child_left()
        assert errors[1] == errors[0]
        assert 4 / 8 < errors[0][1] < 5 / 8


class TestAntiderivativeMap:
    I_TO_J = Line(Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0))

    def test_square_lifts_to_cube_over_three(self):
        rep = verify_antiderivative_map(PowerSeries((0.0, 0.0, 1.0)), self.I_TO_J, 10_000)
        assert rep.passed
        assert rep.config["reference"] == pytest.approx([0.0, 1 / 3, -1 / 3, 0.0])

    def test_cosine_lifts_to_sine(self):
        rep = verify_antiderivative_map(NamedFunction("cos"), self.I_TO_J, 10_000)
        assert rep.passed
        s = math.sinh(1.0)
        assert rep.config["reference"] == pytest.approx([0.0, -s, s, 0.0])

    def test_zero_integrand(self):
        rep = verify_antiderivative_map(PowerSeries((0.0,)), self.I_TO_J, 100)
        assert rep.passed
        assert rep.residuals == [0.0]

    def test_multivalued_integrand_is_rejected(self):
        with pytest.raises(UnsupportedFunctionError):
            verify_antiderivative_map(NamedFunction("ln"), self.I_TO_J, 100)

    def test_polyline_path(self):
        path = PolyLine((Quaternion(0, 1, 0, 0), Quaternion(0.5, 0.5, 0.5, 0),
                         Quaternion(0, 0, 1, 0)))
        rep = verify_antiderivative_map(NamedFunction("exp"), path, 10_000)
        assert rep.passed


# the four checks only `qint verify --suite all` runs, with their residual counts
@pytest.mark.parametrize("check,count", zip(EXTRA_CHECKS, [30, 2, 4, 11]),
                         ids=[check.__name__ for check in EXTRA_CHECKS])
def test_extra_checks_pass_at_the_default_tolerances(check, count):
    rep = check(Tolerances())
    assert rep.passed
    assert len(rep.residuals) == count
    # the config list that names each residual's case, where there is one
    cases = {"rule_upgrade": "orders_left_mid", "winding_additivity": "turns",
             "first_order_remainder": "h"}
    if rep.check in cases:
        assert len(rep.config[cases[rep.check]]) == count
    else:  # ftc_catalog has one residual per catalog pair and lists the failing ones
        pairs = [[f, p] for f in catalog_functions() for p in catalog_paths()]
        assert count == len(pairs)
        assert all(pair in pairs for pair in rep.config["failing"])


def test_every_case_list_has_one_entry_per_residual():
    tol = Tolerances()
    winding = check_winding(tol)
    assert len(winding.config["combos"]) == len(winding.residuals) == 9
    assert len({tuple(combo) for combo in winding.config["combos"]}) == 9
    oracle = check_mutual_oracle(tol)
    pairs = [[f, p] for f in catalog_functions() for p in catalog_paths()]
    assert oracle.config["pairs"] == pairs and len(oracle.residuals) == len(pairs)
    antiderivative = check_antiderivative(tol)
    assert len(antiderivative.config["integrands"]) == len(antiderivative.residuals) == 2
    identities = check_exact_identities(tol)
    assert identities.config["families"] == list(identities.config["samples"])
    assert len(identities.config["families"]) == len(identities.residuals)


@pytest.mark.parametrize("check", [check_inverse_ftc, check_winding_additivity],
                         ids=["inverse_ftc", "winding_additivity"])
def test_no_check_repeats_a_staircase_or_integrates_an_empty_leg(check, monkeypatch):
    calls = []
    for module, name in (("qint.verify", "integrate"),
                         ("qint.suite", "integrate_with_branch_tracking")):
        fn = getattr(sys.modules[module], name)

        def record(*args, fn=fn, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((fn.__name__, *bound.arguments.values()))
            return fn(*args, **kwargs)
        monkeypatch.setattr(sys.modules[module], name, record)
    check(Tolerances())
    assert calls
    # (function, F, path, steps, rule), the rule only where the function takes one
    keys = [(name, repr(F.to_json()), repr(path.to_json()), *rest)
            for name, F, path, *rest in calls]
    assert len(set(keys)) == len(keys)
    assert not [path for _, _, path, *_ in calls if isinstance(path, Line) and path.a == path.b]


def test_inverse_ftc_slope_is_one_float_on_every_python():
    # a least-squares fit through math.fsum; statistics.linear_regression
    # gives 2.0000033809604187 on Python 3.12 and 3.13
    assert check_inverse_ftc(Tolerances()).config["slope"] == 2.0000033809604183


def test_unknown_suite_name_raises():
    # the CLI's --suite choices stop this name before it reaches run_suite
    with pytest.raises(ValueError, match="unknown suite 'nightly'"):
        run_suite("nightly")
