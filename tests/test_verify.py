import math
from dataclasses import replace

import pytest

from conftest import FORKS, assert_no_child_left
from qint import (CheckReport, DomainError, Line, Monomial, NamedFunction,
                  PolyLine, PowerSeries, Quaternion, SliceCircle, Tolerances,
                  UnitImaginary, UnsupportedFunctionError, inverse_ftc_residual,
                  tolerances_from_env, verify_antiderivative_map, verify_ftc_forward,
                  verify_ftc_inverse, verify_integration_by_parts)
from qint.integrate import _BLOCK
from qint.suite import catalog_functions, catalog_paths
from qint.verify import by_parts_residual

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

    def test_object_overrides_named_fields(self):
        tol = tolerances_from_env(env={"QINT_TOL": '{"by_parts": 1e-4, "slope_min": 0.5}'})
        assert tol.by_parts == 1e-4
        assert tol.slope_min == 0.5
        assert tol.winding == Tolerances().winding

    @pytest.mark.parametrize("raw", [
        "not json", '"1e-6"', "true", "[1, 2]",
        '{"no_such_bound": 1e-6}', '{"by_parts": true}', '{"by_parts": "small"}',
    ])
    def test_rejects_malformed_values(self, raw):
        with pytest.raises(ValueError):
            tolerances_from_env(env={"QINT_TOL": raw})

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

    def test_base_equal_to_x_skips_the_shared_leg(self):
        from qint.verify import DEFAULT_BASE
        res = inverse_ftc_residual(X2, DEFAULT_BASE, Quaternion(0, 0, 0.01, 0), 1000)
        assert res <= 1e-3

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

    @FORKS
    def test_residual_does_not_depend_on_the_worker_count(self, cpus):
        fns, steps = catalog_functions(), 3 * _BLOCK + 17  # four blocks, the last one short
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
        # on, at s ~ 0.6, in block 4 of 8, which one child of four sums
        exp, steps = NamedFunction("exp"), 8 * _BLOCK
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
