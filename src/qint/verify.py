"""Structured pass/fail checks for the identities the library claims:
the fundamental theorem in both directions, integration by parts, and the
antiderivative correspondence. Each check returns a CheckReport with
measured residuals, never a bare boolean.
"""

import json
import math
import os
from dataclasses import dataclass, field, fields, replace

from .differential import differential
from .errors import DomainError
from .functions import AnalyticFunction, antiderivative
from .integrate import (EXACT_FLOOR, _integrate_by_parts, convergence_study,
                        endpoint_reference, integrate)
from .paths import Line, Path
from .quaternion import ZERO, Quaternion, _finite
from .slices import decompose_delta

# Default base point for the indefinite integral in the inverse direction.
DEFAULT_BASE = Quaternion(1.0, 1.0, 0.0, 0.0)


@dataclass(frozen=True)
class Tolerances:
    """Every numeric acceptance knob in one record.

    QINT_TOL overrides it: a bare number replaces all residual bounds
    (slope targets and slack factors keep their defaults), a JSON object
    replaces named fields.
    """

    exact_floor: float = EXACT_FLOOR  # telescoping sums, machine-precision identities
    monomial_rel: float = 1e-3        # relative error for x^2, x^3 staircases at N=1e4
    path_independence: float = 2e-3
    closed_loop: float = 2e-3
    winding: float = 1e-2             # per unit of |winding number|
    by_parts: float = 2e-3
    inverse_ftc: float = 1e-3
    algebraic: float = 1e-10          # exact algebraic identities
    antiderivative: float = 1e-3
    mutual_oracle: float = 2e-3
    ftc_final: float = 1e-3           # forward FTC, relative to max(1, |reference|)
    slope_min: float = 0.9            # staircase convergence order lower bound
    slope_two_tol: float = 0.3        # |fitted slope - 2| bound for O(h^2) checks
    rule_upgrade_margin: float = 0.5  # midpoint order must beat left by this much
    decay_slack: float = 1.05         # allowed per-refinement error growth factor

    def describe(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# The fields a bare-number QINT_TOL leaves alone: slope targets and slack
# factors are not residual bounds. It replaces every other field.
_NON_RESIDUAL_FIELDS = ("slope_min", "slope_two_tol", "rule_upgrade_margin", "decay_slack")


def _bound(value, what: str) -> float:
    """A QINT_TOL value as a float: finite and not negative, since no
    residual can meet a negative bound."""
    bound = _finite(value, what)
    if bound < 0.0:
        raise ValueError(f"{what} must not be negative, got {value!r}")
    return bound


def tolerances_from_env(env=None) -> Tolerances:
    """Default tolerances, with QINT_TOL applied if set.

    Accepts either a bare number ("1e-6") or a JSON object naming fields
    ('{"by_parts": 1e-4}'). Raises ValueError on anything else, a NaN, an
    infinity or a negative number included.
    """
    if env is None:
        env = os.environ
    raw = env.get("QINT_TOL")
    if raw is None or raw.strip() == "":
        return Tolerances()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValueError(f"QINT_TOL is not valid JSON: {e}") from e
    if isinstance(obj, (int, float)):  # a boolean too, which _finite rejects
        bound = _bound(obj, "QINT_TOL")
        return Tolerances(**{f.name: bound for f in fields(Tolerances)
                             if f.name not in _NON_RESIDUAL_FIELDS})
    if isinstance(obj, dict):
        known = {f.name for f in fields(Tolerances)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"QINT_TOL names unknown fields: {sorted(unknown)}")
        return replace(Tolerances(), **{k: _bound(v, f"QINT_TOL field {k!r}")
                                        for k, v in obj.items()})
    raise ValueError("QINT_TOL must be a number or a JSON object")


@dataclass
class CheckReport:
    """One verification check: what was measured against which bound."""

    check: str
    passed: bool
    residuals: list[float]
    tolerance: float
    config: dict = field(default_factory=dict)

    @classmethod
    def within(cls, check: str, residuals: list[float], tolerance: float,
               config: dict) -> "CheckReport":
        """The report of a check that passes when every residual is <= tolerance."""
        return cls(check, all(r <= tolerance for r in residuals), residuals, tolerance, config)

    def to_json(self) -> dict:
        return {"check": self.check, "pass": self.passed,
                "residuals": self.residuals, "tolerance": self.tolerance,
                "config": self.config}

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        worst = max(self.residuals) if self.residuals else 0.0
        return (f"{verdict} {self.check}: max residual {worst:.3e} "
                f"(tolerance {self.tolerance:.3e})")


def _decaying(errors: list[float], slack: float, floor: float) -> bool:
    return all(b <= max(a * slack, floor) for a, b in zip(errors, errors[1:]))


def verify_ftc_forward(F: AnalyticFunction, path: Path, n_list: list[int],
                       tol: Tolerances | None = None) -> CheckReport:
    """Left-rule staircase value converges to F(end) - F(start): errors decay
    with N and the finest one is small relative to the endpoint difference."""
    tol = tol or Tolerances()
    rule = "left"
    study = convergence_study(F, path, n_list, rule)
    errors = [err for _, _, err in study.rows]
    scale = max(1.0, study.reference.norm())
    passed = (_decaying(errors, tol.decay_slack, tol.exact_floor)
              and errors[-1] <= tol.ftc_final * scale)
    return CheckReport(
        check="ftc_forward", passed=passed, residuals=errors, tolerance=tol.ftc_final * scale,
        config={"path": path.to_json(), "function": F.to_json(), "steps": list(n_list),
                "rule": rule, "est_order": study.est_order,
                "reference": study.reference.to_list()})


def inverse_ftc_residual(F: AnalyticFunction, x: Quaternion, delta: Quaternion,
                         steps: int) -> float:
    """|[G(x+delta) - G(x)] - differential(F, x, delta)| for the indefinite
    staircase integral G(y) from the fixed base point DEFAULT_BASE.

    G(x+delta) extends G(x)'s path by the parallel leg, then the perpendicular
    one, integrated even if empty as the one leg that evaluates F at x_mid; an
    empty base or parallel leg is ZERO. The base leg is shared by both G values, so
    it cancels up to rounding: ((g + a) + b) - g differs from a + b by about 4e-16
    unless x is DEFAULT_BASE. A differential or residual out of range raises DomainError.
    """
    x_mid = x + decompose_delta(x, delta).parallel
    g_x, leg_par = (integrate(F, Line(a, b), steps).value if a != b else ZERO
                    for a, b in ((DEFAULT_BASE, x), (x, x_mid)))
    leg_perp = integrate(F, Line(x_mid, x + delta), steps).value
    g_x_delta = g_x + leg_par + leg_perp
    try:
        res = ((g_x_delta - g_x) - differential(F, x, delta)).norm()
    except OverflowError as e:  # the differential out of range
        raise DomainError(f"overflow ({e})") from e
    if not math.isfinite(res):
        raise DomainError("overflow (residual out of range)")
    return res


def verify_ftc_inverse(F: AnalyticFunction, x: Quaternion, delta: Quaternion,
                       steps: int, tol: Tolerances | None = None) -> CheckReport:
    """Differencing the staircase integral recovers the differential."""
    tol = tol or Tolerances()
    res = inverse_ftc_residual(F, x, delta, steps)
    return CheckReport.within(
        "ftc_inverse", [res], tol.inverse_ftc,
        {"function": F.to_json(), "x": x.to_list(), "delta": delta.to_list(),
         "steps": steps, "base": DEFAULT_BASE.to_list()})


def by_parts_residual(F: AnalyticFunction, G: AnalyticFunction, path: Path,
                      steps: int) -> tuple[float, Quaternion]:
    """_integrate_by_parts' residual and boundary term F G |_a^b."""
    report = _integrate_by_parts(F, G, path, steps)
    return report.abs_error, report.reference


def verify_integration_by_parts(F: AnalyticFunction, G: AnalyticFunction, path: Path,
                                steps: int, tol: Tolerances | None = None) -> CheckReport:
    """The by-parts residual within tol.by_parts. A path through a singular
    point of a non-entire F or G, or a real-axis node of either, raises."""
    tol = tol or Tolerances()
    res, boundary = by_parts_residual(F, G, path, steps)
    return CheckReport.within(
        "integration_by_parts", [res], tol.by_parts,
        {"F": F.to_json(), "G": G.to_json(), "path": path.to_json(),
         "steps": steps, "boundary": boundary.to_list()})


def verify_antiderivative_map(f: AnalyticFunction, path: Path, steps: int,
                              tol: Tolerances | None = None) -> CheckReport:
    """The real-axis rule "integrate f, get h" lifts to the staircase:
    the integral of h's differential converges to h(end) - h(start)."""
    tol = tol or Tolerances()
    h = antiderivative(f)
    ref = endpoint_reference(h, path)
    res = integrate(h, path, steps).abs_error
    return CheckReport.within(
        "antiderivative_map", [res], tol.antiderivative,
        {"integrand": f.to_json(), "antiderivative": h.to_json(),
         "path": path.to_json(), "steps": steps, "reference": ref.to_list()})
