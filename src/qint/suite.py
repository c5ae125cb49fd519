"""The runnable check suites behind `qint verify`.

"default" is the acceptance set: nine checks covering the staircase on
monomials, path independence, closed loops, log winding, integration by
parts, the inverse fundamental theorem, the exact algebraic identities, the
antiderivative correspondence, and staircase/quadrature agreement.
"all" re-runs those plus broader catalog sweeps and order-of-accuracy
comparisons.
"""

import math
import random
from itertools import combinations

from .differential import conjugate_quotient, differential, sym_product_sum
from .functions import AnalyticFunction, Monomial, NamedFunction, PowerSeries
from .integrate import (_fit_slope, convergence_study, endpoint_reference, integrate,
                        integrate_slice_quadrature, integrate_with_branch_tracking)
from .paths import Line, Path, PolyLine, SliceCircle
from .quaternion import Quaternion
from .slices import UnitImaginary, decompose_delta, eval_function, perp_quotient
from .verify import (CheckReport, Tolerances, by_parts_residual, inverse_ftc_residual,
                     verify_antiderivative_map, verify_ftc_forward)

RNG_SEED = 20260825

_SQ3 = math.sqrt(3.0)


def catalog_functions() -> dict[str, AnalyticFunction]:
    """Polynomials through cubic plus the entire elementary trio."""
    return {
        "x": Monomial(1),
        "x^2": Monomial(2),
        "x^3": Monomial(3),
        "exp": NamedFunction("exp"),
        "sin": NamedFunction("sin"),
        "cos": NamedFunction("cos"),
    }


def _slice_arc(a_xi0: float, b_xi0: float, waypoints: int = 257) -> PolyLine:
    """An arc from a_xi0 + i to b_xi0 + j whose slice direction rotates from
    i to j while the imaginary radius stays 1; discretized as a polyline."""
    pts = []
    for k in range(waypoints):
        t = k / (waypoints - 1)
        th = 0.5 * math.pi * t
        pts.append(Quaternion(a_xi0 + t * (b_xi0 - a_xi0),
                              math.cos(th), math.sin(th), 0.0))
    return PolyLine(tuple(pts))


def catalog_paths() -> dict[str, Path]:
    """Three lines, one polyline, one in-slice circle; all within norm ~3."""
    return {
        "line_j_step": Line(Quaternion(1, 1), Quaternion(1, 1, 1)),         # 1+i -> 1+i+j
        "line_cross_slice": Line(Quaternion(1, 1), Quaternion(0.5, 0, 1)),  # 1+i -> 1/2+j
        "line_from_zero": Line(Quaternion(), Quaternion(1, 1, 1)),          # 0 -> 1+i+j
        "polyline_bent": PolyLine((Quaternion(1, 1), Quaternion(0.9, 0.5, 0.5),
                                   Quaternion(0.7, 0.2, 0.8), Quaternion(0.5, 0, 1))),
        "circle_real_center": SliceCircle(2.0, 1.0, UnitImaginary(Quaternion(0, 1)), 1.0),
    }


def check_monomial_staircase(tol: Tolerances) -> CheckReport:
    """x telescopes to rounding noise at every N; x^2 and x^3 converge at
    first order with small relative error on the j-step line."""
    path = catalog_paths()["line_j_step"]
    n_list = [100, 1000, 10_000, 100_000]
    exact = [integrate(Monomial(1), path, n).abs_error for n in n_list]
    studies = {name: convergence_study(F, path, n_list)
               for name, F in (("x^2", Monomial(2)), ("x^3", Monomial(3)))}
    rels = [s.rows[2][2] / s.reference.norm() for s in studies.values()]  # the N = 1e4 row
    orders = {name: s.est_order for name, s in studies.items()}
    ok = (all(err <= tol.exact_floor for err in exact)
          and all(rel <= tol.monomial_rel for rel in rels)
          and all(o is not None and o >= tol.slope_min for o in orders.values()))
    return CheckReport(
        check="monomial_staircase", passed=ok, residuals=exact + rels,
        tolerance=tol.monomial_rel,
        config={"path": path.to_json(), "steps": n_list, "orders": orders,
                "exact_floor": tol.exact_floor, "slope_min": tol.slope_min})


def check_path_independence(tol: Tolerances) -> CheckReport:
    """exp integrated 1+i -> 1/2+j over a line, a bent polyline, and an arc
    that rotates between slices: all three agree with the endpoint value."""
    F = NamedFunction("exp")
    paths = {
        "line": catalog_paths()["line_cross_slice"],
        "polyline": catalog_paths()["polyline_bent"],
        "slice_arc": _slice_arc(1.0, 0.5),
    }
    n = 10_000
    ref = endpoint_reference(F, paths["line"])
    values = {name: integrate(F, p, n).value for name, p in paths.items()}
    residuals = [(v - ref).norm() for v in values.values()]
    residuals += [(a - b).norm() for a, b in combinations(values.values(), 2)]
    return CheckReport.within(
        "path_independence", residuals, tol.path_independence,
        {"function": F.to_json(), "steps": n, "paths": list(values),
         "reference": ref.to_list()})


def check_closed_loop(tol: Tolerances) -> CheckReport:
    """A cubic around a full in-slice circle integrates to zero."""
    F = Monomial(3)
    path = catalog_paths()["circle_real_center"]
    n = 10_000
    res = integrate(F, path, n).value.norm()
    return CheckReport.within(
        "closed_loop_zero", [res], tol.closed_loop,
        {"function": F.to_json(), "path": path.to_json(), "steps": n})


def check_winding(tol: Tolerances) -> CheckReport:
    """ln around the unit circle picks up 2*pi*turns*u, for several slice
    directions and winding numbers. Residuals are scaled by max(1, |m|)."""
    F = NamedFunction("ln")
    n = 10_000
    directions = {
        "i": UnitImaginary(Quaternion(0, 1)),
        "j": UnitImaginary(Quaternion(0, 0, 1)),
        "diag": UnitImaginary(Quaternion(0, 1 / _SQ3, 1 / _SQ3, 1 / _SQ3)),
    }
    residuals = {}
    for dname, u in directions.items():
        for m in (-1, 1, 2):
            value = integrate_with_branch_tracking(F, SliceCircle(0.0, 1.0, u, float(m)), n).value
            residuals[dname, m] = (value - u.scaled(2.0 * math.pi * m)).norm() / max(1.0, abs(m))
    return CheckReport.within(
        "log_winding", list(residuals.values()), tol.winding,
        {"steps": n, "combos": [list(case) for case in residuals],
         "note": "residuals divided by max(1, |turns|)"})


def check_by_parts(tol: Tolerances) -> CheckReport:
    """Integration by parts for (x, x) and (x^2, x) on the line from 0."""
    path = catalog_paths()["line_from_zero"]
    n = 10_000
    pairs = [(Monomial(1), Monomial(1)), (Monomial(2), Monomial(1))]
    residuals = [by_parts_residual(F, G, path, n)[0] for F, G in pairs]
    return CheckReport.within(
        "integration_by_parts", residuals, tol.by_parts,
        {"pairs": [[F.to_json(), G.to_json()] for F, G in pairs],
         "path": path.to_json(), "steps": n})


def check_inverse_ftc(tol: Tolerances) -> CheckReport:
    """Differencing the indefinite staircase integral of x^3 returns its
    differential, with the residual shrinking quadratically in |delta|."""
    F = Monomial(3)
    x = Quaternion(1, 1)
    n = 10_000
    mags = [1e-2, 5e-3, 2.5e-3]
    direction = [0, 0, 1, 0]
    residuals = [inverse_ftc_residual(F, x, m * Quaternion(*direction), n) for m in mags]
    slope = _fit_slope([math.log(m) for m in mags], [math.log(r) for r in residuals])
    ok = residuals[0] <= tol.inverse_ftc and abs(slope - 2.0) <= tol.slope_two_tol
    return CheckReport(
        check="inverse_ftc", passed=ok, residuals=residuals, tolerance=tol.inverse_ftc,
        config={"function": F.to_json(), "x": x.to_list(), "delta_norms": mags,
                "direction": direction, "steps": n, "slope": slope,
                "slope_target": [2.0, tol.slope_two_tol]})


def _random_delta(rng: random.Random, span: float = 1.0) -> Quaternion:
    return Quaternion(rng.uniform(-span, span), rng.uniform(-span, span),
                      rng.uniform(-span, span), rng.uniform(-span, span))


def _random_point(rng: random.Random, span: float, min_r: float) -> Quaternion:
    while True:
        x = _random_delta(rng, span)
        if x.imag_norm() > min_r:
            return x


def check_exact_identities(tol: Tolerances) -> CheckReport:
    """Machine-precision identities: the symmetric-product form of the
    monomial differential, the Leibniz rule on polynomial products, the
    commutation split of increments, and the scalar form of the conjugate
    quotient. Sampling spans are kept moderate so rounding stays well under
    the bound."""
    rng = random.Random(RNG_SEED)
    samples = {"sym_product": 100, "leibniz": 20, "delta_split": 100, "conjugate_quotient": 50}
    worst = dict.fromkeys(samples, 0.0)

    for _ in range(samples["sym_product"]):
        x = _random_point(rng, 1.2, 1e-3)
        d = _random_delta(rng)
        for n in range(0, 7):
            r = (differential(Monomial(n + 1), x, d) - sym_product_sum(x, d, n)).norm()
            worst["sym_product"] = max(worst["sym_product"], r)

    for _ in range(samples["leibniz"]):
        F = PowerSeries(tuple(rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))))
        G = PowerSeries(tuple(rng.uniform(-1, 1) for _ in range(rng.randint(1, 5))))
        x = _random_point(rng, 0.8, 1e-3)
        d = _random_delta(rng)
        lhs = differential(F * G, x, d)
        rhs = differential(F, x, d) * eval_function(G, x) \
            + eval_function(F, x) * differential(G, x, d)
        worst["leibniz"] = max(worst["leibniz"], (lhs - rhs).norm())

    for _ in range(samples["delta_split"]):
        x = _random_point(rng, 1.2, 1e-6)
        d = _random_delta(rng)
        sp = decompose_delta(x, d)
        u = Quaternion(0.0, *((x.x1, x.x2, x.x3))) * (1.0 / x.imag_norm())
        worst["delta_split"] = max(
            worst["delta_split"],
            (sp.parallel + sp.perp - d).norm(),
            (u * sp.parallel - sp.parallel * u).norm(),
            (u * sp.perp + sp.perp * u).norm())

    quotient_functions = [Monomial(2), Monomial(3), NamedFunction("exp"),
                          NamedFunction("sin")]
    for _ in range(samples["conjugate_quotient"]):
        x = _random_point(rng, 1.2, 1e-3)
        for F in quotient_functions:
            scalar = perp_quotient(F, x)
            full = conjugate_quotient(F, x)
            worst["conjugate_quotient"] = max(
                worst["conjugate_quotient"],
                (full - Quaternion(scalar, 0.0, 0.0, 0.0)).norm())

    return CheckReport.within(
        "exact_identities", list(worst.values()), tol.algebraic,
        {"families": list(samples), "seed": RNG_SEED, "samples": samples})


def check_antiderivative(tol: Tolerances) -> CheckReport:
    """Lifting t^2 -> t^3/3 and cos -> sin to the staircase integral."""
    path = Line(Quaternion(0, 1), Quaternion(0, 0, 1))  # i -> j
    n = 10_000
    integrands = {"t^2 series": PowerSeries((0.0, 0.0, 1.0)), "cos": NamedFunction("cos")}
    residuals = [r for f in integrands.values()
                 for r in verify_antiderivative_map(f, path, n, tol).residuals]
    return CheckReport.within(
        "antiderivative_map", residuals, tol.antiderivative,
        {"integrands": list(integrands), "path": path.to_json(), "steps": n})


def check_mutual_oracle(tol: Tolerances) -> CheckReport:
    """Staircase and ds-quadrature agree on every catalog function/path pair.

    The quadrature telescopes to F's end values plus an O(h^2) correction, read
    through f only, so this checks the staircase (built on f' and b/r) against
    F(end) - F(start), not against the inside of the path."""
    n = 10_000
    residuals = {(fname, pname): (integrate(F, path, n).value
                                  - integrate_slice_quadrature(F, path, n).value).norm()
                 for fname, F in catalog_functions().items()
                 for pname, path in catalog_paths().items()}
    return CheckReport.within(
        "mutual_oracle", list(residuals.values()), tol.mutual_oracle,
        {"steps": n, "pairs": [list(pair) for pair in residuals]})


def check_ftc_catalog(tol: Tolerances) -> CheckReport:
    """Forward fundamental theorem across the whole catalog at modest N."""
    n_list = [400, 2000, 10_000]
    reports = {(fname, pname): verify_ftc_forward(F, path, n_list, tol)
               for fname, F in catalog_functions().items()
               for pname, path in catalog_paths().items()}
    failing = [list(pair) for pair, rep in reports.items() if not rep.passed]
    return CheckReport(
        check="ftc_catalog", passed=not failing,
        residuals=[rep.residuals[-1] for rep in reports.values()],
        tolerance=tol.ftc_final,
        config={"steps": n_list, "failing": failing,
                "note": "residuals are final absolute errors; pass/fail is "
                        "relative to max(1, |reference|) per pair"})


def check_rule_upgrade(tol: Tolerances) -> CheckReport:
    """Midpoint evaluation buys at least half an order over left endpoints."""
    n_list = [200, 400, 800, 1600]
    cases = [(Monomial(3), catalog_paths()["line_j_step"]),
             (NamedFunction("exp"), catalog_paths()["line_cross_slice"])]
    orders = [[convergence_study(F, path, n_list, rule=rule).est_order
               for rule in ("left", "midpoint")] for F, path in cases]
    residuals = [(mid or 0.0) - (left or 0.0) for left, mid in orders]
    ok = (all(None not in pair for pair in orders)
          and all(gain >= tol.rule_upgrade_margin for gain in residuals))
    return CheckReport(
        check="rule_upgrade", passed=ok, residuals=residuals,
        tolerance=tol.rule_upgrade_margin,
        config={"steps": n_list, "orders_left_mid": orders,
                "note": "residuals are order gains; pass needs gain >= tolerance"})


def check_winding_additivity(tol: Tolerances) -> CheckReport:
    """m turns integrate to m times one turn, for m in {-2, -1, 1, 2}."""
    F = NamedFunction("ln")
    u = UnitImaginary(Quaternion(0, 1))
    n = 10_000
    turns = [-2, -1, 1, 2]
    one = integrate_with_branch_tracking(F, SliceCircle(0.0, 1.0, u, 1.0), n).value
    residuals = []
    for m in turns:
        vm = integrate_with_branch_tracking(F, SliceCircle(0.0, 1.0, u, float(m)), n).value
        residuals.append((vm - float(m) * one).norm() / max(1.0, abs(m)))
    return CheckReport.within(
        "winding_additivity", residuals, tol.winding,
        {"steps": n, "turns": turns,
         "note": "residuals divided by max(1, |turns|)"})


def check_remainder_slope(tol: Tolerances) -> CheckReport:
    """|F(x+h d) - F(x) - differential(F, x, h d)| shrinks like h^2."""
    F = NamedFunction("exp")
    x = Quaternion(1, 1)
    d = Quaternion(0.2, 0.3, 1.0, -0.4)
    hs = [1e-2 * 0.5 ** k for k in range(11)]  # down to ~1e-5
    rems = []
    for h in hs:
        hd = h * d
        rems.append((eval_function(F, x + hd)
                     - eval_function(F, x) - differential(F, x, hd)).norm())
    slope = _fit_slope([math.log(h) for h in hs], [math.log(r) for r in rems])
    ok = abs(slope - 2.0) <= tol.slope_two_tol
    return CheckReport(
        check="first_order_remainder", passed=ok, residuals=rems,
        tolerance=tol.slope_two_tol,
        config={"function": F.to_json(), "x": x.to_list(), "delta": d.to_list(),
                "h": hs, "slope": slope,
                "note": "pass requires |fitted slope - 2| <= tolerance"})


DEFAULT_CHECKS = (
    check_monomial_staircase,
    check_path_independence,
    check_closed_loop,
    check_winding,
    check_by_parts,
    check_inverse_ftc,
    check_exact_identities,
    check_antiderivative,
    check_mutual_oracle,
)

EXTRA_CHECKS = (
    check_ftc_catalog,
    check_rule_upgrade,
    check_winding_additivity,
    check_remainder_slope,
)


def run_suite(name: str = "default", tol: Tolerances | None = None) -> list[CheckReport]:
    """Run a named suite and return its reports in execution order."""
    tol = tol or Tolerances()
    if name == "default":
        checks = DEFAULT_CHECKS
    elif name == "all":
        checks = DEFAULT_CHECKS + EXTRA_CHECKS
    else:
        raise ValueError(f"unknown suite {name!r}; expected 'default' or 'all'")
    return [fn(tol) for fn in checks]
