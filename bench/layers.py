"""Per-layer figures: µs per call of each module's public functions, timed
from outside on inputs sampled from the workloads, and the traced run that
gives each layer's self time and calls per step.
"""

import importlib
import io
import operator
import statistics
import time
from contextlib import redirect_stdout

import qint
import qint.cli

# the package re-exports functions named like some of its modules
qdifferential = importlib.import_module("qint.differential")
qintegrate = importlib.import_module("qint.integrate")
qslices = importlib.import_module("qint.slices")
qsuite = importlib.import_module("qint.suite")
qverify = importlib.import_module("qint.verify")

import tracing
import workloads

# Sample sizes: enough calls per pass that the clock's resolution does not
# matter, few enough that the whole set of figures takes a few seconds.
POINTS = 2000
PASSES = 7
KERNEL_STEPS = {"left": 20_000, "midpoint": 5_000, "quadrature": 20_000, "branch": 50_000}
KERNEL_PASSES = 3
VERIFY_STEPS = 10_000  # as in the suite's by-parts and inverse-FTC checks


def _median_s(call, passes: int) -> float:
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _us_per_call(fn, items: list[tuple]) -> float:
    """Median over passes of the mean time of fn(*item) over all items."""
    def one_pass():
        for item in items:
            fn(*item)
    return _median_s(one_pass, PASSES) / len(items) * 1e6


def _samples(path, n: int = POINTS) -> list:
    return [path.point(k / n) for k in range(n + 1)]


def _slice_z(x) -> complex:
    return complex(x.w, x.imag_norm())


def microbench(seed: int) -> dict[str, float]:
    """µs/call (or s/call) of each layer's public functions. Each figure uses
    inputs from the workload that layer matters to, drawn from `seed`."""
    specs = {w: workloads.make_spec(w, seed) for w in workloads.WORKLOADS}
    exp_f = qint.parse_function(specs["stair_exp_line"]["fn"])
    line = qint.parse_path(specs["stair_exp_line"]["path"])
    series_f = qint.parse_function(specs["stair_series_poly"]["fn"])
    poly = qint.parse_path(specs["stair_series_poly"]["path"])
    ln_f = qint.parse_function(specs["branch_ln_circle"]["fn"])
    circle = qint.parse_path(specs["branch_ln_circle"]["path"])
    catalog_f, catalog_p = qsuite.catalog_functions(), qsuite.catalog_paths()
    monomial3 = qint.Monomial(3)

    line_x = _samples(line)
    poly_x = _samples(poly)
    j_step_x = _samples(catalog_p["line_j_step"])
    line_steps = list(zip(line_x, line_x[1:]))
    m = {}
    m["quaternion.mul_us"] = _us_per_call(operator.mul, line_steps)
    m["quaternion.sub_us"] = _us_per_call(operator.sub, [(b, a) for a, b in line_steps])
    for name, F, xs in (("exp", exp_f, line_x), ("monomial3", monomial3, j_step_x),
                        ("series20", series_f, poly_x)):
        zs = [(_slice_z(x),) for x in xs]
        m[f"functions.eval_us.{name}"] = _us_per_call(F.eval_complex, zs)
        m[f"functions.deriv_us.{name}"] = _us_per_call(F.deriv_complex, zs)
    # quadrature samples: every catalog function on every catalog path
    pairs = [(F, x) for F in catalog_f.values() for p in catalog_p.values()
             for x in _samples(p, 100)]
    m["slices.eval_function_us"] = _us_per_call(qslices.eval_function, pairs)
    for name, F, xs in (("exp", exp_f, line_x), ("series20", series_f, poly_x)):
        m[f"differential.differential_us.{name}"] = _us_per_call(
            qdifferential.differential, [(F, a, b - a) for a, b in zip(xs, xs[1:])])
    for name, path in (("line", line), ("polyline", poly), ("circle", circle)):
        m[f"paths.point_us.{name}"] = _us_per_call(
            path.point, [(k / POINTS,) for k in range(POINTS + 1)])

    kernels = {
        "left": lambda n: qintegrate.integrate(exp_f, line, n, rule="left"),
        "midpoint": lambda n: qintegrate.integrate(series_f, poly, n, rule="midpoint"),
        "quadrature": lambda n: qintegrate.integrate_slice_quadrature(
            exp_f, catalog_p["line_cross_slice"], n),
        "branch": lambda n: qintegrate.integrate_with_branch_tracking(ln_f, circle, n),
    }
    for name, run in kernels.items():
        n = KERNEL_STEPS[name]
        m[f"integrate.us_per_step.{name}"] = \
            _median_s(lambda: run(n), KERNEL_PASSES) / n * 1e6

    m["verify.by_parts_residual_s"] = _median_s(
        lambda: qverify.by_parts_residual(qint.Monomial(2), qint.Monomial(1),
                                          catalog_p["line_from_zero"], VERIFY_STEPS),
        KERNEL_PASSES)
    m["verify.inverse_ftc_residual_s"] = _median_s(
        lambda: qverify.inverse_ftc_residual(monomial3, qint.Quaternion(1.0, 1.0, 0.0, 0.0),
                                             qint.Quaternion(0.0, 0.0, 1e-2, 0.0),
                                             VERIFY_STEPS),
        KERNEL_PASSES)
    return m


def suite_checks() -> dict[str, float]:
    """Each check of `--suite all` run once, untraced: seconds and the
    largest residual, named as in CheckReport.check."""
    tol = qverify.Tolerances()
    m = {}
    for check in qsuite.DEFAULT_CHECKS + qsuite.EXTRA_CHECKS:
        t0 = time.perf_counter()
        rep = check(tol)
        m[f"suite.{rep.check}.s"] = time.perf_counter() - t0
        m[f"suite.{rep.check}.max_residual"] = max(rep.residuals)
    return m


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """qint.cli.main in this process: exit code, stdout, seconds."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        rc = qint.cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def traced_cli(argv: list[str]) -> tuple[int, str, float, tracing.Tracer]:
    """The same call with every layer traced."""
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        rc, out, dt = run_cli(argv)
    return rc, out, dt, tracer


def trace_metrics(tracer: tracing.Tracer, traced_s: float, untraced_s: float) -> dict:
    """Self time and calls per step of every layer, plus tracing overhead."""
    steps = tracer.steps or 1  # 0 only when the traced command failed
    m = {}
    for layer, row in tracer.layer_totals().items():
        m[f"{layer}.self_s"] = row["self_s"]
        m[f"{layer}.calls_per_step"] = row["calls"] / steps
    m["quaternion.allocs_per_step"] = tracer.count(
        lambda name: name == "quaternion.Quaternion.__init__") / steps
    m["paths.point_calls_per_step"] = tracer.count(
        lambda name: name.startswith("paths.") and name.endswith(".point")) / steps
    m["integrate.self_us_per_step"] = m["integrate.self_s"] / steps * 1e6
    m["trace.steps"] = steps
    m["trace.spans"] = len(tracer.spans)
    m["trace.steps_per_s"] = steps / traced_s
    m["trace.untraced_steps_per_s"] = steps / untraced_s
    m["trace.overhead_steps_per_s"] = m["trace.steps_per_s"] - m["trace.untraced_steps_per_s"]
    return m
