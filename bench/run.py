"""The qint benchmark. Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it runs the workload's `qint` command as a child process,
one at a time in a closed loop, alternating with the same public call made
in this process, for S seconds, and reports the end-to-end metrics. With
--trace 1 it reports the per-layer metrics instead. The last line of stdout
is the result; the line before it is the full record, which is also written
under .bench_results/ for bench/compare.py. See bench/README.md.
"""

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
RESULTS = ROOT / ".bench_results"
PROBE = Path(__file__).resolve().parent / "probe.py"
SPAWNER = Path(__file__).resolve().parent / "spawner.py"

CHILD_TIMEOUT_S = 150
PROBES_PER_ROUND = 6
TRACE_PROBES = 9


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_qint():
    """Import qint from ./src and nowhere else."""
    sys.path.insert(0, str(SRC))
    import qint
    if Path(qint.__file__).resolve().parent != (SRC / "qint").resolve():
        _die(f"imported qint from {qint.__file__}, not from {SRC}")
    return qint


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Spawner:
    """The small process that starts every timed child, so that a child's
    peak RSS is its own and not this process's (see spawner.py)."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(SPAWNER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], env: dict, tag: str) -> dict:
        """Run one child to completion: exit code, wall time, peak RSS, output."""
        out_path, err_path = TMP / f"{tag}.out", TMP / f"{tag}.err"
        request = {"argv": argv, "env": env, "cwd": str(ROOT), "out": str(out_path),
                   "err": str(err_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            _die("the child spawner exited")
        result = json.loads(line)
        result["stdout"] = out_path.read_text()
        result["stderr"] = err_path.read_text()[-2000:]
        out_path.unlink()
        err_path.unlink()
        return result


# -- correctness ---------------------------------------------------------------

def check_integrate(workload: str, ref: list[float], rc: int, stdout: str) -> dict:
    """Parse the printed quaternion and measure it against the closed form."""
    try:
        value = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        value = None
    err = workloads.distance(value, ref) if isinstance(value, list) else math.inf
    bound = workloads.ERROR_BOUNDS[workload]
    ok = rc == 0 and err <= bound
    return {"ok": ok, "abs_error": err, "worst_tol_ratio": err / bound, "value": value,
            "why": None if ok else f"exit {rc}, abs_error {err!r} (bound {bound})"}


# rule_upgrade's residuals are order gains that must exceed its tolerance,
# not errors that must stay under it
_GAIN_CHECKS = ("rule_upgrade",)


def check_verify(reports: list[dict], rc: int, stdout: str) -> dict:
    """Residuals from the `verify --out` file: all finite, all passing."""
    fails = [line for line in stdout.splitlines() if line.startswith("FAIL")]
    try:
        bad = [r["check"] for r in reports if not r["pass"]
               or not all(math.isfinite(v) for v in r["residuals"])]
        errors = [r for r in reports if r["check"] not in _GAIN_CHECKS]
        worst = max((max(r["residuals"]) / r["tolerance"] for r in errors), default=math.inf)
        abs_error = max((max(r["residuals"]) for r in errors), default=math.inf)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        bad, worst, abs_error = ["unreadable --out file"], math.inf, math.inf
    ok = rc == 0 and not fails and not bad and math.isfinite(worst)
    return {"ok": ok, "abs_error": abs_error, "worst_tol_ratio": worst,
            "why": None if ok else f"exit {rc}, {len(fails)} FAIL lines, bad checks {bad}"}


def _read_reports(path: Path) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return []
    finally:
        path.unlink(missing_ok=True)


# -- the untraced run ------------------------------------------------------------

class Run:
    """Samples and failures of one run of one workload."""

    def __init__(self, spec: dict):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.steps = spec.get("steps")  # verify_all: counted by each library call
        self.spans: list[dict] = []  # traced run only
        self.calls: list[dict] = []

    def add(self, **values: float) -> None:
        for k, v in values.items():
            self.samples.setdefault(k, []).append(v)

    def record(self, check: dict, what: str) -> None:
        self.attempted += 1
        if not check["ok"]:
            self.failures.append(f"{what}: {check['why']}")


def in_process(qint, workload: str, spec: dict, ref):
    """The workload's public library call, timed here: (steps, seconds, check)."""
    if workload == "verify_all":
        import tracing
        counter = tracing.Tracer()  # wraps only the few hundred step-taking calls
        t0 = time.perf_counter()
        with tracing.traced(counter, only=tracing.STEP_CALLS):
            reports = qint.run_suite(spec["suite"], qint.Tolerances())
        dt = time.perf_counter() - t0
        check = check_verify([r.to_json() for r in reports], 0, "")
        return counter.steps, dt, check
    F, path, n = qint.parse_function(spec["fn"]), qint.parse_path(spec["path"]), spec["steps"]
    t0 = time.perf_counter()
    if spec["rule"] == "branch":
        report = qint.integrate_with_branch_tracking(F, path, n)
    else:
        report = qint.integrate(F, path, n, rule=spec["rule"])
    dt = time.perf_counter() - t0
    return n, dt, check_integrate(workload, ref, 0, json.dumps(report.value.to_list()))


class Target:
    """One workload's command, its reference and the files it writes."""

    def __init__(self, spawner: Spawner, workload: str, spec: dict):
        self.spawner, self.workload = spawner, workload
        self.env = _child_env()
        self.out_file = TMP / f"verify-{os.getpid()}.json"
        self.args = workloads.cli_args(workload, spec, str(self.out_file))
        self.ref = None if workload == "verify_all" else workloads.reference(workload, spec)

    def check(self, rc: int, stdout: str) -> dict:
        if self.workload == "verify_all":
            return check_verify(_read_reports(self.out_file), rc, stdout)
        return check_integrate(self.workload, self.ref, rc, stdout)

    def probe(self, run: Run, n: int) -> None:
        """n set-up probes; each child's wall time is one setup_s sample."""
        for _ in range(n):
            child = self.spawner.run([sys.executable, str(PROBE), str(SRC)] + self.args,
                                     self.env, f"probe-{os.getpid()}")
            run.attempted += 1
            if child["rc"] != 0:
                run.failures.append(f"setup probe: exit {child['rc']}: {child['stderr']}")
                continue
            timings = json.loads(child["stdout"])
            run.add(setup_s=child["wall_s"], import_s=timings["import_s"],
                    parse_s=timings["parse_s"])

    def warm(self) -> None:
        """One untimed probe fills __pycache__, so set-up times imports, not
        bytecode compilation."""
        self.spawner.run([sys.executable, str(PROBE), str(SRC)] + self.args, self.env,
                         f"warm-{os.getpid()}")


def measure(spawner: Spawner, qint, workload: str, spec: dict,
            seconds: float) -> tuple[Run, dict]:
    run = Run(spec)
    target = Target(spawner, workload, spec)
    cli = [sys.executable, "-m", "qint.cli"] + target.args
    target.warm()

    def cli_child():
        child = spawner.run(cli, target.env, f"cli-{os.getpid()}")
        check = target.check(child["rc"], child["stdout"])
        run.record(check, "cli")
        run.add(wall_s=child["wall_s"], peak_rss_mb=child["peak_rss_mb"],
                abs_error=check["abs_error"], worst_tol_ratio=check["worst_tol_ratio"])

    def library_call():
        steps, dt, check = in_process(qint, workload, spec, target.ref)
        run.record(check, "in-process")
        run.add(steps_per_s=steps / dt)
        run.steps = steps

    # Alternate the three kinds of sample so each spreads over the window; the
    # machine's speed drifts over seconds. Stop before the first one that would
    # end past the window, judging by the last sample of its kind.
    ops = (cli_child, library_call, lambda: target.probe(run, PROBES_PER_ROUND))
    took = [0.0] * len(ops)
    start = time.perf_counter()
    for k in itertools.count():
        i = k % len(ops)
        t0 = time.perf_counter()
        if k >= len(ops) and t0 - start + took[i] > seconds:
            break
        ops[i]()
        took[i] = time.perf_counter() - t0
    summary = {k: statistics.median(v) for k, v in run.samples.items()}
    return run, summary


# -- the traced run --------------------------------------------------------------

def measure_traced(spawner: Spawner, qint, workload: str, spec: dict,
                   seed: int) -> tuple[Run, dict]:
    import layers
    run = Run(spec)
    target = Target(spawner, workload, spec)
    target.warm()
    target.probe(run, TRACE_PROBES)
    metrics = {f"cli.{k}": statistics.median(run.samples.get(k, [math.nan]))
               for k in ("import_s", "parse_s")}
    metrics.update(layers.microbench(seed))
    metrics.update(layers.suite_checks())

    # the O(N) lists of branch tracking show only at the full N of 1e6
    branch = Target(spawner, "branch_ln_circle", workloads.make_spec("branch_ln_circle", seed))
    child = spawner.run([sys.executable, "-m", "qint.cli"] + branch.args, branch.env,
                        f"branch-{os.getpid()}")
    run.record(branch.check(child["rc"], child["stdout"]), "branch child")
    metrics["integrate.branch_peak_rss_mb"] = child["peak_rss_mb"]

    rc, out, untraced_s = layers.run_cli(target.args)
    run.record(target.check(rc, out), "untraced")
    rc, out, traced_s, tracer = layers.traced_cli(target.args)
    run.record(target.check(rc, out), "traced")
    metrics.update(layers.trace_metrics(tracer, traced_s, untraced_s))
    run.steps = tracer.steps
    run.spans = tracer.spans
    run.calls = [{"callee": k[0], "caller": k[1], "count": v[0], "total_s": v[1],
                  "child_s": v[2]} for k, v in sorted(tracer.calls.items(), key=str)]
    return run, metrics


# -- environment and output ------------------------------------------------------

def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _read(path: str, default: str = "unknown") -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return default


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo", "").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "git_sha": _git_sha(), "loadavg_start": _read("/proc/loadavg").strip()}


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "qint" / "__init__.py").is_file():
        _die(f"no qint sources under {SRC}; run from the root of a checkout")
    units = declared_metrics(bool(args.trace))
    os.environ.pop("QINT_TOL", None)  # the suite runs at its frozen tolerances
    TMP.mkdir(exist_ok=True)
    env_info = environment()
    spec = workloads.make_spec(args.workload, args.seed)

    with Spawner() as spawner:  # started while this process is still small
        qint = _import_qint()
        import qint.cli  # noqa: F401  (the traced run reaches the cli layer in-process)
        if args.trace:
            run, metrics = measure_traced(spawner, qint, args.workload, spec, args.seed)
        else:
            run, summary = measure(spawner, qint, args.workload, spec, args.seconds)
            metrics = {k: summary[k] for k in units if k in summary}
    env_info["loadavg_end"] = _read("/proc/loadavg").strip()

    missing = sorted(set(units) - set(metrics))
    if missing:
        _die(f"metrics not measured: {missing}")
    failed = len(run.failures)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "spec": spec, "steps": run.steps,
              "env": env_info, "attempted": run.attempted, "failed": failed,
              "fail_ratio": failed / max(run.attempted, 1), "failures": run.failures,
              "samples": run.samples, "metrics": metrics}
    if args.trace:
        record["spans"], record["calls"] = run.spans, run.calls
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
    with open(RESULTS / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    brief = {k: v for k, v in record.items() if k not in ("spans", "calls", "samples")}
    print(json.dumps(brief))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
