"""qint — evaluate, differentiate, integrate, and verify from the shell.

Exit codes: 0 success, 1 usage or parse problem, 2 domain problem
(singularity, radius of convergence, slice escape),
3 verification suite failure.
"""

import argparse
import csv
import json
import sys

from .differential import differential
from .errors import QintError
from .functions import AnalyticFunction, NamedFunction, parse_function
from .integrate import (IntegrationReport, convergence_study, integrate,
                        integrate_with_branch_tracking)
from .paths import parse_path
from .quaternion import Quaternion
from .slices import eval_function
from .suite import run_suite
from .verify import tolerances_from_env


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for domain
    # problems, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def format_quaternion(q: Quaternion) -> str:
    return "[" + ", ".join(_fmt(c) for c in q.to_list()) + "]"


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _load_function(text: str) -> AnalyticFunction:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return NamedFunction(text)  # bare names like "exp" are a convenience
    if isinstance(obj, str):
        return NamedFunction(obj)
    return parse_function(obj)


def _load(text: str, parse):
    """parse applied to the JSON value of a command-line argument."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {text!r} ({e})") from e
    return parse(obj)


def _est_order_cell(report: IntegrationReport):
    if report.is_exact():
        return "exact"
    return report.est_order


def _write_csv(filename: str, report: IntegrationReport) -> None:
    order = _est_order_cell(report)
    order_cell = order if isinstance(order, str) else (_fmt(order) if order is not None else "")
    with open(filename, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "value_w", "value_x1", "value_x2", "value_x3",
                    "abs_error", "est_order"])
        for n, v, err in report.rows:
            w.writerow([n, _fmt(v.w), _fmt(v.x1), _fmt(v.x2), _fmt(v.x3),
                        _fmt(err) if err is not None else "", order_cell])


def _report_json(report: IntegrationReport) -> dict:
    return {
        "steps": report.steps,
        "value": report.value.to_list(),
        "reference": report.reference.to_list() if report.reference is not None else None,
        "abs_error": report.abs_error,
        "est_order": _est_order_cell(report),
        "rows": [{"N": n, "value": v.to_list(), "abs_error": err}
                 for n, v, err in report.rows],
    }


def _write_json(filename: str, obj) -> None:
    with open(filename, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_report(filename: str, report: IntegrationReport) -> None:
    if filename.endswith(".json"):
        _write_json(filename, _report_json(report))
    else:
        _write_csv(filename, report)


def cmd_eval(args) -> int:
    F = _load_function(args.fn)
    x = _load(args.at, Quaternion.from_list)
    print(format_quaternion(eval_function(F, x)))
    return 0


def cmd_diff(args) -> int:
    F = _load_function(args.fn)
    x = _load(args.at, Quaternion.from_list)
    d = _load(args.delta, Quaternion.from_list)
    print(format_quaternion(differential(F, x, d)))
    return 0


def cmd_integrate(args) -> int:
    F = _load_function(args.fn)
    path = _load(args.path, parse_path)
    if args.branch_track and (args.study or args.rule != "left"):
        other = "--study" if args.study else "--rule " + args.rule
        raise ValueError(f"{other} and --branch-track cannot be combined")
    if args.branch_track:
        report = integrate_with_branch_tracking(F, path, args.steps)
    elif args.study:
        try:
            n_list = [int(tok) for tok in args.study.split(",") if tok.strip()]
        except ValueError as e:
            raise ValueError(f"bad --study list {args.study!r}") from e
        report = convergence_study(F, path, n_list, rule=args.rule)
    else:
        report = integrate(F, path, args.steps, rule=args.rule)
    if args.out:
        _write_report(args.out, report)
    print(format_quaternion(report.value))
    return 0


def cmd_verify(args) -> int:
    tol = tolerances_from_env()
    reports = run_suite(args.suite, tol)
    for rep in reports:
        print(rep.summary_line())
    n_pass = sum(1 for r in reports if r.passed)
    print(f"{n_pass}/{len(reports)} checks passed")
    if args.out:
        _write_json(args.out, [r.to_json() for r in reports])
    return 0 if n_pass == len(reports) else 3


def build_parser() -> _Parser:
    p = _Parser(prog="qint",
                description="Differential and path-integral calculus for "
                            "real-analytic functions of a quaternionic variable.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pe = sub.add_parser("eval", help="evaluate a function at a quaternion point")
    pe.add_argument("--fn", required=True,
                    help="function spec: JSON object, or a bare name like 'exp'")
    pe.add_argument("--at", required=True, help="point as a JSON 4-array [w,x1,x2,x3]")
    pe.set_defaults(func=cmd_eval)

    pd = sub.add_parser("diff", help="apply the differential of a function to an increment")
    pd.add_argument("--fn", required=True, help="function spec")
    pd.add_argument("--at", required=True, help="base point, JSON 4-array")
    pd.add_argument("--delta", required=True, help="increment, JSON 4-array")
    pd.set_defaults(func=cmd_diff)

    pi = sub.add_parser("integrate", help="staircase-integrate a function along a path")
    pi.add_argument("--fn", required=True, help="function spec")
    pi.add_argument("--path", required=True, help="path spec: JSON object")
    pi.add_argument("--steps", type=_positive_int, default=10_000,
                    help="number of subdivisions (default 10000)")
    pi.add_argument("--rule", choices=["left", "midpoint"], default="left",
                    help="per-segment evaluation point (default left)")
    pi.add_argument("--study", default=None,
                    help="comma-separated ascending step counts for a convergence study")
    pi.add_argument("--branch-track", action="store_true",
                    help="continuous-branch integration of ln along an in-slice path"
                         " (left rule only)")
    pi.add_argument("--out", default=None,
                    help="write the report: .json for JSON, anything else CSV")
    pi.set_defaults(func=cmd_integrate)

    pv = sub.add_parser("verify", help="run the verification suite")
    pv.add_argument("--suite", choices=["default", "all"], default="default")
    pv.add_argument("--out", default=None, help="write the JSON report here")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except QintError as e:
        where = f" (at s={e.s_param:.6g})" if e.s_param is not None else ""
        print(f"qint {args.command}: domain error{where}: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:
        print(f"qint {args.command}: domain error: overflow ({e})", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"qint {args.command}: parse error: {e}", file=sys.stderr)
        return 1
    except RecursionError as e:  # from json or from walking a nested spec
        print(f"qint {args.command}: parse error: input nested too deeply ({e})", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"qint {args.command}: i/o error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
