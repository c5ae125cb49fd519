"""Compare two result sets of bench/run.py, for example the parent commit's
and a change's:

    python3 bench/compare.py BASE NEW

BASE and NEW are each a .bench_results/ directory or one result file. For each
workload and each end-to-end metric it prints the median and quartiles of
each side, the ratio NEW/BASE with its base, and a verdict:

- better: every NEW run beats every BASE run, or, over at least ten runs
  paired by seed, NEW wins at least nine pairs in ten and the medians differ
  by more than the distance between BASE's quartiles. Pairs count only when
  the two runs of a seed were made one after the other, alternating which
  side goes first: the machine's speed drifts over minutes;
- worse: every NEW run is worse than every BASE run, or the NEW median is
  worse by more than the metric's bound in BENCHMARK.json;
- unresolved: the spread (quartile distance over median) of either side
  exceeds the bound, so "no change" cannot be told from noise;
- same: none of the above.

Counts from traced runs (--trace 1) are compared as exact counts.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(source: str) -> list[dict]:
    path = Path(source)
    records = []
    for f in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        with open(f, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(q: tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else float("inf")


def verdict(base: list[tuple[int, float]], new: list[tuple[int, float]],
            higher_is_better: bool, bound: float) -> str:
    """base and new are (seed, value) per run."""
    sign = 1.0 if higher_is_better else -1.0
    b = [v * sign for _, v in base]  # larger is better from here on
    n = [v * sign for _, v in new]
    qb, qn = quartiles(b), quartiles(n)
    if min(n) > max(b):
        return "better"
    if max(n) < min(b):
        return "worse"
    by_seed = dict(base)
    pairs = [(by_seed[s] * sign, v * sign) for s, v in new if s in by_seed]
    wins = sum(1 for x, y in pairs if y > x)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and qn[1] - qb[1] > qb[2] - qb[0]):
        return "better"
    if max(_spread(qb), _spread(qn)) > bound:
        return "unresolved"
    if (qn[1] - qb[1]) / abs(qb[1]) < -bound:
        return "worse"
    return "same"


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def compare_end_to_end(base: list[dict], new: list[dict], metrics: list[dict]) -> list[str]:
    lines = [f"{'workload':18} {'metric':16} {'base median [q1, q3]':34} "
             f"{'new median [q1, q3]':34} {'new/base':>10}  verdict"]
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        rb = [r for r in base if r["workload"] == workload]
        rn = [r for r in new if r["workload"] == workload]
        for m in metrics:
            name = m["name"]
            vb = [(r["seed"], r["metrics"][name]) for r in rb if name in r["metrics"]]
            vn = [(r["seed"], r["metrics"][name]) for r in rn if name in r["metrics"]]
            if not vb or not vn:
                continue
            qb, qn = quartiles([v for _, v in vb]), quartiles([v for _, v in vn])
            ratio = qn[1] / qb[1] if qb[1] else float("inf")
            v = verdict(vb, vn, m["better"] == "higher", m["bound"])
            lines.append(
                f"{workload:18} {name:16} "
                f"{_fmt(qb[1]) + ' [' + _fmt(qb[0]) + ', ' + _fmt(qb[2]) + ']':34} "
                f"{_fmt(qn[1]) + ' [' + _fmt(qn[0]) + ', ' + _fmt(qn[2]) + ']':34} "
                f"{ratio:10.4f}  {v}  (base {_fmt(qb[1])} {m['unit']}, n={len(vb)}/{len(vn)})")
        fb = sum(r["failed"] for r in rb), sum(r["attempted"] for r in rb)
        fn = sum(r["failed"] for r in rn), sum(r["attempted"] for r in rn)
        lines.append(f"{workload:18} {'fail_ratio':16} {fb[0]}/{fb[1]:<31} {fn[0]}/{fn[1]}")
    return lines


def compare_counts(base: list[dict], new: list[dict], metrics: list[dict]) -> list[str]:
    counts = [m["name"] for m in metrics if m["unit"] == "count"]
    lines = []
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for name in counts:
            vb = {r["metrics"][name] for r in base if r["workload"] == workload}
            vn = {r["metrics"][name] for r in new if r["workload"] == workload}
            if not vb or not vn:
                continue
            if len(vb) > 1 or len(vn) > 1:
                state = f"not repeatable: base {sorted(vb)}, new {sorted(vn)}"
            elif vb == vn:
                state = f"equal {next(iter(vb))}"
            else:
                state = f"changed {next(iter(vb))} -> {next(iter(vn))}"
            lines.append(f"{workload:18} {name:32} {state}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two sets of bench/run.py results.")
    p.add_argument("base", help="BASE results: a directory or one file")
    p.add_argument("new", help="NEW results: a directory or one file")
    args = p.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    base, new = load(args.base), load(args.new)
    print("\n".join(compare_end_to_end([r for r in base if not r["trace"]],
                                       [r for r in new if not r["trace"]],
                                       bench["end_to_end"])))
    traced = compare_counts([r for r in base if r["trace"]], [r for r in new if r["trace"]],
                            bench["per_layer"])
    if traced:
        print("\ntraced counts")
        print("\n".join(traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
