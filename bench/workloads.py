"""Workload inputs drawn from a seed, and the references they are checked
against.

Every reference is computed here with `math` and complex arithmetic only,
never through `qint`, so a fast but wrong change to the library cannot also
change the value it is judged by.
"""

import json
import math
import random

WORKLOADS = ("stair_exp_line", "stair_series_poly", "branch_ln_circle", "verify_all")

# Step counts are fixed, never drawn: a second seed must give the same N and
# the same per-step call counts.
EXP_STEPS = 1_000_000
SERIES_STEPS = 200_000
BRANCH_STEPS = 1_000_000
SERIES_DEGREE = 20
TURNS = 3

# Largest abs_error a correct run may show: 10-200x the discretization error
# of the draws below at the fixed N (about 9e-7, 5e-11 and 1.8e-4), and far
# below the O(1) error of a kernel that drops or misweights a term.
ERROR_BOUNDS = {
    "stair_exp_line": 1e-4,
    "stair_series_poly": 1e-8,
    "branch_ln_circle": 2e-3,
}


def _off_axis_point(rng: random.Random, x1: tuple[float, float], span: float) -> list[float]:
    # x1 >= 0.5 at every endpoint keeps every chord at least 0.5 off the
    # real axis, so no step hits the axis check or the real-axis branch
    return [rng.uniform(-span, span), rng.uniform(*x1),
            rng.uniform(-span, span), rng.uniform(-span, span)]


def _rotate(x: list[float], th: float) -> list[float]:
    """Rotate the (x2, x3) plane by th. This is an automorphism of the
    quaternions that fixes w and x1, and slice functions commute with it, so
    the rotated integral is the rotated value and its error has the same norm."""
    c, s = math.cos(th), math.sin(th)
    return [x[0], x[1], c * x[2] - s * x[3], s * x[2] + c * x[3]]


def make_spec(workload: str, seed: int) -> dict:
    """The generated inputs of one workload: function and path specs, rule and N.

    The staircase workloads draw one base configuration from a fixed stream
    and let the seed rotate it (and, for the series, flip its sign). Each
    seed therefore gives different inputs with the same work per step and the
    same exact error, so abs_error can be compared across seeds.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    base = random.Random(f"{workload}:base")
    rng = random.Random(f"{workload}:{seed}")
    th = rng.uniform(0.0, 2.0 * math.pi)
    if workload == "stair_exp_line":
        a, b = (_off_axis_point(base, (0.5, 1.5), 1.0) for _ in range(2))
        return {"fn": {"kind": "named", "name": "exp"},
                "path": {"kind": "line", "a": _rotate(a, th), "b": _rotate(b, th)},
                "rule": "left", "steps": EXP_STEPS}
    if workload == "stair_series_poly":
        # c_n = a_n / 2^n; waypoints within norm sqrt(1 + 3 * 0.7^2) < 1.6, so
        # |z| <= 1.6 along every chord and no term drops below the
        # truncation threshold: all 21 terms are summed on every call
        sign = rng.choice((-1.0, 1.0))
        coeffs = [sign * base.uniform(-1.0, 1.0) / 2.0 ** n for n in range(SERIES_DEGREE + 1)]
        points = [_rotate(_off_axis_point(base, (0.5, 1.0), 0.7), th) for _ in range(4)]
        return {"fn": {"kind": "series", "coeffs": coeffs},
                "path": {"kind": "polyline", "points": points},
                "rule": "midpoint", "steps": SERIES_STEPS}
    if workload == "branch_ln_circle":
        # the error of a centred circle depends on neither u nor the radius
        while True:  # uniform direction on the unit sphere
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            n = math.sqrt(sum(c * c for c in v))
            if n > 1e-3:
                break
        return {"fn": {"kind": "named", "name": "ln"},
                "path": {"kind": "circle", "center": 0.0, "radius": rng.uniform(0.5, 2.0),
                         "u": [0.0] + [c / n for c in v], "turns": TURNS},
                "rule": "branch", "steps": BRANCH_STEPS}
    return {"suite": "all"}  # fixed by the suite's own RNG_SEED


def cli_args(workload: str, spec: dict, out: str) -> list[str]:
    """Arguments after `qint` for one run of the workload's CLI command."""
    if workload == "verify_all":
        return ["verify", "--suite", spec["suite"], "--out", out]
    args = ["integrate", "--fn", _dumps(spec["fn"]), "--path", _dumps(spec["path"]),
            "--steps", str(spec["steps"])]
    return args + (["--branch-track"] if spec["rule"] == "branch" else ["--rule", spec["rule"]])


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# -- closed forms, without qint ------------------------------------------------

def _lift(fz: complex, x: list[float]) -> list[float]:
    """Map f(w + i r) = a + i b to a + b u, u the unit imaginary of x."""
    r = math.sqrt(x[1] * x[1] + x[2] * x[2] + x[3] * x[3])
    s = fz.imag / r
    return [fz.real, s * x[1], s * x[2], s * x[3]]


def _exp_at(x: list[float]) -> list[float]:
    # e^w (cos r + u sin r)
    r = math.sqrt(x[1] * x[1] + x[2] * x[2] + x[3] * x[3])
    ew = math.exp(x[0])
    return _lift(complex(ew * math.cos(r), ew * math.sin(r)), x)


def _series_at(coeffs: list[float], x: list[float]) -> list[float]:
    z = complex(x[0], math.sqrt(x[1] * x[1] + x[2] * x[2] + x[3] * x[3]))
    acc = 0j
    for c in reversed(coeffs):  # full complex Horner sum, no truncation
        acc = acc * z + c
    return _lift(acc, x)


def reference(workload: str, spec: dict) -> list[float]:
    """The exact integral the staircase converges to."""
    if workload == "stair_exp_line":
        a, b = _exp_at(spec["path"]["a"]), _exp_at(spec["path"]["b"])
    elif workload == "stair_series_poly":
        pts = spec["path"]["points"]
        a = _series_at(spec["fn"]["coeffs"], pts[0])
        b = _series_at(spec["fn"]["coeffs"], pts[-1])
    elif workload == "branch_ln_circle":
        # ln picks up 2*pi*i per turn around 0: 2*pi*turns*u
        k = 2.0 * math.pi * spec["path"]["turns"]
        return [0.0] + [k * c for c in spec["path"]["u"][1:]]
    else:
        raise ValueError(f"{workload} has no closed form")
    return [bj - aj for aj, bj in zip(a, b)]


def distance(value: list[float], ref: list[float]) -> float:
    """Quaternion-norm distance; inf unless the value is 4 finite numbers."""
    if len(value) != 4 or not all(isinstance(v, (int, float)) and math.isfinite(v)
                                  for v in value):
        return math.inf
    return math.sqrt(sum((v - r) ** 2 for v, r in zip(value, ref)))

