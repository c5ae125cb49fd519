import math
import os

import hypothesis.strategies as st
import pytest

from qint import Quaternion, UnitImaginary


def components(span: float):
    return st.floats(min_value=-span, max_value=span,
                     allow_nan=False, allow_infinity=False)


def quaternions(span: float = 2.0):
    c = components(span)
    return st.builds(Quaternion, c, c, c, c)


def off_axis_quaternions(span: float = 2.0, min_r: float = 1e-3):
    return quaternions(span).filter(lambda q: q.imag_norm() > min_r)


def unit_imaginaries():
    c = components(1.0)
    return (st.tuples(c, c, c)
            .filter(lambda v: math.sqrt(v[0]**2 + v[1]**2 + v[2]**2) > 1e-3)
            .map(lambda v: UnitImaginary(Quaternion(0.0, *v))))


def assert_close(a: Quaternion, b: Quaternion, tol: float = 1e-10):
    d = (a - b).norm()
    assert d <= tol, f"{a.to_list()} vs {b.to_list()}: |diff| = {d:.3e} > {tol:.1e}"


# JSON specs built from a pool of components that includes subnormals and
# values whose squares overflow; shared by the CLI and library contract tests
SPEC_COMPONENTS = (st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300])
                   | st.floats(-4.0, 4.0))
POINT_SPECS = st.lists(SPEC_COMPONENTS, min_size=4, max_size=4)
FUNCTION_SPECS = st.recursive(
    st.sampled_from(["exp", "sin", "cos", "ln", "ln1m", "reciprocal"])
    .map(lambda name: {"kind": "named", "name": name})
    | st.integers(0, 40).map(lambda n: {"kind": "named", "name": "monomial", "n": n})
    | st.builds(lambda c, r: {"kind": "series", "coeffs": c, "radius": r},
                st.lists(SPEC_COMPONENTS, min_size=1, max_size=6),
                st.none() | SPEC_COMPONENTS.map(abs)),
    lambda inner: st.builds(lambda c, f: {"kind": "scaled", "factor": c, "inner": f},
                            SPEC_COMPONENTS, inner),
    max_leaves=3)
PATH_SPECS = (st.builds(lambda a, b: {"kind": "line", "a": a, "b": b}, POINT_SPECS, POINT_SPECS)
              | st.builds(lambda p: {"kind": "polyline", "points": p},
                          st.lists(POINT_SPECS, min_size=2, max_size=4))
              | st.builds(lambda c, r, u, t: {"kind": "circle", "center": c, "radius": r,
                                              "u": [0.0] + u, "turns": t},
                          SPEC_COMPONENTS, SPEC_COMPONENTS.map(abs),
                          st.lists(SPEC_COMPONENTS, min_size=3, max_size=3), SPEC_COMPONENTS))

# tests of the staircase's forked workers
FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="the staircase forks only where os.fork exists")


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes the process see k CPUs, so a staircase of many blocks
    shares them among up to k processes (one where os.fork is missing)."""
    def see(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    return see


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
