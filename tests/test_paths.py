import math

import pytest
from hypothesis import given, strategies as st

from conftest import assert_close, quaternions
from qint import (Line, PolyLine, Quaternion, SliceCircle, UnitImaginary,
                  parse_path)


@given(quaternions(), quaternions())
def test_line_hits_endpoints_exactly(a, b):
    line = Line(a, b)
    assert line.point(0.0) == a
    assert line.point(1.0) == b
    assert line.start == a and line.end == b


def test_line_midpoint():
    line = Line(Quaternion(0, 0, 0, 0), Quaternion(2, 4, -2, 6))
    assert_close(line.point(0.5), Quaternion(1, 2, -1, 3), 1e-15)


def test_polyline_visits_waypoints():
    pts = (Quaternion(0, 0, 0, 0), Quaternion(1, 1, 0, 0), Quaternion(1, 1, 2, 0))
    pl = PolyLine(pts)
    assert pl.point(0.0) == pts[0]
    assert pl.point(0.5) == pts[1]
    assert pl.point(1.0) == pts[2]
    assert_close(pl.point(0.25), Quaternion(0.5, 0.5, 0, 0), 1e-15)
    assert_close(pl.point(0.75), Quaternion(1, 1, 1, 0), 1e-15)


def test_polyline_just_before_its_start_is_its_start():
    # floor(s * k) is -1 here; unclamped, the last segment would be read
    pts = (Quaternion(0, 0, 0, 0), Quaternion(1, 1, 0, 0), Quaternion(1, 1, 2, 0))
    assert_close(PolyLine(pts).point(-1e-17), pts[0], 1e-15)


def test_polyline_needs_two_points():
    with pytest.raises(ValueError):
        PolyLine((Quaternion(0, 0, 0, 0),))


def test_circle_geometry():
    u = UnitImaginary(Quaternion(0, 1, 0, 0))
    c = SliceCircle(2.0, 1.0, u, 1.0)
    assert c.point(0.0) == Quaternion(3, 0, 0, 0)
    assert_close(c.point(0.25), Quaternion(2, 1, 0, 0), 1e-12)
    assert_close(c.point(0.5), Quaternion(1, 0, 0, 0), 1e-12)
    assert_close(c.point(0.75), Quaternion(2, -1, 0, 0), 1e-12)


@given(st.integers(min_value=-3, max_value=3).filter(lambda m: m != 0))
def test_circle_closes_exactly_on_integer_turns(m):
    u = UnitImaginary(Quaternion(0, 0.6, 0.8, 0))
    c = SliceCircle(-1.5, 0.75, u, float(m))
    assert c.point(0.0) == c.point(1.0)


def test_circle_fractional_turns_are_open():
    u = UnitImaginary(Quaternion(0, 1, 0, 0))
    c = SliceCircle(0.0, 1.0, u, 0.5)
    assert_close(c.point(1.0), Quaternion(-1, 0, 0, 0), 1e-12)


def test_circle_stays_in_slice():
    u = UnitImaginary(Quaternion(0, 1, 1, 1))
    c = SliceCircle(0.5, 2.0, u, 2.0)
    for k in range(17):
        p = c.point(k / 16)
        v = Quaternion(0, p.x1, p.x2, p.x3)
        # vector part is always a multiple of u
        assert_close(v * u.value, u.value * v, 1e-12)


def test_circle_rejects_bad_radius():
    u = UnitImaginary(Quaternion(0, 1, 0, 0))
    with pytest.raises(ValueError):
        SliceCircle(0.0, 0.0, u, 1.0)
    with pytest.raises(ValueError):
        SliceCircle(0.0, -1.0, u, 1.0)


def test_parse_path_line():
    p = parse_path({"kind": "line", "a": [0, 0, 0, 0], "b": [1, 2, 3, 4]})
    assert isinstance(p, Line)
    assert p.end == Quaternion(1, 2, 3, 4)


def test_parse_path_polyline():
    p = parse_path({"kind": "polyline", "points": [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0]]})
    assert isinstance(p, PolyLine)
    assert len(p.waypoints) == 3


def test_parse_path_circle():
    p = parse_path({"kind": "circle", "center": 2, "radius": 1,
                    "u": [0, 0, 1, 0], "turns": -2})
    assert isinstance(p, SliceCircle)
    assert p.turns == -2.0
    assert p.point(0.0) == Quaternion(3, 0, 0, 0)


@pytest.mark.parametrize("bad", [
    None, {"kind": "arc"}, {"kind": "line", "a": [0, 0, 0, 0]},
    {"kind": "polyline", "points": [[0, 0, 0, 0]]},
    {"kind": "circle", "center": "x", "radius": 1, "u": [0, 1, 0, 0]},
    {"kind": "circle", "center": 0, "radius": 1, "u": [0.5, 1, 0, 0]},
    {"kind": "circle", "center": 0, "radius": 1, "u": [0, 0, 0, 0]},
])
def test_parse_path_rejects(bad):
    with pytest.raises(ValueError):
        parse_path(bad)


def test_path_json_round_trip():
    u = UnitImaginary(Quaternion(0, 0, 0, 1))
    for p in (Line(Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0)),
              PolyLine((Quaternion(0, 0, 0, 0), Quaternion(1, 1, 1, 1))),
              SliceCircle(1.0, 2.0, u, -1.5)):
        q = parse_path(p.to_json())
        for s in (0.0, 0.3, 1.0):
            assert_close(q.point(s), p.point(s), 1e-15)


@given(st.floats(min_value=0.0, max_value=1.0), quaternions(), quaternions())
def test_point_is_coords_as_a_quaternion(s, a, b):
    u = UnitImaginary(Quaternion(0, 1, -2, 0.5))
    for p in (Line(a, b), PolyLine((a, b, Quaternion(0.5, 1, 0, -1))),
              SliceCircle(a.w, 1.5, u, 2.5)):
        c = p.coords(s)
        assert type(c) is tuple and len(c) == 4
        assert p.point(s) == Quaternion(*c)


def test_circle_large_turn_count_phase_reduction():
    # phase is reduced mod one turn, so many turns lose no accuracy
    u = UnitImaginary(Quaternion(0, 1, 0, 0))
    c = SliceCircle(0.0, 1.0, u, 1000.0)
    p = c.point(0.9995)  # 999.5 turns -> half turn
    assert_close(p, Quaternion(-1, 0, 0, 0), 1e-9)
    assert c.point(1.0) == c.point(0.0)
