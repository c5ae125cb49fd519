"""Parameterized curves in quaternion space, each exposing coords(s) on [0, 1].

Integration samples these at uniform s and connects the samples with straight
chords, so only coords() and the endpoints matter to the rest of the library.
"""

import math
from dataclasses import dataclass, field

from .errors import DegenerateSliceError
from .quaternion import Quaternion, _finite
from .slices import UnitImaginary

TAU = 2.0 * math.pi

# (w, x1, x2, x3) of one point, the form integration reads paths in
_Coords = tuple[float, float, float, float]


class Path:
    """Base: a piecewise-smooth curve with coords(s) for s in [0, 1]."""

    def coords(self, s: float) -> _Coords:
        """The components (w, x1, x2, x3) of the point at parameter s."""
        raise NotImplementedError

    def point(self, s: float) -> Quaternion:
        return Quaternion(*self.coords(s))

    @property
    def start(self) -> Quaternion:
        return self.point(0.0)

    @property
    def end(self) -> Quaternion:
        return self.point(1.0)

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Line(Path):
    """Straight segment from a to b."""

    a: Quaternion
    b: Quaternion
    # the components of a and b, read by coords (and by integrate's
    # _differential_walk) without a Quaternion attribute each
    _ends: tuple[_Coords, _Coords] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_ends", (tuple(self.a.to_list()), tuple(self.b.to_list())))

    def coords(self, s: float) -> _Coords:
        # (1-s)*a + s*b hits both endpoints exactly, unlike a + s*(b-a);
        # integrate's _differential_walk copies these operations, in this order
        (aw, a1, a2, a3), (bw, b1, b2, b3) = self._ends
        t = 1.0 - s
        return t * aw + s * bw, t * a1 + s * b1, t * a2 + s * b2, t * a3 + s * b3

    def to_json(self) -> dict:
        return {"kind": "line", "a": self.a.to_list(), "b": self.b.to_list()}


@dataclass(frozen=True, slots=True)
class PolyLine(Path):
    """Straight segments through waypoints, each traversed in equal s-time."""

    waypoints: tuple[Quaternion, ...]
    # segment k as a Line, so coords shares Line's interpolation
    _segments: tuple[Line, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if len(self.waypoints) < 2:
            raise ValueError("polyline needs at least 2 waypoints")
        object.__setattr__(self, "_segments", tuple(
            Line(a, b) for a, b in zip(self.waypoints, self.waypoints[1:])))

    def coords(self, s: float) -> _Coords:
        k = len(self._segments)
        t = s * k
        seg = min(max(int(t), 0), k - 1)  # int and floor differ only below 0, clamped to 0
        return self._segments[seg].coords(t - seg)

    def to_json(self) -> dict:
        return {"kind": "polyline", "points": [p.to_list() for p in self.waypoints]}


@dataclass(frozen=True, slots=True)
class SliceCircle(Path):
    """center + radius*(cos th + u sin th), th sweeping turns full revolutions.

    The center sits on the real axis so the whole loop stays in u's slice.
    Signed, possibly fractional turns; integer turns close the loop exactly
    (the phase is reduced mod 1 before taking cos/sin).
    """

    center: float
    radius: float
    u: UnitImaginary
    turns: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ValueError("radius must be positive")

    def coords(self, s: float) -> _Coords:
        t = self.turns * s
        th = TAU * (t - math.floor(t))
        b, u = self.radius * math.sin(th), self.u.value  # no property call per component
        return self.center + self.radius * math.cos(th), b * u.x1, b * u.x2, b * u.x3

    def to_json(self) -> dict:
        return {"kind": "circle", "center": self.center, "radius": self.radius,
                "u": self.u.value.to_list(), "turns": self.turns}


def parse_path(obj: dict) -> Path:
    """Build a path from its JSON object form.

    Accepted shapes:
      {"kind": "line", "a": [...], "b": [...]}
      {"kind": "polyline", "points": [[...], ...]}
      {"kind": "circle", "center": c, "radius": rho, "u": [0,u1,u2,u3], "turns": m}
    """
    if not isinstance(obj, dict):
        raise ValueError("path spec must be a JSON object")
    kind = obj.get("kind")
    if kind == "line":
        return Line(Quaternion.from_list(obj.get("a")), Quaternion.from_list(obj.get("b")))
    if kind == "polyline":
        pts = obj.get("points")
        if not isinstance(pts, list) or len(pts) < 2:
            raise ValueError("polyline spec needs a 'points' list with >= 2 entries")
        return PolyLine(tuple(Quaternion.from_list(p) for p in pts))
    if kind == "circle":
        center = _finite(obj.get("center"), "circle 'center'")
        radius = _finite(obj.get("radius"), "circle 'radius'")
        turns = _finite(obj.get("turns", 1.0), "circle 'turns'")
        try:
            u = UnitImaginary(Quaternion.from_list(obj.get("u")))
        except (ValueError, DegenerateSliceError) as e:  # a malformed spec, zero u included
            raise ValueError(f"circle 'u': {e}") from e
        return SliceCircle(center, radius, u, turns)
    raise ValueError(f"unknown path kind {kind!r}")
