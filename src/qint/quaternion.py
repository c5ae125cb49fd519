"""Hamilton quaternion arithmetic on IEEE-754 doubles."""

import math
import sys
from dataclasses import dataclass

from .errors import ZeroDivisorError

Number = int | float


def _finite(value, what: str) -> float:
    """A parsed JSON number as a float; rejects booleans, NaN and infinities."""
    # the comparison is exact for ints of any size and false for NaN
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def _hamilton(a0: float, a1: float, a2: float, a3: float,
              b0: float, b1: float, b2: float, b3: float) -> tuple[float, float, float, float]:
    """(a0 + a1 i + a2 j + a3 k)(b0 + b1 i + b2 j + b3 k) on bare floats, as (w, x1,
    x2, x3): the one Hamilton product, behind Quaternion.__mul__ and the by-parts terms."""
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


@dataclass(slots=True)
class Quaternion:
    """A quaternion w + i*x1 + j*x2 + k*x3.

    Treated as an immutable value: no operation mutates its operands, so
    instances are safe to share. Component order (w, x1, x2, x3) is also
    the serialization order.
    """

    w: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other: "Quaternion | Number") -> "Quaternion":
        if isinstance(other, Quaternion):
            return Quaternion(*_hamilton(self.w, self.x1, self.x2, self.x3,
                                         other.w, other.x1, other.x2, other.x3))
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x1 * other,
                              self.x2 * other, self.x3 * other)
        return NotImplemented

    # only a real scalar reaches __rmul__, and real scalars commute exactly
    __rmul__ = __mul__

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x1, -self.x2, -self.x3)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def norm(self) -> float:
        return math.hypot(self.w, self.x1, self.x2, self.x3)

    def imag_norm(self) -> float:
        """Length of the imaginary part, r = sqrt(x1^2 + x2^2 + x3^2)."""
        return math.hypot(self.x1, self.x2, self.x3)

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisorError("cannot invert the zero quaternion")
        return Quaternion(self.w / n2, -self.x1 / n2, -self.x2 / n2, -self.x3 / n2)

    def to_list(self) -> list[float]:
        return [self.w, self.x1, self.x2, self.x3]

    @classmethod
    def from_list(cls, values) -> "Quaternion":
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"expected a 4-component list, got {values!r}")
        if len(values) != 4:
            raise ValueError(f"expected 4 components, got {len(values)}")
        return cls(*(_finite(v, "quaternion component") for v in values))


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
