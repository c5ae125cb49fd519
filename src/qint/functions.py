"""Real-analytic functions of one variable, evaluated at complex slice coordinates.

Every function here has real power-series coefficients, so its complex
evaluator satisfies f(conj(z)) == conj(f(z)). That symmetry is what makes
quaternionic evaluation through a slice well defined: the value at
xi0 + r*u is read off from f(xi0 + 1j*r).
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, UnsupportedFunctionError
from .quaternion import _finite

class AnalyticFunction:
    """Base for functions evaluable (with derivative) on any complex slice."""

    def eval_complex(self, z: complex) -> complex:
        raise NotImplementedError

    def deriv_complex(self, z: complex) -> complex:
        raise NotImplementedError

    @property
    def is_entire(self) -> bool:
        """True when defined on the whole slice plane (no radius, pole, or cut)."""
        raise NotImplementedError

    @property
    def single_valued(self) -> bool:
        """False for functions with a branch point (their value is path dependent)."""
        return True

    @property
    def singular_points(self) -> tuple[float, ...]:
        """The real points where F has a pole or a branch point; a staircase
        chord across one is meaningless. An entire function has none, and so
        has a series, whose disk holds every chord between two nodes in it."""
        return ()

    def to_json(self) -> dict:
        raise NotImplementedError


def _horner(reversed_coeffs: tuple[float, ...], z: complex) -> complex:
    total = 0j
    for c in reversed_coeffs:
        total = total * z + c
    if not cmath.isfinite(total):
        # float overflow raises nothing; make it loud, as cmath's functions do
        raise OverflowError("power series value out of range")
    return total


@dataclass(frozen=True)
class PowerSeries(AnalyticFunction):
    """Finite list of real coefficients c0..cM with a radius of convergence.

    Evaluation runs Horner's rule over every coefficient; points with
    |z| >= radius are rejected.
    """

    coeffs: tuple[float, ...]
    radius: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not (self.radius > 0.0):
            raise ValueError("radius of convergence must be positive")
        # Horner order, kept outside the fields so eq, hash and repr ignore it
        object.__setattr__(self, "_eval_rev", self.coeffs[::-1])
        object.__setattr__(self, "_deriv_rev",
                           tuple(n * c for n, c in enumerate(self.coeffs))[:0:-1])

    def _check_domain(self, z: complex) -> None:
        if abs(z) >= self.radius:
            raise DomainError(f"|z| = {abs(z)} outside radius of convergence {self.radius}")

    def eval_complex(self, z: complex) -> complex:
        self._check_domain(z)
        return _horner(self._eval_rev, z)

    def deriv_complex(self, z: complex) -> complex:
        self._check_domain(z)
        return _horner(self._deriv_rev, z)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for n, a in enumerate(self.coeffs):
            for m, b in enumerate(other.coeffs):
                out[n + m] += a * b
        return PowerSeries(tuple(out), min(self.radius, other.radius))

    @property
    def is_entire(self) -> bool:
        return math.isinf(self.radius)

    def to_json(self) -> dict:
        return {"kind": "series", "coeffs": list(self.coeffs),
                "radius": None if math.isinf(self.radius) else self.radius}


@dataclass(frozen=True)
class Monomial(AnalyticFunction):
    """x**n for integer n >= 0."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError("monomial exponent must be a nonnegative integer")

    def eval_complex(self, z: complex) -> complex:
        return z ** self.n

    def deriv_complex(self, z: complex) -> complex:
        if self.n == 0:
            return 0j
        return self.n * z ** (self.n - 1)

    @property
    def is_entire(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"kind": "named", "name": "monomial", "n": self.n}


def _ln_eval(z: complex) -> complex:
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError("ln is undefined on the branch cut (real axis <= 0)")
    return cmath.log(z)


def _ln_deriv(z: complex) -> complex:
    if z.imag == 0.0 and z.real <= 0.0:
        raise DomainError("ln is undefined on the branch cut (real axis <= 0)")
    return 1.0 / z


def _ln1m_eval(z: complex) -> complex:
    w = 1.0 - z
    if w.imag == 0.0 and w.real <= 0.0:
        raise DomainError("ln(1 - x) is undefined on the branch cut (real axis >= 1)")
    return cmath.log(w)


def _ln1m_deriv(z: complex) -> complex:
    w = 1.0 - z
    if w.imag == 0.0 and w.real <= 0.0:
        raise DomainError("ln(1 - x) is undefined on the branch cut (real axis >= 1)")
    return -1.0 / w


def _reciprocal_over(w: complex) -> complex:
    # w is 1 - z or its square; a square can underflow to 0 off the pole
    if w == 0:
        raise DomainError("1/(1 - x) has a pole at x = 1")
    return 1.0 / w


def _reciprocal_eval(z: complex) -> complex:
    return _reciprocal_over(1.0 - z)


def _reciprocal_deriv(z: complex) -> complex:
    w = 1.0 - z
    return _reciprocal_over(w * w)


def _neg_sin(z: complex) -> complex:
    return -cmath.sin(z)


@dataclass(frozen=True)
class _NamedSpec:
    fn: Callable[[complex], complex]
    deriv: Callable[[complex], complex]
    entire: bool
    single_valued: bool
    singular: tuple[float, ...] = ()


_NAMED: dict[str, _NamedSpec] = {
    "exp": _NamedSpec(cmath.exp, cmath.exp, True, True),
    "sin": _NamedSpec(cmath.sin, cmath.cos, True, True),
    "cos": _NamedSpec(cmath.cos, _neg_sin, True, True),
    "ln": _NamedSpec(_ln_eval, _ln_deriv, False, False, (0.0,)),
    "ln1m": _NamedSpec(_ln1m_eval, _ln1m_deriv, False, False, (1.0,)),
    "reciprocal": _NamedSpec(_reciprocal_eval, _reciprocal_deriv, False, True, (1.0,)),
}


@dataclass(frozen=True)
class NamedFunction(AnalyticFunction):
    """One of the registered elementary functions: exp, sin, cos, ln, ln1m, reciprocal."""

    name: str

    def __post_init__(self):
        if self.name not in _NAMED:
            raise ValueError(f"unknown function name {self.name!r}; "
                             f"known: {sorted(_NAMED)}")
        # the table's callables themselves, so a call reaches cmath.exp with no
        # Python frame between; kept outside the fields, as PowerSeries' _eval_rev
        spec = _NAMED[self.name]
        object.__setattr__(self, "eval_complex", spec.fn)
        object.__setattr__(self, "deriv_complex", spec.deriv)

    @property
    def is_entire(self) -> bool:
        return _NAMED[self.name].entire

    @property
    def single_valued(self) -> bool:
        return _NAMED[self.name].single_valued

    @property
    def singular_points(self) -> tuple[float, ...]:
        return _NAMED[self.name].singular

    def to_json(self) -> dict:
        return {"kind": "named", "name": self.name}


@dataclass(frozen=True)
class Scaled(AnalyticFunction):
    """A real multiple of another function; keeps coefficients real."""

    inner: AnalyticFunction
    factor: float

    def eval_complex(self, z: complex) -> complex:
        return self.factor * self.inner.eval_complex(z)

    def deriv_complex(self, z: complex) -> complex:
        return self.factor * self.inner.deriv_complex(z)

    @property
    def is_entire(self) -> bool:
        return self.inner.is_entire

    @property
    def single_valued(self) -> bool:
        return self.inner.single_valued

    @property
    def singular_points(self) -> tuple[float, ...]:
        return self.inner.singular_points

    def to_json(self) -> dict:
        return {"kind": "scaled", "factor": self.factor, "inner": self.inner.to_json()}


# name -> factory producing the antiderivative (constant of integration 0)
_ANTIDERIVATIVES: dict[str, Callable[[], AnalyticFunction]] = {
    "exp": lambda: NamedFunction("exp"),
    "cos": lambda: NamedFunction("sin"),
    "sin": lambda: Scaled(NamedFunction("cos"), -1.0),
    "reciprocal": lambda: Scaled(NamedFunction("ln1m"), -1.0),
}


def antiderivative(f: AnalyticFunction) -> AnalyticFunction:
    """Return h with h' = f, coefficient-wise for series (c_n -> c_n/(n+1), constant 0).

    Raises UnsupportedFunctionError for kinds without a registered closed form.
    """
    if isinstance(f, PowerSeries):
        shifted = (0.0,) + tuple(c / (n + 1) for n, c in enumerate(f.coeffs))
        return PowerSeries(shifted, f.radius)
    if isinstance(f, Monomial):
        return Scaled(Monomial(f.n + 1), 1.0 / (f.n + 1))
    if isinstance(f, NamedFunction):
        factory = _ANTIDERIVATIVES.get(f.name)
        if factory is None:
            raise UnsupportedFunctionError(f"no closed-form antiderivative registered for {f.name!r}")
        return factory()
    if isinstance(f, Scaled):
        return Scaled(antiderivative(f.inner), f.factor)
    raise UnsupportedFunctionError(f"no antiderivative rule for {type(f).__name__}")


def parse_function(obj: dict) -> AnalyticFunction:
    """Build a function from its JSON object form.

    Accepted shapes:
      {"kind": "series", "coeffs": [...], "radius": R}   (radius null/missing = entire)
      {"kind": "named", "name": "exp"}
      {"kind": "named", "name": "monomial", "n": 3}
      {"kind": "scaled", "factor": c, "inner": {...}}
    """
    if not isinstance(obj, dict):
        raise ValueError("function spec must be a JSON object")
    kind = obj.get("kind")
    if kind == "series":
        coeffs = obj.get("coeffs")
        if not isinstance(coeffs, list):
            raise ValueError("series spec needs a numeric 'coeffs' list")
        radius = obj.get("radius")
        radius = math.inf if radius is None else _finite(radius, "series 'radius'")
        return PowerSeries(tuple(_finite(c, "series coefficient") for c in coeffs), radius)
    if kind == "named":
        name = obj.get("name")
        if name == "monomial":
            n = obj.get("n")
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError("monomial spec needs an integer 'n'")
            return Monomial(n)
        if not isinstance(name, str):
            raise ValueError("named spec needs a 'name' string")
        return NamedFunction(name)
    if kind == "scaled":
        factor = _finite(obj.get("factor"), "scaled 'factor'")
        return Scaled(parse_function(obj.get("inner")), factor)
    raise ValueError(f"unknown function kind {kind!r}")
