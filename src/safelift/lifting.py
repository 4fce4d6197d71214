"""Sigmoid constraint lifting: bijections between a box safe set and the plane.

A state pair ``x = (x1, x2)`` constrained to the open box
``(-x1_max, x1_max) x (-x2_max, x2_max)`` is carried through four
equivalent representations:

    x   raw state, inside the box
    xn  normalized state, xn_i = x_i / xi_max, inside (-1, 1)^2
    z   lifted state, z_i = xi_max * unsquash(xn_i), anywhere in R^2
    zn  normalized lifted state, zn_i = z_i / xi_max

``unsquash`` is a strictly increasing bijection (-1, 1) -> R with inverse
``squash``; going back through ``squash`` can never leave the box, so any
controller designed on the unconstrained z coordinates keeps x safe by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import ConfigError, DomainViolation, NonFiniteInput, require_positive

# Relative width of the guard band at the box boundary. unsquash diverges as
# |xn| -> 1; lifting inside the band is refused so the caller gets a
# diagnosable error instead of a silent infinity.
EPS_DOMAIN = 1e-9

_LN2 = math.log(2.0)


def _log_cosh(z: float) -> float:
    # Overflow-safe log(cosh(z)), valid for any finite z.
    a = abs(z)
    return a + math.log1p(math.exp(-2.0 * a)) - _LN2


@dataclass(frozen=True)
class SafeSet:
    """Origin-symmetric open box of admissible states; bounds finite and positive."""

    x1_max: float
    x2_max: float

    def __post_init__(self):
        require_positive(self, "safe-set bound ")

    def contains(self, x1, x2):
        """The strict box rule, on floats or elementwise on equal-length columns."""
        return (abs(x1) < self.x1_max) & (abs(x2) < self.x2_max)

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.x1_max, self.x2_max)


@dataclass(frozen=True)
class LiftingFamily:
    """A sigmoid pair and the derived maps used by the controller.

    ``unsquash``          (-1, 1) -> R, strictly increasing, fixes 0
    ``squash``            R -> (-1, 1), inverse of ``unsquash``
    ``unsquash_deriv``    derivative of ``unsquash``, positive on (-1, 1)
    ``squash_integral``   antiderivative of ``squash`` vanishing at 0;
                          nonnegative, grows without bound, and serves as
                          the barrier-like term of the Lyapunov function

    ``unsquash_deriv`` must be the analytic closed form for the family.
    It enters the control law directly, and numerical differentiation
    noise there destabilizes the closed loop.
    """

    name: str
    unsquash: Callable[[float], float]
    squash: Callable[[float], float]
    unsquash_deriv: Callable[[float], float]
    squash_integral: Callable[[float], float]


# One value per family name, built at import, so equal configs compare equal.
_FAMILIES = {fam.name: fam for fam in (
    # Reference family: unsquash = atanh, squash = tanh; unsquash_deriv(c) =
    # 1 / (1 - c^2), which equals cosh^2 of the lifted coordinate;
    # squash_integral(z) = log(cosh(z)).
    LiftingFamily("tanh", math.atanh, math.tanh,
                  lambda c: 1.0 / (1.0 - c * c), _log_cosh),
    # Alternate family built on the scaled logit: unsquash(c) =
    # log((1 + c) / (1 - c)), squash(z) = tanh(z / 2), unsquash_deriv(c) =
    # 2 / (1 - c^2), squash_integral(z) = 2 log(cosh(z / 2)).
    LiftingFamily("logit", lambda c: math.log((1.0 + c) / (1.0 - c)),
                  lambda z: math.tanh(0.5 * z), lambda c: 2.0 / (1.0 - c * c),
                  lambda z: 2.0 * _log_cosh(0.5 * z)),
)}


def get_family(name: str) -> LiftingFamily:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown lifting family {name!r}; available: "
            f"{sorted(_FAMILIES)}") from None


def tanh_family() -> LiftingFamily:
    return _FAMILIES["tanh"]


def logit_family() -> LiftingFamily:
    return _FAMILIES["logit"]


FamilySpec = Union[LiftingFamily, Sequence[LiftingFamily]]


def family_pair(family: FamilySpec) -> tuple[LiftingFamily, LiftingFamily]:
    """Normalize a family argument to a per-state pair.

    A single family is used for both states; a 2-sequence assigns one
    family per state.
    """
    if isinstance(family, LiftingFamily):
        return (family, family)
    pair = tuple(family)
    if len(pair) != 2 or not all(isinstance(f, LiftingFamily) for f in pair):
        raise ConfigError("family must be a LiftingFamily or a pair of them")
    return pair


@dataclass(frozen=True)
class CoordinateFrame:
    """One state expressed in all four coordinate representations."""

    x: tuple[float, float]
    xn: tuple[float, float]
    z: tuple[float, float]
    zn: tuple[float, float]


def lift(x: Sequence[float], safe_set: SafeSet, family: FamilySpec) -> CoordinateFrame:
    """Map a state strictly inside the safe set to a full coordinate frame.

    Raises NonFiniteInput on NaN/inf, and DomainViolation when either
    component sits within the relative guard band EPS_DOMAIN of the box
    boundary (where the lift would blow up).
    """
    x1, x2 = float(x[0]), float(x[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise NonFiniteInput(f"cannot lift non-finite state ({x1}, {x2})")
    fam1, fam2 = family_pair(family)
    xb1, xb2 = safe_set.x1_max, safe_set.x2_max
    if not (abs(x1) < xb1 * (1.0 - EPS_DOMAIN) and abs(x2) < xb2 * (1.0 - EPS_DOMAIN)):
        raise DomainViolation(
            f"state ({x1}, {x2}) at or beyond the constraint guard band of "
            f"the box ({xb1}, {xb2})")
    c1, c2 = x1 / xb1, x2 / xb2
    zn1, zn2 = fam1.unsquash(c1), fam2.unsquash(c2)
    return CoordinateFrame(
        x=(x1, x2), xn=(c1, c2), z=(xb1 * zn1, xb2 * zn2), zn=(zn1, zn2))


def _interior(c: float) -> float:
    # Squash values saturate to +/-1 in floating point for large inputs even
    # though they are strictly interior in exact arithmetic; round them one
    # ulp toward the interior instead.
    if c >= 1.0:
        return math.nextafter(1.0, 0.0)
    if c <= -1.0:
        return math.nextafter(-1.0, 0.0)
    return c


def unlift(z: Sequence[float], safe_set: SafeSet, family: FamilySpec) -> CoordinateFrame:
    """Map any finite lifted state back to a frame strictly inside the box.

    The squash range guarantees |x_i| < xi_max for every finite input, so
    this direction can never violate the constraints; inputs so large that
    the squash rounds to the boundary come back one ulp inside it.
    """
    z1, z2 = float(z[0]), float(z[1])
    if not (math.isfinite(z1) and math.isfinite(z2)):
        raise NonFiniteInput(f"cannot unlift non-finite state ({z1}, {z2})")
    fam1, fam2 = family_pair(family)
    xb1, xb2 = safe_set.x1_max, safe_set.x2_max
    zn1, zn2 = z1 / xb1, z2 / xb2
    c1, c2 = _interior(fam1.squash(zn1)), _interior(fam2.squash(zn2))
    x1, x2 = xb1 * c1, xb2 * c2
    # The product can still round back onto the boundary for some bounds.
    if abs(x1) >= xb1:
        x1 = math.nextafter(x1, 0.0)
    if abs(x2) >= xb2:
        x2 = math.nextafter(x2, 0.0)
    return CoordinateFrame(
        x=(x1, x2), xn=(c1, c2), z=(z1, z2), zn=(zn1, zn2))
