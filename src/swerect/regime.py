"""Base-state validation and flow-regime classification.

The linearized system's character is set entirely by three sign conditions on
the constant base state (u0, v0, phi0, g):

    u0^2 vs g*phi0,   v0^2 vs g*phi0,   Delta = u0^2 + v0^2 - g*phi0 vs 0.

Five generic regimes arise (equalities are rejected as degenerate):

    Supercritical             u0^2 > g*phi0 and v0^2 > g*phi0
    MixedHyperbolicI          u0^2 < g*phi0 and v0^2 > g*phi0
    MixedHyperbolicII         u0^2 > g*phi0 and v0^2 < g*phi0
    FullyHyperbolicSubcritical  both subcritical, Delta > 0
    MixedSubcritical          Delta < 0  (forces both subcritical)

Only strictly positive u0, v0 are accepted; mirrored sign conventions for
negative base velocities are out of scope.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateCase, InvalidValue, NonPositiveParameter, NotElliptic, NotHyperbolic
from .fields import is_real

#: Relative genericity tolerance: base states with any of the three sign
#: quantities within TAU_GEN * g * phi0 of zero are rejected, because the
#: characteristic transforms lose rank (and their condition number blows up)
#: at the regime boundaries.
TAU_GEN = 1e-9


class Regime(enum.Enum):
    SUPERCRITICAL = "Supercritical"
    MIXED_HYPERBOLIC_I = "MixedHyperbolicI"
    MIXED_HYPERBOLIC_II = "MixedHyperbolicII"
    FULLY_HYPERBOLIC_SUBCRITICAL = "FullyHyperbolicSubcritical"
    MIXED_SUBCRITICAL = "MixedSubcritical"

    def __str__(self) -> str:  # CLI-facing name
        return self.value


def _square(name: str, value: float) -> float:
    """value**2, as the sign quantities compute it; one out of float range
    is an InvalidValue naming it."""
    try:
        return value**2
    except OverflowError:
        raise InvalidValue(f"{name}^2 overflows a float: {name} = {value}") from None


@dataclass(frozen=True)
class PhysicalConstants:
    """Validated base state; construction enforces positivity, genericity and
    float range: u0^2, v0^2, g*phi0, u0^2 + v0^2, kappa^2 = g*|Delta|/phi0
    and the energy weight g/phi0 must all be finite, and kappa*(u0^2 + v0^2),
    |det Pinv| up to a factor 2, must not underflow to 0 nor overflow when
    doubled."""

    u0: float
    v0: float
    phi0: float
    g: float
    f: float = 0.0

    def __post_init__(self):
        for name in ("u0", "v0", "phi0", "g"):
            val = getattr(self, name)
            if not (val > 0) or not math.isfinite(val):
                raise NonPositiveParameter(f"{name} must be finite and > 0, got {val}")
        if not math.isfinite(self.f):
            raise NonPositiveParameter(f"f must be finite, got {self.f}")
        u2, v2, gp = _square("u0", self.u0), _square("v0", self.v0), self.g * self.phi0
        d = u2 + v2 - gp
        k2 = self.g * abs(d) / self.phi0
        # the transforms divide by kappa*(u0^2 + v0^2) and by twice it
        ks = math.sqrt(k2) * (u2 + v2)
        for name, value in (("g*phi0", gp), ("u0^2 + v0^2", u2 + v2), ("g*|Delta|/phi0", k2),
                            ("g/phi0", self.g / self.phi0), ("2*kappa*(u0^2 + v0^2)", 2.0 * ks)):
            if math.isinf(value):
                raise InvalidValue(f"{name} overflows a float for this base state")
        scale = TAU_GEN * self.g * self.phi0
        if abs(u2 - gp) <= scale:
            raise DegenerateCase("u0^2 ~ g*phi0 within genericity tolerance")
        if abs(v2 - gp) <= scale:
            raise DegenerateCase("v0^2 ~ g*phi0 within genericity tolerance")
        if abs(d) <= scale:
            raise DegenerateCase("u0^2 + v0^2 ~ g*phi0 within genericity tolerance")
        if ks == 0.0:
            raise InvalidValue("kappa*(u0^2 + v0^2) underflows to 0 for this base state")

    @property
    def sound_speed(self) -> float:
        return math.sqrt(self.g * self.phi0)


def validate_params(u0: float, v0: float, phi0: float, g: float, f: float = 0.0) -> PhysicalConstants:
    """Validate five raw scalars into a PhysicalConstants.

    Raises NonPositiveParameter for nonpositive u0/v0/phi0/g, InvalidValue
    naming the quantity when a derived scale overflows a float, and
    DegenerateCase when the state sits within the genericity tolerance of a
    regime boundary.
    """
    for name, value in zip(("u0", "v0", "phi0", "g", "f"), (u0, v0, phi0, g, f)):
        if not is_real(value):
            raise InvalidValue(f"{name} must be a real number, got {value!r}")
    return PhysicalConstants(float(u0), float(v0), float(phi0), float(g), float(f))


def delta(p: PhysicalConstants) -> float:
    """Discriminant u0^2 + v0^2 - g*phi0; its sign separates the transforms."""
    return p.u0**2 + p.v0**2 - p.g * p.phi0


def classify(p: PhysicalConstants) -> Regime:
    """Unique regime of a validated base state (no errors: boundaries already excluded)."""
    gp = p.g * p.phi0
    x_sup = p.u0**2 > gp
    y_sup = p.v0**2 > gp
    if x_sup and y_sup:
        return Regime.SUPERCRITICAL
    if (not x_sup) and y_sup:
        return Regime.MIXED_HYPERBOLIC_I
    if x_sup and not y_sup:
        return Regime.MIXED_HYPERBOLIC_II
    if delta(p) > 0:
        return Regime.FULLY_HYPERBOLIC_SUBCRITICAL
    return Regime.MIXED_SUBCRITICAL


def kappa0(p: PhysicalConstants) -> float:
    """sqrt(g*Delta/phi0), defined only for Delta > 0."""
    d = delta(p)
    if d <= 0:
        raise NotHyperbolic(f"kappa0 requires Delta > 0, got Delta = {d}")
    return math.sqrt(p.g * d / p.phi0)


def kappa1(p: PhysicalConstants) -> float:
    """sqrt(-g*Delta/phi0), defined only for Delta < 0."""
    d = delta(p)
    if d >= 0:
        raise NotElliptic(f"kappa1 requires Delta < 0, got Delta = {d}")
    return math.sqrt(-p.g * d / p.phi0)


class KappaValue(NamedTuple):
    value: float
    elliptic: bool  # True when the Delta < 0 branch applies


def kappa(p: PhysicalConstants) -> KappaValue:
    """The single positive wavenumber-like scale of the state's regime."""
    if delta(p) > 0:
        return KappaValue(kappa0(p), False)
    return KappaValue(kappa1(p), True)

