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
from dataclasses import dataclass, field

from .errors import DegenerateCase, InvalidValue, NonPositiveParameter
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
    and the energy weight g/phi0 must all be finite, kappa*(u0^2 + v0^2),
    |det Pinv| up to a factor 2, must not underflow to 0 nor overflow when
    doubled, and g/phi0 must not underflow to 0 nor phi0/g overflow.

    The rules' own Delta = u0^2 + v0^2 - g*phi0, kappa = sqrt(g*|Delta|/phi0)
    (kappa0 when Delta > 0, kappa1 when Delta < 0) and the regime their
    signs decide are kept as delta, kappa and regime, which every other
    module reads; equality, hash and repr read only the five inputs."""

    u0: float
    v0: float
    phi0: float
    g: float
    f: float = 0.0
    delta: float = field(init=False, repr=False, compare=False)
    kappa: float = field(init=False, repr=False, compare=False)
    regime: Regime = field(init=False, repr=False, compare=False)

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
        k = math.sqrt(k2)
        # the transforms divide by kappa*(u0^2 + v0^2) and by twice it
        ks = k * (u2 + v2)
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
        # the energy weight, which the operator's flux split takes the root
        # of, and its inverse, which the boundary projection multiplies by
        if self.g / self.phi0 == 0.0:
            raise InvalidValue("g/phi0 underflows to 0 for this base state")
        if math.isinf(self.phi0 / self.g):
            raise InvalidValue("phi0/g overflows a float for this base state")
        if u2 > gp:
            regime = Regime.SUPERCRITICAL if v2 > gp else Regime.MIXED_HYPERBOLIC_II
        elif v2 > gp:
            regime = Regime.MIXED_HYPERBOLIC_I
        else:
            regime = Regime.FULLY_HYPERBOLIC_SUBCRITICAL if d > 0 else Regime.MIXED_SUBCRITICAL
        for name, value in (("delta", d), ("kappa", k), ("regime", regime)):
            object.__setattr__(self, name, value)

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


def classify(p: PhysicalConstants) -> Regime:
    """Unique regime of a validated base state, as validation decided it."""
    return p.regime
