import dataclasses
import re

import numpy as np
import pytest

import swerect as sw
from swerect.errors import DegenerateCase, InvalidValue, NonPositiveParameter
from swerect.rng import SplitMix64

from helpers import (REGIME_CASES, REGIME_NAMES, draw_params, reference_classify, reference_delta,
                     reference_kappa0, reference_kappa1)


def test_classify_reference_states():
    for kind, case in REGIME_CASES.items():
        p = sw.validate_params(*case)
        assert str(sw.classify(p)) == REGIME_NAMES[kind]


def test_kappa_reference_values():
    # kappa0 = sqrt(g*Delta/phi0) at (3,3,1,9.81); kappa1 = sqrt(-g*Delta/phi0)
    # at (1,1,1,9.81); both frozen from the closed forms evaluated exactly
    p = sw.validate_params(3.0, 3.0, 1.0, 9.81)
    assert p.kappa == pytest.approx(8.963475888292443, rel=1e-15)
    p = sw.validate_params(1.0, 1.0, 1.0, 9.81)
    assert p.kappa == pytest.approx(8.753062321267912, rel=1e-15)


def test_nonpositive_parameters_rejected():
    for bad in ((0.0, 1, 1, 9.81), (1, -2.0, 1, 9.81), (1, 1, 0.0, 9.81), (1, 1, 1, 0.0)):
        with pytest.raises(NonPositiveParameter):
            sw.validate_params(*bad)


def test_degenerate_states_rejected():
    c = np.sqrt(9.81)
    with pytest.raises(DegenerateCase):
        sw.validate_params(c, 1.0, 1.0, 9.81)  # u0^2 = g*phi0
    with pytest.raises(DegenerateCase):
        sw.validate_params(1.0, c, 1.0, 9.81)  # v0^2 = g*phi0
    with pytest.raises(DegenerateCase):
        sw.validate_params(c / np.sqrt(2), c / np.sqrt(2), 1.0, 9.81)  # Delta = 0


@pytest.mark.parametrize("args, name", [
    ((1e200, 1, 1, 9.81), "u0^2 overflows a float: u0 = 1e+200"),
    ((1, 1e200, 1, 9.81), "v0^2 overflows a float: v0 = 1e+200"),
    ((1e154, 1e154, 1, 9.81), "u0^2 + v0^2 overflows a float"),
    ((1, 1, 1e200, 1e200), "g*phi0 overflows a float"),
    ((2, 2, 1e-200, 1e200), "g*|Delta|/phi0 overflows a float"),
    ((1e-6, 1e-6, 1e-160, 1e150), "g/phi0 overflows a float"),
    ((1e-200, 1e-200, 1, 9.81), "kappa*(u0^2 + v0^2) underflows to 0"),
    ((1, 1, 1e10, 1e-320), "kappa*(u0^2 + v0^2) underflows to 0"),
    ((3.4e42, 1.1e135, 5.4e93, 3.7e-94), "2*kappa*(u0^2 + v0^2) overflows a float"),
])
def test_out_of_range_base_states_rejected(args, name):
    """A derived scale out of float range is an InvalidValue naming it, not
    a bare OverflowError from u0**2, an inf that reaches kappa or S0, or a
    division by a det(Pinv) that underflowed to 0 or overflowed (which made
    every characteristic speed 0)."""
    with pytest.raises(InvalidValue, match="^" + re.escape(name)):
        sw.validate_params(*args)


@pytest.mark.parametrize("args, message", [
    ((1e153, 1e153, 1e300, 1e-290), "g/phi0 underflows to 0 for this base state"),
    ((2.0, 2.0, 1e155, 1e-155), "phi0/g overflows a float for this base state"),
])
def test_energy_weight_out_of_float_range_rejected(args, message):
    """The energy weight g/phi0 must be nonzero and its inverse finite.  The
    first state validated as Supercritical although g/phi0 underflowed to
    0, and its flux split then failed inside LAPACK; a subnormal weight
    such as 1e-310 overflows the projection's 1/S0."""
    with pytest.raises(InvalidValue, match="^" + re.escape(message) + "$"):
        sw.validate_params(*args)


def test_genericity_tolerance_is_relative():
    g, phi0 = 9.81, 1.0
    c = np.sqrt(g * phi0)
    # |u0^2 - g phi0| around 1e-9 * g phi0: just inside fails, well outside passes
    with pytest.raises(DegenerateCase):
        sw.validate_params(c * np.sqrt(1 + 1e-10), 1.0, phi0, g)
    sw.validate_params(c * np.sqrt(1 + 1e-6), 1.0, phi0, g)


def test_delta_matches_definition_on_draws():
    rng = SplitMix64(5)
    for kind in REGIME_CASES:
        for _ in range(50):
            p = draw_params(kind, rng)
            assert p.delta == pytest.approx(
                p.u0**2 + p.v0**2 - p.g * p.phi0, rel=1e-14
            )


def test_classification_matches_inequalities_on_draws():
    rng = SplitMix64(17)
    for kind, want in REGIME_NAMES.items():
        for _ in range(200):
            p = draw_params(kind, rng)
            assert str(sw.classify(p)) == want


@pytest.mark.parametrize("seed, decades", [(7, 170), (8, 300), (9, 3)])
def test_validation_derives_regime_delta_and_kappa_exactly(seed, decades):
    """Validation keeps Delta, kappa and the regime its rules compute; on
    log-uniform draws of (u0, v0, phi0, g) they equal the standalone
    derivations bit for bit (kappa0 when Delta > 0, kappa1 when Delta < 0)."""
    draws = 10.0 ** np.random.default_rng(seed).uniform(-decades, decades, size=(2000, 4))
    seen = set()
    for raw in draws:
        try:
            p = sw.validate_params(*raw)
        except sw.SweRectError:
            continue
        assert p.delta == reference_delta(p), p
        assert p.kappa == (reference_kappa0(p) if p.delta > 0 else reference_kappa1(p)), p
        assert p.regime is reference_classify(p) and sw.classify(p) is p.regime, p
        seen.add(p.regime)
    assert len(seen) >= 4


def test_derived_fields_stay_out_of_equality_hash_and_repr():
    p, q = sw.validate_params(1, 1, 1, 9.81, 0.0), sw.validate_params(1, 1, 1, 9.81, -0.0)
    assert p == q and hash(p) == hash(q)
    assert repr(p) == "PhysicalConstants(u0=1.0, v0=1.0, phi0=1.0, g=9.81, f=0.0)"
    assert repr(q) == "PhysicalConstants(u0=1.0, v0=1.0, phi0=1.0, g=9.81, f=-0.0)"


def test_replace_derives_the_new_state():
    p = sw.validate_params(1.0, 1.0, 1.0, 9.81)
    q = dataclasses.replace(p, u0=4.0)
    want = sw.validate_params(4.0, 1.0, 1.0, 9.81)
    assert p.regime is sw.Regime.MIXED_SUBCRITICAL
    assert q.regime is want.regime is sw.Regime.MIXED_HYPERBOLIC_II
    assert (q.delta, q.kappa) == (want.delta, want.kappa) != (p.delta, p.kappa)


def test_sound_speed():
    p = sw.validate_params(1.0, 1.0, 2.0, 8.0)
    assert p.sound_speed == pytest.approx(4.0, rel=1e-15)


def test_constants_are_frozen():
    p = sw.validate_params(1.0, 1.0, 1.0, 9.81)
    with pytest.raises(AttributeError):
        p.u0 = 2.0
