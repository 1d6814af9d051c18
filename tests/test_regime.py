import re

import numpy as np
import pytest

import swerect as sw
from swerect.errors import (DegenerateCase, InvalidValue, NonPositiveParameter, NotElliptic,
                            NotHyperbolic)
from swerect.rng import SplitMix64

from helpers import REGIME_CASES, REGIME_NAMES, draw_params


def test_classify_reference_states():
    for kind, case in REGIME_CASES.items():
        p = sw.validate_params(*case)
        assert str(sw.classify(p)) == REGIME_NAMES[kind]


def test_kappa_reference_values():
    # kappa0 = sqrt(g*Delta/phi0) at (3,3,1,9.81); kappa1 = sqrt(-g*Delta/phi0)
    # at (1,1,1,9.81); both frozen from the closed forms evaluated exactly
    p = sw.validate_params(3.0, 3.0, 1.0, 9.81)
    assert sw.kappa0(p) == pytest.approx(8.963475888292443, rel=1e-15)
    p = sw.validate_params(1.0, 1.0, 1.0, 9.81)
    assert sw.kappa1(p) == pytest.approx(8.753062321267912, rel=1e-15)


def test_kappa_dispatch():
    p_h = sw.validate_params(3.0, 3.0, 1.0, 9.81)
    k = sw.kappa(p_h)
    assert not k.elliptic and k.value == sw.kappa0(p_h)
    p_e = sw.validate_params(1.0, 1.0, 1.0, 9.81)
    k = sw.kappa(p_e)
    assert k.elliptic and k.value == sw.kappa1(p_e)


def test_kappa_regime_guards():
    with pytest.raises(NotHyperbolic):
        sw.kappa0(sw.validate_params(1.0, 1.0, 1.0, 9.81))
    with pytest.raises(NotElliptic):
        sw.kappa1(sw.validate_params(2.5, 2.5, 1.0, 9.81))


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
            assert sw.delta(p) == pytest.approx(
                p.u0**2 + p.v0**2 - p.g * p.phi0, rel=1e-14
            )


def test_classification_matches_inequalities_on_draws():
    rng = SplitMix64(17)
    for kind, want in REGIME_NAMES.items():
        for _ in range(200):
            p = draw_params(kind, rng)
            assert str(sw.classify(p)) == want


def test_sound_speed():
    p = sw.validate_params(1.0, 1.0, 2.0, 8.0)
    assert p.sound_speed == pytest.approx(4.0, rel=1e-15)


def test_constants_are_frozen():
    p = sw.validate_params(1.0, 1.0, 1.0, 9.81)
    with pytest.raises(AttributeError):
        p.u0 = 2.0
