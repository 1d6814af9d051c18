import numpy as np
import pytest

import swerect as sw
from swerect.algebra import coefficient_matrices, flux_forms
from swerect.errors import InvalidValue, NotElliptic, NotHyperbolic
from swerect.rng import SplitMix64

from helpers import REGIME_CASES, draw_params, params

HYPERBOLIC = ("super", "mix1", "mix2", "fhs")


def test_coefficient_matrices_entries():
    p = params("fhs")
    m = coefficient_matrices(p)
    E1 = np.array([[p.u0, 0, p.g], [0, p.u0, 0], [p.phi0, 0, p.u0]])
    E2 = np.array([[p.v0, 0, 0], [0, p.v0, p.g], [0, p.phi0, p.v0]])
    assert np.array_equal(m.E1, E1)
    assert np.array_equal(m.E2, E2)
    assert np.array_equal(m.S0, np.diag([1.0, 1.0, p.g / p.phi0]))


def test_symmetrizer_symmetrizes_both_matrices():
    rng = SplitMix64(3)
    for kind in REGIME_CASES:
        for _ in range(20):
            p = draw_params(kind, rng)
            m = coefficient_matrices(p)
            for E in (m.E1, m.E2):
                SE = m.S0 @ E
                assert np.max(np.abs(SE - SE.T)) < 1e-12 * np.max(np.abs(SE))


def test_char_transform_reference_values():
    # frozen closed forms at (3, 3, 1, 9.81): s = 18, a3 = u0/s, lam3 = u0/v0,
    # and Pinv applied to (1, 0, 0) picks the first column (v0, v0, u0)
    p = sw.validate_params(3.0, 3.0, 1.0, 9.81)
    t = sw.hyperbolic_transform(p)
    k0 = p.kappa
    assert p.kappa == pytest.approx(8.963475888292443, rel=1e-15)
    assert np.allclose(t.Pinv[0], [3.0, -3.0, k0], rtol=1e-15)
    assert np.allclose(t.Pinv[1], [3.0, -3.0, -k0], rtol=1e-15)
    assert np.allclose(t.Pinv[2], [3.0, 3.0, 9.81], rtol=1e-15)
    assert t.a[2] == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert t.lam[2] == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(t.Pinv @ np.array([1.0, 0.0, 0.0]), [3.0, 3.0, 3.0], rtol=1e-15)


def test_transform_inverse_consistency():
    """P is written in closed form, not inverted: in every regime it matches
    np.linalg.inv of Pinv entry for entry, and Pinv @ P is the identity."""
    rng = SplitMix64(11)
    for kind in REGIME_CASES:
        for _ in range(200):
            p = draw_params(kind, rng)
            t = sw.elliptic_transform(p) if kind == "msub" else sw.hyperbolic_transform(p)
            ref = np.linalg.inv(t.Pinv)
            assert np.max(np.abs(t.P - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.max(np.abs(t.Pinv @ t.P - np.eye(3))) <= 1e-13


@pytest.mark.parametrize("args", [
    (1e-100, 1e120, 1.0, 1e-300),  # Supercritical, a[2] = u0/s ~ 1e-340
    (1e120, 1e-100, 1.0, 1e-300),  # Supercritical, b[2] = v0/s ~ 1e-340
])
def test_underflowing_speed_is_rejected(args):
    """A state that validates but has a characteristic speed below the float
    range gets no transform: a speed of 0 would enter through no side."""
    p = sw.validate_params(*args)
    with pytest.raises(InvalidValue, match="^a characteristic speed underflows to 0"):
        sw.hyperbolic_transform(p)


def test_characteristic_round_trip_on_fields():
    rng = SplitMix64(23)
    p = params("fhs")
    t = sw.hyperbolic_transform(p)
    U = rng.doubles(3 * 12 * 9).reshape(3, 12, 9)
    back = sw.from_characteristic(sw.to_characteristic(U, t), t)
    assert np.max(np.abs(back - U)) < 1e-12


def test_sign_laws_on_draws():
    """a1, a3, b2, b3 always positive; a2 follows sign(u0^2 - g phi0) and
    b1 follows sign(v0^2 - g phi0)."""
    rng = SplitMix64(31)
    for kind in HYPERBOLIC:
        for _ in range(200):
            p = draw_params(kind, rng)
            t = sw.hyperbolic_transform(p)
            a, b = t.a, t.b
            assert a[0] > 0 and a[2] > 0 and b[1] > 0 and b[2] > 0
            assert np.sign(a[1]) == np.sign(p.u0**2 - p.g * p.phi0)
            assert np.sign(b[0]) == np.sign(p.v0**2 - p.g * p.phi0)


def test_congruence_diagonalization_hyperbolic():
    rng = SplitMix64(47)
    for kind in HYPERBOLIC:
        for _ in range(25):
            p = draw_params(kind, rng)
            m = coefficient_matrices(p)
            t = sw.hyperbolic_transform(p)
            da = t.P.T @ (m.S0 @ m.E1) @ t.P
            db = t.P.T @ (m.S0 @ m.E2) @ t.P
            assert np.max(np.abs(da - np.diag(t.a))) < 1e-10 * np.max(np.abs(da))
            assert np.max(np.abs(db - np.diag(t.b))) < 1e-10 * np.max(np.abs(db))


def test_similarity_eigenvalues_hyperbolic():
    # P^-1 (E2^-1 E1) P = diag(lam) whenever E2 is invertible (v0^2 != g phi0)
    rng = SplitMix64(53)
    for kind in HYPERBOLIC:
        for _ in range(25):
            p = draw_params(kind, rng)
            m = coefficient_matrices(p)
            t = sw.hyperbolic_transform(p)
            sim = t.Pinv @ np.linalg.solve(m.E2, m.E1) @ t.P
            assert np.max(np.abs(sim - np.diag(t.lam))) < 1e-9 * max(np.max(np.abs(t.lam)), 1)


def test_elliptic_transform_block_values():
    p = params("msub")
    t = sw.elliptic_transform(p)
    s = p.u0**2 + p.v0**2
    k1 = p.kappa
    assert np.allclose(t.blockX, np.array([[p.u0, p.g * p.v0 / k1],
                                           [p.g * p.v0 / k1, -p.u0]]) / s, rtol=1e-14)
    assert np.allclose(t.blockY, np.array([[p.v0, -p.g * p.u0 / k1],
                                           [-p.g * p.u0 / k1, -p.v0]]) / s, rtol=1e-14)
    assert np.allclose(t.zeta_speed, [p.u0 / s, p.v0 / s], rtol=1e-15)


def test_verify_diagonalization_all_regimes():
    for kind in REGIME_CASES:
        rep = sw.verify_diagonalization(params(kind))
        assert rep.passed, rep.residuals
        assert rep.max_residual < 1e-12


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, True])
def test_verify_diagonalization_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    """A nan tolerance failed every state, inf passed every state and -1
    failed every state; True counted as 1."""
    with pytest.raises(InvalidValue, match="^tol must be "):
        sw.verify_diagonalization(params("fhs"), tol=tol)


def test_similarity_check_solves_nothing():
    """The similarity residual compares E1 P with E2 P diag(lam).  At this
    state E2's entries span 1e-64 to 1e101, and the former check through
    np.linalg.solve(E2, E1) read 1.0 although the transform holds to
    round-off."""
    p = sw.validate_params(2.1075465984466066e-132, 1.116911008777928e+43,
                           1.3670349706134247e+101, 4.6270104544481676e-64)
    rep = sw.verify_diagonalization(p)
    assert rep.residuals["similarity"] < 1e-15
    assert rep.passed, rep.residuals


def test_similarity_check_reports_a_transform_that_misses():
    """At this state the float P and lam miss E1 P = E2 P diag(lam) by
    1.7e-6, column-relative, also in 60-digit arithmetic; the former check
    through np.linalg.solve(E2, E1) read 1.4e-13 and passed."""
    p = sw.validate_params(2.880528616291078e-50, 9.566569475751031e-167,
                           8.228692919621886e-155, 1.6823446807029773e-164)
    rep = sw.verify_diagonalization(p)
    assert rep.residuals["similarity"] > 1e-7
    assert not rep.passed


def test_transform_regime_guards():
    with pytest.raises(NotHyperbolic):
        sw.hyperbolic_transform(params("msub"))
    with pytest.raises(NotElliptic):
        sw.elliptic_transform(params("fhs"))


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_memoized_derivations_match_fresh_and_are_read_only(kind):
    """The four per-state derivations are memoized: a repeated call hands
    back the same object, equal to an uncached derivation, and the arrays
    every caller shares cannot be written."""
    derivations = [coefficient_matrices, flux_forms, sw.elliptic_transform if kind == "msub"
                   else sw.hyperbolic_transform]
    rng = SplitMix64(29)
    for _ in range(20):
        base = draw_params(kind, rng)
        for f in (0.0, -0.0, 3.0):
            p = sw.validate_params(base.u0, base.v0, base.phi0, base.g, f)
            for derive in derivations:
                cached, fresh = derive(p), derive.__wrapped__(p)
                assert derive(p) is cached
                for name, value in vars(fresh).items():
                    got = getattr(cached, name)
                    if isinstance(value, np.ndarray):
                        assert np.array_equal(got, value), (derive.__name__, name)
                        assert not got.flags.writeable
                        with pytest.raises(ValueError):
                            got[0] = 1.0
                    else:
                        assert got == value, (derive.__name__, name)


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_flux_forms_are_the_scaled_symmetric_half_products(kind):
    """flux_forms holds S0*E1 and S0*E2, and each form is the symmetric
    part of half the product scaled to unit max norm: exactly a side's
    outward form up to a +-1 factor, in either orientation."""
    rng = SplitMix64(31)
    for _ in range(20):
        p = draw_params(kind, rng)
        ff, m = flux_forms(p), coefficient_matrices(p)
        for prod, form, E in ((ff.S0E1, ff.F1, m.E1), (ff.S0E2, ff.F2, m.E2)):
            assert prod.tobytes() == (m.S0 @ E).tobytes()
            for sign in (1.0, -1.0):
                half = sign * (0.5 * (m.S0 @ E))
                F = 0.5 * (half + half.T)
                assert (sign * form).tobytes() == (F / float(np.abs(F).max())).tobytes()
            assert np.abs(form).max() == 1.0 and np.array_equal(form, form.T)
