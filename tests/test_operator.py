import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swerect as sw
from swerect.algebra import coefficient_matrices
from swerect.errors import InvalidValue
from swerect.fields import StateField, inner_product
from swerect.operator import DiscreteOperator, flux_split
from swerect.rng import SplitMix64

from helpers import (
    REGIME_CASES,
    compatible_pair,
    draw_params,
    duality_residual,
    params,
    reference_apply_adjoint_stack,
    reference_apply_stack,
)


def test_flux_split_reconstructs_and_signs():
    rng = SplitMix64(2)
    for kind in REGIME_CASES:
        for _ in range(10):
            p = draw_params(kind, rng)
            m = coefficient_matrices(p)
            for E in (m.E1, m.E2):
                Ep, Em = flux_split(E, m.S0)
                assert np.max(np.abs(Ep + Em - E)) < 1e-12 * np.max(np.abs(E))
                # S0-similarity makes the halves definite
                sh = np.sqrt(np.diag(m.S0))
                for M, sgn in ((Ep, 1.0), (Em, -1.0)):
                    Ms = (M * sh[:, None]) / sh[None, :]
                    w = np.linalg.eigvalsh(0.5 * (Ms + Ms.T))
                    assert np.min(sgn * w) > -1e-11 * max(np.max(np.abs(w)), 1.0)


def test_flux_split_eigenvalues_are_wave_speeds():
    p = params("fhs")
    m = coefficient_matrices(p)
    Ep, Em = flux_split(m.E1, m.S0)
    c = p.sound_speed
    want = sorted([p.u0, p.u0 - c, p.u0 + c])
    got = sorted(np.linalg.eigvals(Ep + Em).real)
    assert np.allclose(got, want, rtol=1e-12)


def test_coriolis_term_antisymmetric():
    p = sw.validate_params(1.0, 1.0, 1.0, 9.81, f=0.7)
    grid = sw.Grid(1.0, 1.0, 14, 11)
    rng = SplitMix64(13)
    U = StateField(*sw.band_limited_fields(rng, 14, 11))
    V = StateField(*sw.band_limited_fields(rng, 14, 11))
    lhs = inner_product(sw.apply_B(U, p), V, grid, p.g, p.phi0)
    rhs = inner_product(U, sw.apply_B(V, p), grid, p.g, p.phi0)
    assert abs(lhs + rhs) < 1e-13


def test_energy_value_matches_inner_product():
    p = params("msub")
    grid = sw.Grid(2.0, 1.0, 10, 8)
    rng = SplitMix64(8)
    U = StateField(*sw.band_limited_fields(rng, 10, 8))
    assert sw.energy_value(U, grid, p) == pytest.approx(
        inner_product(U, U, grid, p.g, p.phi0), rel=1e-14
    )


def test_apply_A_matches_operator_stack():
    p = params("mix1")
    grid = sw.Grid(1.0, 1.5, 12, 14)
    rng = SplitMix64(21)
    U = StateField(*sw.band_limited_fields(rng, 12, 14))
    op = DiscreteOperator(p, grid)
    direct = sw.apply_A(U, p, grid).stack()
    assert np.array_equal(direct, op.apply_stack(U.stack()))


KERNEL_GRIDS = {
    "4x4": sw.Grid(1.0, 1.0, 4, 4),
    "5x9": sw.Grid(1.0, 1.5, 5, 9),
    "33x33": sw.Grid(1.0, 1.0, 33, 33),
    "65x33": sw.Grid(1.0, 1.0, 65, 33),
}


def _assert_kernel_matches_reference(p, grid, W):
    op = DiscreteOperator(p, grid)
    assert np.array_equal(op.apply_stack(W), reference_apply_stack(op, W))
    assert np.array_equal(op.apply_adjoint_stack(W), reference_apply_adjoint_stack(op, W))


@pytest.mark.parametrize("grid_name", sorted(KERNEL_GRIDS))
@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_kernel_matches_reference(kind, grid_name):
    grid = KERNEL_GRIDS[grid_name]
    W = sw.band_limited_fields(SplitMix64(13), grid.nx, grid.ny)
    _assert_kernel_matches_reference(params(kind), grid, W)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(REGIME_CASES)),
    nx=st.integers(4, 20), ny=st.integers(4, 20),
    l1=st.floats(0.1, 5.0), l2=st.floats(0.1, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_reference_property(kind, nx, ny, l1, l2, seed):
    rng = SplitMix64(seed)
    p = draw_params(kind, rng)
    W = rng.doubles(3 * nx * ny).reshape(3, nx, ny) - 0.5
    _assert_kernel_matches_reference(p, sw.Grid(l1, l2, nx, ny), W)


def test_duality_residual_halves_one_regime():
    p = params("fhs")
    resids = []
    for n in (17, 33, 65):
        grid = sw.Grid(1.0, 1.0, n, n)
        U, V = compatible_pair("fhs", p, grid)
        resids.append(duality_residual(p, grid, U, V))
    for k in range(2):
        ratio = resids[k + 1] / resids[k]
        assert 0.35 <= ratio <= 0.65, resids


def test_band_limited_fields_deterministic_and_normalized():
    a = sw.band_limited_fields(SplitMix64(42), 24, 20)
    b = sw.band_limited_fields(SplitMix64(42), 24, 20)
    assert np.array_equal(a, b)
    assert a.shape == (3, 24, 20)
    assert np.max(np.abs(a)) == pytest.approx(1.0, rel=1e-12)
    c = sw.band_limited_fields(SplitMix64(43), 24, 20)
    assert not np.array_equal(a, c)


def test_positivity_probe_small_grids():
    rng_seed = 11
    for kind in REGIME_CASES:
        p = params(kind)
        rep = sw.positivity_probe(p, sw.classify(p), sw.Grid(1.0, 1.0, 24, 24), 30, rng_seed)
        assert rep.passed, (kind, rep.min_quotient, rep.threshold)
        assert rep.n_samples == 30


@pytest.mark.parametrize("n_samples", [0, -5])
def test_positivity_probe_needs_a_sample(n_samples):
    p = params("super")
    with pytest.raises(InvalidValue, match="at least one sample"):
        sw.positivity_probe(p, sw.classify(p), sw.Grid(1.0, 1.0, 8, 8), n_samples, 0)


def test_boundary_forms_restricted_nonnegative():
    rng = SplitMix64(70)
    worst = np.inf
    for kind in REGIME_CASES:
        for _ in range(100):
            p = draw_params(kind, rng)
            regime = sw.classify(p)
            for adjoint in (False, True):
                forms = sw.boundary_quadratic_forms(p, regime, adjoint=adjoint)
                for side, form in forms.items():
                    if form.eigenvalues.size:
                        worst = min(worst, float(np.min(form.eigenvalues)))
    assert worst >= -1e-12
    assert worst > 0  # catalogs are strictly dissipative on generic draws


def test_boundary_forms_full_sides_have_no_free_directions():
    # a Dirichlet side constrains everything: nothing left to restrict
    p = params("super")
    forms = sw.boundary_quadratic_forms(p, sw.classify(p))
    assert forms[sw.Side.WEST].eigenvalues.size == 0
    assert forms[sw.Side.SOUTH].eigenvalues.size == 0
    assert forms[sw.Side.EAST].eigenvalues.size == 3
    assert forms[sw.Side.NORTH].eigenvalues.size == 3
