import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import swerect as sw
from swerect.algebra import coefficient_matrices
from swerect.errors import DegenerateCase, InvalidValue, NonFinite, ShapeMismatch
from swerect.fields import StateField, inner_product, trapezoid
from swerect.operator import DiscreteOperator, flux_split
from swerect.rng import SplitMix64

from helpers import (
    REGIME_CASES,
    compatible_pair,
    draw_params,
    duality_residual,
    former_apply_stack,
    params,
    reference_apply_adjoint_stack,
    reference_apply_stack,
    reference_boundary_quadratic_forms,
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
    U = sw.band_limited_fields(rng, 14, 11)
    V = sw.band_limited_fields(rng, 14, 11)
    lhs = inner_product(StateField(*sw.apply_B(U, p)), StateField(*V), grid, p.g, p.phi0)
    rhs = inner_product(StateField(*U), StateField(*sw.apply_B(V, p)), grid, p.g, p.phi0)
    assert abs(lhs + rhs) < 1e-13


def test_energy_value_matches_inner_product():
    p = params("msub")
    grid = sw.Grid(2.0, 1.0, 10, 8)
    rng = SplitMix64(8)
    U = StateField(*sw.band_limited_fields(rng, 10, 8))
    assert sw.energy_value(U, grid, p) == pytest.approx(
        inner_product(U, U, grid, p.g, p.phi0), rel=1e-14
    )


KERNEL_GRIDS = {
    "4x4": sw.Grid(1.0, 1.0, 4, 4),
    "5x9": sw.Grid(1.0, 1.5, 5, 9),
    "33x33": sw.Grid(1.0, 1.0, 33, 33),
    "65x33": sw.Grid(1.0, 1.0, 65, 33),
    # over the row-block budget: 4, 2 and 2 blocks
    "257x257": sw.Grid(1.0, 1.0, 257, 257),
    "300x100": sw.Grid(3.0, 1.0, 300, 100),
    "100x300": sw.Grid(1.0, 3.0, 100, 300),
}


def _assert_same_bytes(got, want):
    # byte equality: unlike array_equal it tells -0.0 from +0.0 and NaN payloads apart
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _assert_kernel_matches_reference(p, grid, W):
    op = DiscreteOperator(p, grid)
    _assert_same_bytes(op.apply_stack(W), reference_apply_stack(op, W))
    _assert_same_bytes(op.apply_adjoint_stack(W), reference_apply_adjoint_stack(op, W))


def _block_sweep(op, W):
    """A_h W from one block apply per fields.row_blocks block, each with
    the rows beside it, as the time stepper sweeps a stage."""
    _, nx, ny = W.shape
    out = np.full(W.shape, np.nan)
    for r0, r1 in sw.fields.row_blocks(nx, ny):
        op.apply_stack(W[:, r0:r1], out[:, r0:r1], west=W[:, r0 - 1] if r0 else None,
                       east=W[:, r1] if r1 < nx else None)
    return out


@pytest.mark.parametrize("grid_name", sorted(KERNEL_GRIDS))
@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_kernel_matches_reference(kind, grid_name):
    grid = KERNEL_GRIDS[grid_name]
    W = sw.band_limited_fields(SplitMix64(13), grid.nx, grid.ny)
    _assert_kernel_matches_reference(params(kind), grid, W)


THIN_GRIDS = {
    "4x23": sw.Grid(1.0, 2.0, 4, 23),
    "23x4": sw.Grid(2.0, 1.0, 23, 4),
    "5x4001": sw.Grid(1.0, 8.0, 5, 4001),
    "4001x5": sw.Grid(8.0, 1.0, 4001, 5),
}


@pytest.mark.parametrize("grid_name", sorted(THIN_GRIDS))
@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_kernel_matches_reference_on_thin_grids(kind, grid_name):
    grid = THIN_GRIDS[grid_name]
    W = sw.band_limited_fields(SplitMix64(17), grid.nx, grid.ny)
    _assert_kernel_matches_reference(params(kind), grid, W)


@pytest.mark.parametrize("grid_name", sorted(KERNEL_GRIDS) + sorted(THIN_GRIDS))
@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_kernel_matches_former_formula_to_round_off(kind, grid_name):
    """1/h folded into the split matrices moves A_h W and A*_h W only at
    round-off from differences divided by h, then one einsum per term."""
    grid = {**KERNEL_GRIDS, **THIN_GRIDS}[grid_name]
    op = DiscreteOperator(params(kind), grid)
    W = sw.band_limited_fields(SplitMix64(29), grid.nx, grid.ny)
    for got, adjoint in ((op.apply_stack(W), False), (op.apply_adjoint_stack(W), True)):
        want = former_apply_stack(op, W, adjoint)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), adjoint


@pytest.mark.parametrize("layout", ["fortran", "sliced", "reversed"])
@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_kernel_matches_reference_on_non_contiguous_stacks(kind, layout):
    grid = KERNEL_GRIDS["5x9"]
    nx, ny = grid.nx, grid.ny
    rng = SplitMix64(19)
    if layout == "fortran":
        W = np.asfortranarray(sw.band_limited_fields(rng, nx, ny))
    elif layout == "sliced":
        W = sw.band_limited_fields(rng, 2 * nx, ny + 3)[:, ::2, 2:2 + ny]
    else:
        W = sw.band_limited_fields(rng, nx, ny)[:, ::-1, ::-1]
    assert not W.flags.c_contiguous
    _assert_kernel_matches_reference(params(kind), grid, W)


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_kernel_out_path_matches_reference(kind):
    # 300x100 is over the row-block budget, so the stepper sweeps it in
    # two blocks; the whole-stack apply is one pass on either grid
    for grid_name in ("65x33", "300x100"):
        grid = KERNEL_GRIDS[grid_name]
        op = DiscreteOperator(params(kind), grid)
        W = sw.band_limited_fields(SplitMix64(23), grid.nx, grid.ny)
        want = reference_apply_stack(op, W)
        out = np.full_like(W, np.nan)
        assert op.apply_stack(W, out=out) is out
        _assert_same_bytes(out, want)
        # every difference is taken before out is written, so out may be W itself
        V = W.copy()
        assert op.apply_stack(V, out=V) is V
        _assert_same_bytes(V, want)


def test_kernel_out_in_any_layout():
    """A strided ``out`` gets the bytes a C-ordered one gets; an ``out`` of
    another shape is refused, even one with as many elements."""
    grid = KERNEL_GRIDS["5x9"]
    op = DiscreteOperator(params("msub"), grid)
    W = sw.band_limited_fields(SplitMix64(31), grid.nx, grid.ny)
    want = reference_apply_stack(op, W)
    for out in (np.empty(W.shape, order="F"), np.empty((3, 2 * grid.nx, grid.ny))[:, ::2]):
        assert op.apply_stack(W, out=out) is out
        _assert_same_bytes(np.ascontiguousarray(out), want)
    for shape in ((3, grid.ny, grid.nx), (3, grid.nx, grid.ny + 1)):
        with pytest.raises(ShapeMismatch):
            op.apply_stack(W, out=np.empty(shape))


# Warning parity with the per-row y difference.  On a 6x5 grid over
# [0, 10]^2, with the first y column at +1e308 and the last at -1e308, no
# real difference overflows, while W[i+1, 0] - W[i, ny-1] would.


def _row_crossing_extreme():
    W = np.zeros((3, 6, 5))
    W[:, :, 0], W[:, :, -1] = 1e308, -1e308
    return W


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_kernel_ignores_overflow_between_rows(kind):
    op = DiscreteOperator(params(kind), sw.Grid(10.0, 10.0, 6, 5))
    W = _row_crossing_extreme()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = op.apply_stack(W), op.apply_adjoint_stack(W)
        with np.errstate(all="raise"):
            raised = op.apply_stack(W), op.apply_adjoint_stack(W)
    want = reference_apply_stack(op, W), reference_apply_adjoint_stack(op, W)
    for a, b, c in zip(got, raised, want):
        _assert_same_bytes(a, c)
        _assert_same_bytes(b, c)


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_kernel_ignores_overflow_between_blocks(kind):
    """The one overflowing row-crossing pair straddles a block edge: only
    the whole-grid difference would compute it, and neither warns."""
    grid = sw.Grid(1e4, 1e4, 257, 257)
    edge = sw.fields.row_blocks(grid.nx, grid.ny)[1][0]
    op = DiscreteOperator(params(kind), grid)
    W = np.zeros((3, grid.nx, grid.ny))
    W[:, edge - 1, -1], W[:, edge, 0] = -1e308, 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = op.apply_stack(W), op.apply_adjoint_stack(W)
        with np.errstate(all="raise"):
            raised = op.apply_stack(W), op.apply_adjoint_stack(W)
    want = reference_apply_stack(op, W), reference_apply_adjoint_stack(op, W)
    for a, b, c in zip(got, raised, want):
        _assert_same_bytes(a, c)
        _assert_same_bytes(b, c)
    # the stepper's sweep: each block's flat y difference ends at its own
    # last row, so no block computes the straddling pair either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        swept = _block_sweep(op, W)
        with np.errstate(all="raise"):
            swept_raised = _block_sweep(op, W)
    _assert_same_bytes(swept, want[0])
    _assert_same_bytes(swept_raised, want[0])


def test_kernel_warns_on_a_real_y_overflow():
    op = DiscreteOperator(params("fhs"), sw.Grid(10.0, 10.0, 6, 5))
    W = np.zeros((3, 6, 5))
    W[:, :, 2], W[:, :, 3] = 1e308, -1e308
    for apply, reference in ((op.apply_stack, reference_apply_stack),
                             (op.apply_adjoint_stack, reference_apply_adjoint_stack)):
        with pytest.warns(RuntimeWarning, match="overflow encountered in subtract") as rec:
            got = apply(W)
        assert [str(w.message) for w in rec] == ["overflow encountered in subtract"]
        with np.errstate(over="ignore"):
            want = reference(op, W)
        _assert_same_bytes(got, want)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="subtract"):
            apply(W)


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


def _whole_grid_quadrature(a, b, grid, g, phi0):
    dens = a.u * b.u + a.v * b.v + ((g / phi0) * a.phi) * b.phi
    return float(trapezoid(trapezoid(dens, dx=grid.dx, axis=0), dx=grid.dy))


@pytest.mark.parametrize("grid_name", sorted(KERNEL_GRIDS) + sorted(THIN_GRIDS))
def test_inner_product_matches_whole_grid_quadrature(grid_name):
    grid = {**KERNEL_GRIDS, **THIN_GRIDS}[grid_name]
    rng = SplitMix64(37)
    a, b = (StateField(*sw.band_limited_fields(rng, grid.nx, grid.ny)) for _ in range(2))
    for u, v in ((a, b), (a, a)):
        want = _whole_grid_quadrature(u, v, grid, 9.81, 1.5)
        assert inner_product(u, v, grid, 9.81, 1.5) == want


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(REGIME_CASES)),
    nx=st.integers(4, 12), ny=st.integers(4, 12),
    budget=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_of_any_size_give_the_whole_grid_bits(kind, nx, ny, budget, seed):
    """Any row-block budget, one-row blocks included, keeps the bits of
    the kernel against the reference and of the energy quadrature."""
    rng = SplitMix64(seed)
    grid = sw.Grid(1.0, 1.3, nx, ny)
    W, V = (rng.doubles(3 * nx * ny).reshape(3, nx, ny) - 0.5 for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sw.fields, "_BLOCK_NODES", budget)
        _assert_kernel_matches_reference(params(kind), grid, W)
        a, b = StateField(*W), StateField(*V)
        want = _whole_grid_quadrature(a, b, grid, 9.81, 1.5)
        assert inner_product(a, b, grid, 9.81, 1.5) == want
        op = DiscreteOperator(params(kind), grid)
        _assert_same_bytes(_block_sweep(op, W), reference_apply_stack(op, W))


def test_block_apply_with_neighbor_rows():
    """A block of rows with the rows beside it gives those rows of the
    whole apply; a block needs its neighbors and must fit the grid."""
    grid = KERNEL_GRIDS["65x33"]
    op = DiscreteOperator(params("mix1"), grid)
    W = sw.band_limited_fields(SplitMix64(41), grid.nx, grid.ny)
    want = reference_apply_stack(op, W)
    for r0, r1 in ((0, 1), (0, 20), (20, 21), (20, 64), (64, 65)):
        out = np.full((3, r1 - r0, grid.ny), np.nan)
        got = op.apply_stack(W[:, r0:r1], out, west=W[:, r0 - 1] if r0 else None,
                             east=W[:, r1] if r1 < grid.nx else None)
        assert got is out
        _assert_same_bytes(out, np.ascontiguousarray(want[:, r0:r1]))
    for block, west, east in ((W[:, :3], None, None), (W[:, :64], W[:, 0], W[:, 64]),
                              (W[:, 1:4], W[:, 0, :-1], W[:, 4])):
        with pytest.raises(ShapeMismatch):
            op.apply_stack(block, west=west, east=east)


def test_apply_returns_a_new_array_each_call():
    grid = KERNEL_GRIDS["5x9"]
    op = DiscreteOperator(params("fhs"), grid)
    rng = SplitMix64(4)
    W, V = (sw.band_limited_fields(rng, grid.nx, grid.ny) for _ in range(2))
    a, b = op.apply_stack(W), op.apply_stack(W)
    c = op.apply_adjoint_stack(W)
    assert not np.shares_memory(a, b) and not np.shares_memory(a, c)
    kept = a.copy(), c.copy()
    op.apply_stack(V)
    op.apply_adjoint_stack(V)  # reuses the scratch; earlier results stay put
    assert np.array_equal(a, kept[0]) and np.array_equal(b, kept[0])
    assert np.array_equal(c, kept[1])
    out = np.empty_like(W)
    assert op.apply_stack(W, out=out) is out and np.array_equal(out, kept[0])


def test_apply_rejects_wrong_shape():
    op = DiscreteOperator(params("msub"), KERNEL_GRIDS["5x9"])
    for shape in ((3, 9, 5), (3, 5, 8), (2, 5, 9), (5, 9)):
        with pytest.raises(ShapeMismatch):
            op.apply_stack(np.zeros(shape))
        with pytest.raises(ShapeMismatch):
            op.apply_adjoint_stack(np.zeros(shape))


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
        rep = sw.positivity_probe(p, sw.Grid(1.0, 1.0, 24, 24), 30, rng_seed)
        assert rep.passed, (kind, rep.min_quotient, rep.threshold)
        assert rep.n_samples == 30


@pytest.mark.parametrize("n_samples", [0, -5])
def test_positivity_probe_needs_a_sample(n_samples):
    p = params("super")
    with pytest.raises(InvalidValue, match="at least one sample"):
        sw.positivity_probe(p, sw.Grid(1.0, 1.0, 8, 8), n_samples, 0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_positivity_probe_rejects_seed_outside_64_bits(seed):
    # SplitMix64 masks its seed, so 2^64 would silently rerun seed 0's samples
    p = params("super")
    with pytest.raises(InvalidValue) as info:
        sw.positivity_probe(p, sw.Grid(1.0, 1.0, 16, 16), 3, seed)
    assert str(info.value) == f"seed must be in [0, 2^64), got {seed}"


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


@pytest.mark.parametrize("shape", [(4, 4), (5, 9), (257, 129)])
def test_inner_product_rounds_like_its_formula(shape):
    # the buffered density must keep (u u' + v v') + ((g/phi0) phi) phi'
    grid = sw.Grid(1.0, 2.0, *shape)
    rng = np.random.default_rng(shape[0] * shape[1])
    # magnitudes spread over 1e-60..1e60, so any reordering shows in the bits
    a, b = (StateField(*(rng.standard_normal((3, *shape))
                         * 10.0 ** rng.integers(-60, 60, (3, *shape)))) for _ in range(2))
    for g, phi0 in ((9.81, 1.0), (1.0, 3.0), (0.1, 7e-3)):
        want = sw.fields.integrate(a.u * b.u + a.v * b.v + (g / phi0) * a.phi * b.phi, grid)
        assert inner_product(a, b, grid, g, phi0) == want


def _assert_forms_match_reference(p, regime, adjoint):
    got = sw.boundary_quadratic_forms(p, regime, adjoint=adjoint)
    want = reference_boundary_quadratic_forms(p, regime, adjoint)
    assert list(got) == list(want)
    for side, w in want.items():
        g = got[side].eigenvalues
        assert got[side].side is side
        assert (g.shape, g.tobytes()) == (w.shape, w.tobytes()), (p, adjoint, side)


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_boundary_forms_match_reference_bit_for_bit(kind):
    """The shared flux forms, the per-side spectrum memo and its exact
    shortcuts (no rows, 1x1 forms) keep every eigenvalue's bits and every
    shape of the former per-call computation, on both catalogs."""
    rng = SplitMix64(314)
    for _ in range(300):
        p = draw_params(kind, rng)
        for adjoint in (False, True):
            _assert_forms_match_reference(p, sw.classify(p), adjoint)


@settings(max_examples=200, deadline=None)
@given(
    phi0=st.floats(0.05, 20.0), g=st.floats(0.1, 50.0),
    ru=st.floats(0.01, 4.0), rv=st.floats(0.01, 4.0), f=st.floats(-5.0, 5.0),
)
def test_boundary_forms_match_reference_property(phi0, g, ru, rv, f):
    c = np.sqrt(g * phi0)
    try:
        p = sw.validate_params(ru * c, rv * c, phi0, g, f)
    except DegenerateCase:
        assume(False)
    for adjoint in (True, False):
        _assert_forms_match_reference(p, sw.classify(p), adjoint)


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_boundary_forms_are_shared_read_only_and_ignore_f(kind):
    rng = SplitMix64(2718)
    for _ in range(20):
        base = draw_params(kind, rng)
        regime = sw.classify(base)
        first = {adj: sw.boundary_quadratic_forms(base, regime, adjoint=adj) for adj in (False, True)}
        for f in (0.0, -0.0, 3.0, -1.5):
            p = sw.validate_params(base.u0, base.v0, base.phi0, base.g, f)
            for adjoint, want in first.items():
                again = sw.boundary_quadratic_forms(p, regime, adjoint=adjoint)
                for side, form in again.items():
                    w = want[side].eigenvalues
                    assert (form.eigenvalues.shape, form.eigenvalues.tobytes()) == (w.shape, w.tobytes())
                    assert not form.eigenvalues.flags.writeable
                    if form.eigenvalues.size:
                        with pytest.raises(ValueError):
                            form.eigenvalues[0] = 1.0
        if regime is not sw.Regime.MIXED_SUBCRITICAL:
            # the adjoint catalog is the W<->E, S<->N mirror of the forward
            # one with the orientation flipped: the same four spectra
            fwd, adj = first[False], first[True]
            for a, b in ((sw.Side.WEST, sw.Side.EAST), (sw.Side.SOUTH, sw.Side.NORTH)):
                assert adj[b].eigenvalues is fwd[a].eigenvalues
                assert adj[a].eigenvalues is fwd[b].eigenvalues


def test_quadrature_rejects_fields_off_the_grid():
    """Every quadrature integrates on the grid it is given: a 5x5 field with
    a 9x9 grid is a ShapeMismatch, not a number with the 9x9 spacing."""
    grid = sw.Grid(1.0, 1.0, 9, 9)
    W = sw.band_limited_fields(SplitMix64(4), 5, 5, n_fields=3)
    U = StateField(*W)
    theta = sw.ThetaField(*sw.band_limited_fields(SplitMix64(5), 5, 5, n_fields=2))
    in_v = sw.ThetaField.zeros(sw.Grid(1.0, 1.0, 5, 5))
    calls = {
        "inner_product": lambda: inner_product(U, U, grid, 9.81, 1.0),
        "energy_value": lambda: sw.energy_value(U, grid, params("fhs")),
        "l2_norm stack": lambda: sw.l2_norm(W, grid),
        "l2_norm plane": lambda: sw.l2_norm(W[0], grid),
        "theta_inner": lambda: sw.theta_inner(theta, theta, grid),
        "theta_norm": lambda: sw.theta_norm(theta, grid),
        "cross_gradient_residual": lambda: sw.cross_gradient_residual(in_v, grid),
    }
    for name, call in calls.items():
        with pytest.raises(ShapeMismatch) as info:
            call()
        assert str(info.value) == "field shape (5, 5) vs grid (9, 9)", name


@pytest.mark.parametrize("n_samples", [2.5, 2.0, True])
def test_positivity_probe_rejects_sample_count_that_is_not_an_integer(n_samples):
    p = params("fhs")
    with pytest.raises(InvalidValue) as info:
        sw.positivity_probe(p, sw.Grid(1.0, 1.0, 9, 9), n_samples, seed=1)
    assert str(info.value) == f"positivity probe sample count must be an integer, got {n_samples!r}"


@pytest.mark.parametrize("seed", [2.5, 7.0, True])
def test_seeds_must_be_integers(seed):
    p = params("fhs")
    with pytest.raises(InvalidValue) as info:
        SplitMix64(seed)
    assert str(info.value) == f"seed must be an integer, got {seed!r}"
    with pytest.raises(InvalidValue) as info:
        sw.positivity_probe(p, sw.Grid(1.0, 1.0, 9, 9), 2, seed=seed)
    assert str(info.value) == f"seed must be an integer, got {seed!r}"


def test_splitmix64_doubles_takes_a_nonnegative_integer_count():
    """doubles(2.5) used to return three doubles and advance the stream by
    two, so the next draw repeated the third."""
    want = SplitMix64(7).doubles(4)
    rng = SplitMix64(7)
    for n in (2.5, 2.0, True, -1):
        with pytest.raises(InvalidValue) as info:
            rng.doubles(n)
        assert str(info.value) == f"n must be a nonnegative integer, got {n!r}"
    got = np.concatenate([rng.doubles(np.int64(3)), rng.doubles(0), rng.doubles(1)])
    assert got.tobytes() == want.tobytes()
    assert SplitMix64(np.uint64(7)).doubles(4).tobytes() == want.tobytes()


def test_splitmix64_follows_its_published_formula():
    """The stream is SplitMix64 as rng's docstring writes it, on Python
    integers, and reproduces the published outputs for seed 1234567."""
    mask = 2**64 - 1
    for seed in (0, 7, 1234567, 2**64 - 1):
        state, want = seed, []
        for _ in range(5):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            want.append(z ^ (z >> 31))
        rng = SplitMix64(seed)
        assert [rng.next_uint64() for _ in range(5)] == want
        assert SplitMix64(seed).doubles(5).tolist() == [(z >> 11) * 2.0**-53 for z in want]
    rng = SplitMix64(1234567)
    assert [rng.next_uint64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]


def test_quadrature_compares_its_operands_shapes():
    """Two operands of different shapes are a ShapeMismatch, not a broadcast
    that passes the density's grid check."""
    grid = sw.Grid(1.0, 1.0, 9, 9)
    a = StateField(*sw.band_limited_fields(SplitMix64(4), 9, 9, n_fields=3))
    b = StateField(np.ones((1, 9)), np.ones((1, 9)), np.ones((1, 9)))
    with pytest.raises(ShapeMismatch) as info:
        inner_product(a, b, grid, 9.81, 1.0)
    assert str(info.value) == "operand shapes (9, 9) vs (1, 9)"
    with pytest.raises(ShapeMismatch) as info:
        inner_product(b, a, grid, 9.81, 1.0)
    assert str(info.value) == "operand shapes (1, 9) vs (9, 9)"
    A = sw.ThetaField(np.ones((9, 9)), np.ones((9, 9)))
    B = sw.ThetaField(np.ones((9, 1)), np.ones((9, 1)))
    with pytest.raises(ShapeMismatch) as info:
        sw.theta_inner(A, B, grid)
    assert str(info.value) == "operand shapes (9, 9) vs (9, 1)"


def test_operator_rejects_split_matrices_that_overflow_over_the_spacing():
    """fhs on [0, 1e-320] x [0, 1]: the split matrices over dx ~ 1.4e-321
    overflow.  They used to warn and leave inf in the operator, and a run
    then divided by a CFL step of 0."""
    with pytest.raises(InvalidValue, match=r"^the split matrices over the grid spacing \(dx, dy\) "
                                           r"= \(1\.42785e-321, 0\.142857\) overflow a float$"):
        DiscreteOperator(params("fhs"), sw.Grid(1e-320, 1.0, 8, 8))


SUPER_100 = (100.0, 100.0, 1.0, 9.81)


def test_positivity_probe_raises_on_a_non_finite_quotient():
    """Supercritical (100, 100, 1, 9.81) on [0, 7e-306] x [0, 1] has finite
    scaled split matrices, but <A_h U, U> overflows and the quotient is
    NaN.  The probe used to skip every sample (its norm was below a fixed
    1e-28) and report a minimum of inf as a PASS."""
    p = sw.validate_params(*SUPER_100)
    with pytest.raises(NonFinite, match="^positivity probe sample 0: the quotient is nan$"):
        sw.positivity_probe(p, sw.Grid(7e-306, 1.0, 8, 8), 2, 0)


def test_positivity_probe_raises_on_a_sample_norm_that_overflows():
    """At the msub reference state on [0, 1e160] x [0, 1.3e151] a sample's
    squared norm overflows to inf while <A_h U, U> stays finite: the
    quotient read 0 and the probe reported PASS."""
    with pytest.raises(NonFinite, match="^positivity probe sample 0: the squared norm is inf$"):
        sw.positivity_probe(params("msub"), sw.Grid(1e160, 1.3e151, 8, 8), 5, 0)


def test_positivity_probe_on_a_small_domain_counts_every_sample():
    """On [0, 1e-15]^2 a sample's squared norm is ~1e-30: a sample, not a
    zero field, so the minimum quotient is finite."""
    rep = sw.positivity_probe(params("super"), sw.Grid(1e-15, 1e-15, 8, 8), 4, 0)
    assert np.isfinite(rep.min_quotient) and rep.passed


def test_positivity_probe_with_only_zero_norm_samples_raises():
    """On [0, 1e-170]^2 every squared norm underflows to 0; no sample
    carries information, which is not a PASS."""
    p = sw.validate_params(*SUPER_100)
    with pytest.raises(NonFinite, match="^positivity probe: all 2 samples have zero norm$"):
        sw.positivity_probe(p, sw.Grid(1e-170, 1e-170, 8, 8), 2, 0)
