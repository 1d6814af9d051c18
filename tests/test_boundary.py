import copy
import pickle

import numpy as np
import pytest

import swerect as sw
from swerect.algebra import independent_rows
from swerect.boundary import (
    _NODE_CLASSES,
    SIDES,
    Side,
    _entering_rows,
    constrained_sides,
    node_line,
)
from swerect.errors import DegenerateCase, InvalidValue, ShapeMismatch
from swerect.manufactured import DEFAULT_SOLUTION
from swerect.rng import SplitMix64

from helpers import (
    REGIME_CASES,
    REGIME_NAMES,
    boundary_row_residual,
    compatible_pair,
    draw_params,
    params,
    reference_entering_rows,
    reference_independent_rows,
)

W, E, S, N = Side.WEST, Side.EAST, Side.SOUTH, Side.NORTH

EXPECTED_COUNTS = {
    "super": (3, 0, 3, 0),
    "mix1": (2, 1, 3, 0),
    "mix2": (3, 0, 2, 1),
    "fhs": (2, 1, 2, 1),
    "msub": (2, 1, 2, 1),
}


def test_catalog_row_counts():
    for kind, want in EXPECTED_COUNTS.items():
        p = params(kind)
        spec = sw.bc_catalog(p)
        assert spec.counts() == want


def test_adjoint_counts_mirror_forward():
    # the adjoint constrains the outgoing set: counts swap W<->E and S<->N
    for kind in REGIME_CASES:
        p = params(kind)
        cw, ce, cs, cn = sw.bc_catalog(p).counts()
        aw, ae, as_, an = sw.adjoint_bc_catalog(p).counts()
        assert (aw, ae, as_, an) == (3 - cw, 3 - ce, 3 - cs, 3 - cn)


# entering characteristics per side as rows of Pinv = (xi, eta, zeta);
# "all" is a Dirichlet side (identity rows), "" an unconstrained one
ROW_SPEC = {
    "super": {W: "all", E: "", S: "all", N: ""},
    "mix1": {W: "xi zeta", E: "eta", S: "all", N: ""},
    "mix2": {W: "all", E: "", S: "eta zeta", N: "xi"},
    "fhs": {W: "xi zeta", E: "eta", S: "eta zeta", N: "xi"},
}
MIRROR = {W: E, E: W, S: N, N: S}


def test_forward_rows_are_characteristic_rows():
    # hyperbolic catalogs are built from the rows of Pinv: xi, eta, zeta; the
    # adjoint catalog is the forward one mirrored W<->E, S<->N
    for kind, sides in ROW_SPEC.items():
        for adjoint in (False, True):
            catalog = sw.adjoint_bc_catalog if adjoint else sw.bc_catalog
            rng = SplitMix64(53)
            for _ in range(200):
                p = draw_params(kind, rng)
                named = dict(zip(("xi", "eta", "zeta"), sw.hyperbolic_transform(p).Pinv))
                spec = catalog(p)
                for side, want in sides.items():
                    ref = (np.eye(3) if want == "all"
                           else np.array([named[n] for n in want.split()]).reshape(-1, 3))
                    got = spec.rows[MIRROR[side] if adjoint else side]
                    assert np.array_equal(got, ref), (kind, adjoint, side, got, ref)
    # the mixed subcritical forward West/South rows are theta1 and zeta: rows
    # 0 and 2 of the elliptic transform's Pinv
    rng = SplitMix64(53)
    for _ in range(200):
        p = draw_params("msub", rng)
        Pinv, spec = sw.elliptic_transform(p).Pinv, sw.bc_catalog(p)
        assert all(np.array_equal(spec.rows[side], Pinv[[0, 2]]) for side in (W, S)), p


def test_msub_adjoint_rows_closed_form():
    p = params("msub")
    u0, v0, g = p.u0, p.v0, p.g
    k1 = p.kappa
    spec = sw.adjoint_bc_catalog(p)
    assert np.allclose(spec.rows[W], [[g * v0**2, -g * v0 * u0, -u0 * k1**2]])
    assert np.allclose(spec.rows[E], [[u0 * v0, -u0**2, g * v0], [u0, v0, g]])
    assert np.allclose(spec.rows[S], [[g * u0 * v0, -g * u0**2, v0 * k1**2]])
    assert np.allclose(spec.rows[N], [[v0**2, -v0 * u0, -g * u0], [u0, v0, g]])


def test_incoming_count_check_on_draws():
    rng = SplitMix64(61)
    for kind in REGIME_CASES:
        for _ in range(100):
            p = draw_params(kind, rng)
            rep = sw.incoming_count_check(p, sw.classify(p))
            assert rep.passed, (kind, rep.counts, rep.expected)


def test_regime_mismatch_guard():
    """The two entry points that still take a regime reject one that is not
    the regime of the constants."""
    p = params("super")
    with pytest.raises(sw.RegimeMismatch):
        sw.incoming_count_check(p, sw.Regime.MIXED_SUBCRITICAL)
    for adjoint in (False, True):
        with pytest.raises(sw.RegimeMismatch):
            sw.boundary_quadratic_forms(p, sw.Regime.MIXED_SUBCRITICAL, adjoint=adjoint)


def test_compatible_fields_annihilate_rows():
    grid = sw.Grid(1.0, 1.0, 17, 17)
    for kind in REGIME_CASES:
        p = params(kind)
        U, V = compatible_pair(kind, p, grid)
        assert boundary_row_residual(U, sw.bc_catalog(p), grid) < 1e-12
        assert boundary_row_residual(V, sw.adjoint_bc_catalog(p), grid) < 1e-12


def _projector(p, spec, grid):
    return sw.BcEnforcer(spec, p, grid)


def test_apply_bc_idempotent():
    rng = SplitMix64(7)
    grid = sw.Grid(1.0, 1.0, 20, 24)
    for kind in REGIME_CASES:
        p = params(kind)
        enforcer = _projector(p, sw.bc_catalog(p), grid)
        data = sw.BoundaryData.homogeneous()
        once = enforcer.apply(sw.band_limited_fields(rng, 20, 24), data)
        twice = enforcer.apply(once, data)
        # a second pass re-projects each node's own value: round-off only,
        # within 4 ulps of the field's largest value (1 ulp seen)
        assert np.max(np.abs(twice - once)) <= 4 * np.finfo(float).eps * np.max(np.abs(once))


def test_apply_bc_reproduces_sampled_data():
    """With data manufactured from a known field, the enforced state carries
    exactly that field's constrained combinations on every boundary node."""
    grid = sw.Grid(1.0, 1.0, 16, 13)
    for kind in REGIME_CASES:
        p = params(kind)
        spec = sw.bc_catalog(p)
        data = sw.BoundaryData.from_state_samples(spec, grid, DEFAULT_SOLUTION.state)
        rng = SplitMix64(19)
        W_ = _projector(p, spec, grid).apply(sw.band_limited_fields(rng, grid.nx, grid.ny),
                                             data, 0.3)
        ref = DEFAULT_SOLUTION.state_field(grid, 0.3).stack()
        sel = {W: W_[:, 0, :], E: W_[:, -1, :], S: W_[:, :, 0], N: W_[:, :, -1]}
        ref_sel = {W: ref[:, 0, :], E: ref[:, -1, :], S: ref[:, :, 0], N: ref[:, :, -1]}
        for side, rows in spec.rows.items():
            if rows.shape[0] == 0:
                continue
            got = rows @ sel[side]
            want = rows @ ref_sel[side]
            # corner nodes may belong to the neighbouring side's richer
            # constraint set; interior boundary nodes must match exactly
            assert np.max(np.abs(got[:, 1:-1] - want[:, 1:-1])) < 1e-12


def test_apply_bc_interior_untouched():
    grid = sw.Grid(1.0, 1.0, 12, 12)
    p = params("fhs")
    spec = sw.bc_catalog(p)
    rng = SplitMix64(4)
    W_ = sw.band_limited_fields(rng, 12, 12)
    out = _projector(p, spec, grid).apply(W_, sw.BoundaryData.homogeneous())
    assert np.array_equal(out[:, 1:-1, 1:-1], W_[:, 1:-1, 1:-1])


def test_bad_sampler_shape_raises():
    p = params("fhs")
    spec = sw.bc_catalog(p)
    data = sw.BoundaryData({W: lambda t: np.zeros((3, 5))})  # W has 2 rows
    rng = SplitMix64(4)
    W_ = sw.band_limited_fields(rng, 10, 10)
    with pytest.raises(ShapeMismatch):
        _projector(p, spec, sw.Grid(1.0, 1.0, 10, 10)).apply(W_, data)


def test_lifted_forcing_consistency():
    """Lifting with ug = exact solution leaves a forcing that is pure
    discretization residual, shrinking at first order with the mesh."""
    p = params("fhs")
    norms = []
    for n in (17, 33):
        grid = sw.Grid(1.0, 1.0, n, n)
        X, Y = grid.meshgrid()

        def ug(t, X=X, Y=Y):
            return DEFAULT_SOLUTION.state(X, Y, t)

        def dug(t, X=X, Y=Y):
            return DEFAULT_SOLUTION.dt(X, Y, t)

        lifted = sw.lift_nonhomogeneous(ug, dug, DEFAULT_SOLUTION.forcing_on_grid(p, grid), p, grid)
        r = lifted(0.37)
        norms.append(sw.l2_norm(r, grid))
    assert norms[1] < 0.75 * norms[0]


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_enforcer_in_place_matches_copy(kind):
    """Projecting in place, into another buffer, or into a fresh copy gives
    the same bits: each projected node reads only its own value.  One enforcer
    reused across times and data sets (it samples once per distinct t)
    agrees with a fresh enforcer for every call."""
    p = params(kind)
    spec = sw.bc_catalog(p)
    rng = SplitMix64(13)
    for grid in (sw.Grid(1.0, 1.0, 4, 4), sw.Grid(1.0, 1.5, 5, 9)):
        datas = (sw.BoundaryData.homogeneous(),
                 sw.BoundaryData.from_state_samples(spec, grid, DEFAULT_SOLUTION.state))
        reused = sw.BcEnforcer(spec, p, grid)
        for data in datas + datas[::-1]:
            for t in (0.0, 0.3, 0.3, 0.0):
                W = sw.band_limited_fields(rng, grid.nx, grid.ny)
                fresh = sw.BcEnforcer(spec, p, grid)
                want = fresh.apply(W, data, t)
                assert want is not W and not np.array_equal(want, W)
                other = np.full_like(W, np.nan)
                assert reused.apply(W, data, t, out=other) is other
                assert np.array_equal(other, want)
                assert np.array_equal(reused.apply(W, data, t), want)
                assert reused.apply(W, data, t, out=W) is W
                assert np.array_equal(W, want)


def test_side_members_hash_and_copy_as_themselves():
    table = {side: str(side) for side in SIDES}
    assert [table[side] for side in (W, E, S, N)] == ["West", "East", "South", "North"]
    assert {W, E, S, N, W} == set(SIDES) and S in set(SIDES)
    assert Side("W") is Side.WEST and Side["NORTH"] is N
    for side in SIDES:
        assert pickle.loads(pickle.dumps(side)) is side
        assert copy.deepcopy(side) is side and copy.copy(side) is side
    assert copy.deepcopy(table) == table


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_row_rule_matches_reference_on_draws(kind):
    """Every edge and corner row stack of both catalogs keeps the same rows
    as the reference rule (corners stack the x side's rows over the y
    side's, as BcEnforcer does; in MixedSubcritical the forward SW corner
    repeats a row pair)."""
    rng = SplitMix64(71)
    for _ in range(200):
        p = draw_params(kind, rng)
        for catalog in (sw.bc_catalog, sw.adjoint_bc_catalog):
            rows = catalog(p).rows
            stacks = [rows[s] for s in SIDES]
            stacks += [np.vstack([rows[sx], rows[sy]]) for sx in (W, E) for sy in (S, N)]
            for C in stacks:
                assert independent_rows(C) == reference_independent_rows(C)


def test_catalogs_constrain_every_characteristic_on_extreme_states():
    """Over base states log-uniform in [1e-170, 1e170]^4, a validated
    hyperbolic state either has a characteristic speed below the float range
    (InvalidValue) or both catalogs carry its regime's counts, so every
    characteristic enters through some side.  A det(Pinv) that overflowed
    used to zero every speed and leave all four sides empty."""
    expected = {REGIME_NAMES[k]: v for k, v in EXPECTED_COUNTS.items()}
    rng = SplitMix64(83)
    seen = {"invalid state": 0, "speed underflow": 0, "full catalog": 0}
    for _ in range(2000):
        args = (10.0 ** (340.0 * rng.doubles(4) - 170.0)).tolist()
        try:
            p = sw.validate_params(*args)
        except (InvalidValue, DegenerateCase):
            seen["invalid state"] += 1
            continue
        regime = sw.classify(p)
        if regime is sw.Regime.MIXED_SUBCRITICAL:
            continue
        try:
            w, e, s, n = sw.bc_catalog(p).counts()
        except InvalidValue:
            seen["speed underflow"] += 1
            continue
        assert (w, e, s, n) == expected[str(regime)]
        assert sw.adjoint_bc_catalog(p).counts() == (e, w, n, s)
        seen["full catalog"] += 1
    assert min(seen.values()) > 0, seen


GEOMETRY_GRIDS = [(4, 4), (4, 23), (23, 4), (9, 7)]


def test_side_geometry():
    assert [(s.axis, s.end, s.outward) for s in SIDES] == [
        (0, 0, -1), (0, -1, 1), (1, 0, -1), (1, -1, 1)]


@pytest.mark.parametrize("nx, ny", GEOMETRY_GRIDS)
def test_node_classes_cover_every_node_once(nx, ny):
    count = np.zeros((nx, ny), dtype=int)
    for sides in _NODE_CLASSES:
        count[node_line(sides)] += 1
    assert len(_NODE_CLASSES) == 9 and (count == 1).all()


@pytest.mark.parametrize("nx, ny", GEOMETRY_GRIDS)
def test_node_line_moves_a_class_inward(nx, ny):
    """node_line(sides) picks its class's (i, j) nodes, in order, from the
    table below: an edge runs along its side without the two corners, and a
    corner is one node.  (The id predates the removal of the inward offset.)"""
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    X, Y, inner_i, inner_j = nx - 1, ny - 1, range(1, nx - 1), range(1, ny - 1)
    table = {
        (): [(i, j) for i in inner_i for j in inner_j],
        (W,): [(0, j) for j in inner_j],
        (E,): [(X, j) for j in inner_j],
        (S,): [(i, 0) for i in inner_i],
        (N,): [(i, Y) for i in inner_i],
        (W, S): [(0, 0)], (W, N): [(0, Y)], (E, S): [(X, 0)], (E, N): [(X, Y)],
    }
    assert sorted(table, key=str) == sorted(_NODE_CLASSES, key=str)
    for sides, nodes in table.items():
        got = zip(ii[node_line(sides)].ravel().tolist(), jj[node_line(sides)].ravel().tolist())
        assert list(got) == nodes


@pytest.mark.parametrize("nx, ny", GEOMETRY_GRIDS)
def test_side_line_is_a_view_of_its_node_line(nx, ny):
    for side in SIDES:
        a = np.arange(2 * nx * ny, dtype=float).reshape(2, nx, ny)
        want = {W: a[..., 0, :], E: a[..., -1, :], S: a[..., 0], N: a[..., -1]}
        got = side.line(a)
        assert np.array_equal(got, want[side])
        got += 0.5  # a view: the write lands in a
        assert np.array_equal(want[side] % 1, np.full(got.shape, 0.5))
        assert np.count_nonzero(a % 1) == got.size


@pytest.mark.parametrize("nx, ny", GEOMETRY_GRIDS)
def test_constrained_sides_coordinates_exact_and_contiguous(nx, ny):
    """The manufactured samplers take cosines of these coordinates, and the
    exact MMS goldens depend on their bits."""
    grid = sw.Grid(1.3, 0.7, nx, ny)
    p = params("fhs")
    want = {W: (np.zeros(ny), grid.y), E: (np.full(ny, 1.3), grid.y),
            S: (grid.x, np.zeros(nx)), N: (grid.x, np.full(nx, 0.7))}
    spec = sw.bc_catalog(p)
    got = constrained_sides(spec, grid)
    assert [side for side, _, _ in got] == list(SIDES)
    for side, rows, xy in got:
        assert rows is spec.rows[side]
        for c, ref in zip(xy, want[side]):
            assert c.dtype == np.float64 and c.flags.c_contiguous
            assert np.array_equal(c, ref)


@pytest.mark.parametrize("kind", ["super", "mix1", "mix2", "fhs"])
def test_entering_rows_match_reference_bit_for_bit(kind):
    """The sign law on `tolist()` floats keeps the former rows, shapes and
    dtypes exactly, in both orientations."""
    rng = SplitMix64(161)
    for _ in range(300):
        p = draw_params(kind, rng)
        for s in (1.0, -1.0):
            got, want = _entering_rows(p, s), reference_entering_rows(p, s)
            assert list(got) == list(want)
            for side, w in want.items():
                g = got[side]
                assert (g.shape, g.dtype, g.tobytes()) == (w.shape, w.dtype, w.tobytes())
                assert g.flags.writeable and g.flags.c_contiguous


@pytest.mark.parametrize("shape", [(3, 16, 20), (3, 20, 16), (2, 16, 16), (4, 16, 16), (16, 16)])
def test_enforcer_rejects_a_stack_of_another_shape(shape):
    p = params("fhs")
    enforcer = sw.BcEnforcer(sw.bc_catalog(p), p, sw.Grid(1.0, 1.0, 16, 16))
    data = sw.BoundaryData.homogeneous()
    want = f"stack shape {shape} vs (3, 16, 16)"
    with pytest.raises(ShapeMismatch) as info:
        enforcer.apply(np.zeros(shape), data)
    assert str(info.value) == want
    with pytest.raises(ShapeMismatch) as info:
        enforcer.apply(np.zeros((3, 16, 16)), data, out=np.zeros(shape))
    assert str(info.value) == want


# catalogs whose rows at one node class differ in scale by many decades:
# msub at u0 = v0 = 1e-20, whose West/South theta1 row (v0, -u0, 0) sits
# next to the zeta row (u0, v0, g), and a state whose North-West and
# East-South corner rows span 1e-3 to 1e7
SCALE_SPREAD_STATES = [(1e-20, 1e-20, 1.0, 9.81), (0.029, 0.00083, 0.26, 9.1e6)]


def _unit_rows(spec):
    """spec with every row scaled to max-abs 1."""
    return sw.BoundarySpec({s: r / np.abs(r).max(axis=1, keepdims=True)
                            for s, r in spec.rows.items()})


@pytest.mark.parametrize("args", SCALE_SPREAD_STATES)
def test_projection_imposes_every_catalog_row_whatever_its_scale(args):
    """After a homogeneous projection every catalog row, scaled to max-abs
    1, vanishes to round-off at its side's nodes, corners included.  When
    the rank was tested on the raw rows, a row small next to the others
    was dropped and never imposed: residual 0.59 (zeta on West, South and
    three corners) and 2.2e-9 (the North-West corner) on these states."""
    p = sw.validate_params(*args)
    grid = sw.Grid(1.0, 1.0, 17, 17)
    spec = sw.bc_catalog(p)
    U = sw.BcEnforcer(spec, p, grid).apply(sw.band_limited_fields(SplitMix64(5), 17, 17),
                                           sw.BoundaryData.homogeneous())
    assert boundary_row_residual(U, _unit_rows(spec), grid) < 1e-15


def test_row_rule_tests_rank_on_unit_rows():
    """Over 500 states log-uniform in [1e-8, 1e8]^4, every edge and corner
    stack of the forward catalog keeps the rows the reference rule keeps
    on the rows scaled to max-abs 1 (15 catalogs differed when the rank
    was tested on the raw rows).  A zero row is never kept."""
    rng = SplitMix64(2028)
    differ = 0
    for _ in range(500):
        rows = sw.bc_catalog(sw.validate_params(*(10.0 ** (16.0 * rng.doubles(4) - 8.0)))).rows
        stacks = [rows[s] for s in SIDES]
        stacks += [np.vstack([rows[sx], rows[sy]]) for sx in (W, E) for sy in (S, N)]
        differ += any(independent_rows(C) != reference_independent_rows(
            C / np.abs(C).max(axis=1, keepdims=True)) for C in stacks)
    assert differ == 0
    assert independent_rows(np.array([[0.0, 0.0, 0.0], [0.0, 1e-300, 0.0]])) == [1]


def test_enforcer_rejects_a_projection_out_of_float_range():
    """msub at u0 = v0 = 1e-155: the theta1 row's Gram entry (~2e-310) has
    no finite inverse, so K came out NaN and a run stopped at step 0 with
    NonFinite.  A 1e-200 row beside a unit row makes the Gram matrix
    singular (its entry underflows to 0)."""
    grid = sw.Grid(1.0, 1.0, 9, 9)
    p = sw.validate_params(1e-155, 1e-155, 1.0, 9.81)
    with pytest.raises(InvalidValue, match="^the boundary projection at the West nodes is "
                                           "singular or overflows a float for this base state$"):
        sw.BcEnforcer(sw.bc_catalog(p), p, grid)
    rows = {s: np.zeros((0, 3)) for s in SIDES}
    rows[S] = np.array([[1e-200, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(InvalidValue, match="^the boundary projection at the South nodes"):
        sw.BcEnforcer(sw.BoundarySpec(rows), params("fhs"), grid)
