import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import swerect as sw
from swerect import elliptic
from swerect.elliptic import ThetaField, apply_T, apply_T_star
from swerect.errors import (
    BcViolation,
    InvalidValue,
    NonConvergence,
    NonFinite,
    RegimeMismatch,
    ShapeMismatch,
    SingularSystem,
    ViolatesCondition,
)

from helpers import (boundary_flat_theta, draw_params, params, reference_assemble,
                     reference_solve)

P_MSUB = params("msub")
C_SWE = sw.swe_elliptic_block(P_MSUB)


def in_v_field(grid):
    """A generic smooth member of V: theta1 = 0 on W+S, theta2 = 0 on E+N."""
    X, Y = grid.meshgrid()
    t1 = np.sin(np.pi * X / grid.l1) * np.sin(0.5 * np.pi * Y / grid.l2) * (1 + 0.3 * X * Y)
    t2 = np.cos(0.5 * np.pi * X / grid.l1) * np.cos(0.5 * np.pi * Y / grid.l2) * (1.2 - 0.2 * Y)
    return ThetaField(t1, t2)


def test_build_coeffs_guards():
    with pytest.raises(ViolatesCondition):
        sw.build_coeffs(-1.0, 1.0, 0.5, -0.5)  # alpha1 <= 0
    with pytest.raises(ViolatesCondition):
        sw.build_coeffs(1.0, 1.0, 1.0, 1.0)  # det = a2 b1 - a1 b2 = 0


@pytest.mark.parametrize("coeffs, name", [
    ((1.0, 1.0, math.nan, 0.0), "beta1"),
    ((math.inf, 1.0, 1.0, 0.0), "alpha1"),
    ((1.0, 1.0, 1.0, -math.inf), "beta2"),
    ((1.0, math.nan, 1.0, 0.0), "alpha2"),
])
def test_build_coeffs_rejects_non_finite(coeffs, name):
    with pytest.raises(ViolatesCondition, match=f"{name} must be finite"):
        sw.build_coeffs(*coeffs)


def test_swe_block_closed_form():
    p = P_MSUB
    s = p.u0**2 + p.v0**2
    k1 = p.kappa
    c = C_SWE
    assert c.alpha1 == pytest.approx(p.u0 / s, rel=1e-15)
    assert c.alpha2 == pytest.approx(p.v0 / s, rel=1e-15)
    assert c.beta1 == pytest.approx(p.g * p.v0 / (k1 * s), rel=1e-15)
    assert c.beta2 == pytest.approx(-p.g * p.u0 / (k1 * s), rel=1e-15)
    # frozen determinant at (1, 1, 1, 9.81): g / (kappa1 * s)
    assert c.det == pytest.approx(0.5603753086599176, rel=1e-14)


def test_solved_pair_is_the_certified_pair():
    """The pair the solvers take is the transform's blocks, bit for bit, so
    verify_diagonalization certifies the pair solve_T solves."""
    rng = sw.SplitMix64(5)
    for _ in range(2000):
        p = draw_params("msub", rng)
        c, t = sw.swe_elliptic_block(p), sw.elliptic_transform(p)
        assert np.array_equal(c.T1, t.blockX) and np.array_equal(c.T2, t.blockY), p


def test_swe_block_regime_guard():
    with pytest.raises(RegimeMismatch):
        sw.swe_elliptic_block(params("fhs"))


def test_apply_T_star_is_negative_T():
    grid = sw.Grid(1.0, 1.0, 21, 21)
    th = in_v_field(grid)
    a = apply_T(th, C_SWE, grid)
    b = apply_T_star(th, C_SWE, grid)
    assert np.allclose(a.theta1, -b.theta1)
    assert np.allclose(a.theta2, -b.theta2)


def test_duality_is_discretely_exact():
    """<T a, b> - <a, T* b> vanishes to round-off when a carries the forward
    side conditions and b the adjoint ones: gradient + trapezoid telescope
    exactly, and the boundary products are annihilated row by row."""
    for l1, l2, nx, ny in ((1.0, 1.0, 17, 17), (2.0, 0.7, 25, 19), (1.0, 1.0, 33, 33)):
        grid = sw.Grid(l1, l2, nx, ny)
        a, _ = sw.manufactured_solution_T(C_SWE, grid)
        b, _ = sw.manufactured_solution_T_star(C_SWE, grid)
        lhs = sw.theta_inner(apply_T(a, C_SWE, grid), b, grid)
        rhs = sw.theta_inner(a, apply_T_star(b, C_SWE, grid), grid)
        scale = sw.theta_norm(a, grid) * sw.theta_norm(b, grid)
        assert abs(lhs - rhs) <= 1e-13 * max(scale, 1.0)


def test_duality_defect_without_adjoint_conditions():
    # pairing a forward-domain field against itself leaves genuine boundary
    # terms; the identity must not look trivially true for the wrong reason
    grid = sw.Grid(1.0, 1.0, 17, 17)
    a, _ = sw.manufactured_solution_T(C_SWE, grid)
    lhs = sw.theta_inner(apply_T(a, C_SWE, grid), a, grid)
    rhs = sw.theta_inner(a, apply_T_star(a, C_SWE, grid), grid)
    assert abs(lhs - rhs) > 1e-3


def test_cross_gradient_residual_near_zero_in_v():
    for n in (17, 33):
        grid = sw.Grid(1.0, 1.0, n, n)
        r = sw.cross_gradient_residual(in_v_field(grid), grid)
        assert r < 1e-13


def test_cross_gradient_rejects_outside_v():
    grid = sw.Grid(1.0, 1.0, 17, 17)
    th = in_v_field(grid)
    th.theta1[0, :] = 1.0  # breaks theta1|W = 0
    with pytest.raises(BcViolation):
        sw.cross_gradient_residual(th, grid)


def test_solve_T_manufactured_convergence():
    errs = []
    for n in (17, 33, 65):
        grid = sw.Grid(1.0, 1.0, n, n)
        exact, F = sw.manufactured_solution_T(C_SWE, grid)
        got = sw.solve_T(F, C_SWE, grid)
        d = ThetaField(got.theta1 - exact.theta1, got.theta2 - exact.theta2)
        errs.append(sw.theta_norm(d, grid))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.0, (errs, orders)


def test_solve_T_star_manufactured_convergence():
    errs = []
    for n in (17, 33, 65):
        grid = sw.Grid(1.0, 1.0, n, n)
        exact, Psi = sw.manufactured_solution_T_star(C_SWE, grid)
        got = sw.solve_T_star(Psi, C_SWE, grid)
        d = ThetaField(got.theta1 - exact.theta1, got.theta2 - exact.theta2)
        errs.append(sw.theta_norm(d, grid))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.0, (errs, orders)


def test_solve_T_inverts_discrete_apply():
    # with a forcing produced by the discrete stencils themselves, the
    # solve returns that exact grid function (direct sparse factorization)
    grid = sw.Grid(1.0, 1.0, 21, 21)
    th = in_v_field(grid)
    F = apply_T(th, C_SWE, grid)
    got = sw.solve_T(F, C_SWE, grid)
    assert np.max(np.abs(got.theta1 - th.theta1)) < 1e-10
    assert np.max(np.abs(got.theta2 - th.theta2)) < 1e-10


def test_zero_maps_to_zero():
    grid = sw.Grid(1.0, 1.0, 19, 19)
    z = ThetaField.zeros(grid)
    for solver in (sw.solve_T, sw.solve_T_star):
        out = solver(z, C_SWE, grid)
        assert np.max(np.abs(out.theta1)) <= 1e-12
        assert np.max(np.abs(out.theta2)) <= 1e-12


def test_apriori_bounds_with_vanishing_slack():
    slacks = []
    for n in (17, 33, 65):
        grid = sw.Grid(1.0, 1.0, n, n)
        exact, F = sw.manufactured_solution_T(C_SWE, grid)
        got = sw.solve_T(F, C_SWE, grid)
        rep = sw.apriori_check(got, C_SWE, grid)
        assert rep.passed, rep
        slacks.append(rep.slack)
    assert slacks[1] < 0.7 * slacks[0] and slacks[2] < 0.7 * slacks[1]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_apriori_check_rejects_a_slack_that_is_not_finite():
    """msub (1, 1, 1, 8.7e110) over L1 = 2.1e-118: the slack's curvature
    norm overflows, and the check reported 'bounds ok' on an infinite
    slack."""
    c = sw.swe_elliptic_block(sw.validate_params(1.0, 1.0, 1.0, 8.7e110))
    grid = sw.Grid(2.1e-118, 1.0, 8, 8)
    exact, F = sw.manufactured_solution_T(c, grid)
    theta = sw.solve_T(F, c, grid)
    with pytest.raises(NonFinite, match=r"^a-priori check: the slack is inf$"):
        sw.apriori_check(theta, c, grid)


def test_neumann_crosscheck_second_order_on_flat_data():
    resids = []
    for n in (17, 33, 65):
        grid = sw.Grid(1.0, 1.0, n, n)
        exact = boundary_flat_theta(grid)
        F = apply_T(exact, C_SWE, grid)
        got = sw.solve_T(F, C_SWE, grid)
        east, north = sw.neumann_crosscheck(got, C_SWE, grid)
        resids.append(max(east, north))
    assert resids[1] < 0.5 * resids[0] and resids[2] < 0.5 * resids[1]


# --- vectorized assembly against the per-node reference loop ----------------

# (1, 1, 1, -1) has a1*a2 + b1*b2 = 0: the adjoint East and South rows are
# parallel, so the SE corner (and NW) keeps one constraint row, not two
ASSEMBLY_COEFFS = {
    "swe": C_SWE,
    "orthogonal": sw.build_coeffs(1.0, 1.0, 1.0, -1.0),
    "generic": sw.build_coeffs(0.7, 1.3, -0.4, 2.1),
    "steep": sw.build_coeffs(2.0, 0.5, 0.3, 0.9),
}
ASSEMBLY_GRIDS = {
    "4x4": sw.Grid(1.0, 1.0, 4, 4),
    "5x9": sw.Grid(1.0, 1.5, 5, 9),
    "17x23": sw.Grid(2.0, 0.7, 17, 23),
    "33x33": sw.Grid(1.0, 1.0, 33, 33),
}


def _assert_same_system(F, c, grid):
    for bc_rows, sign in ((elliptic._FORWARD_BC, 1.0), (elliptic._adjoint_bc(c), -1.0)):
        A, rhs, eq = elliptic._assemble(F, c, grid, bc_rows, sign)
        B, rhs_ref, eq_ref = reference_assemble(F, c, grid, bc_rows, sign)
        # csr_matrix sums duplicates and sorts indices on construction, so
        # these are the canonical arrays spsolve receives
        assert A.has_canonical_format and B.has_canonical_format
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, attr), getattr(B, attr)), (attr, sign)
        assert A.shape == B.shape
        assert np.array_equal(rhs, rhs_ref)
        assert np.array_equal(eq, eq_ref)


@pytest.mark.parametrize("grid_name", sorted(ASSEMBLY_GRIDS))
@pytest.mark.parametrize("coeff_name", sorted(ASSEMBLY_COEFFS))
def test_assembly_matches_reference_loop(coeff_name, grid_name):
    c, grid = ASSEMBLY_COEFFS[coeff_name], ASSEMBLY_GRIDS[grid_name]
    f = sw.band_limited_fields(sw.SplitMix64(11), grid.nx, grid.ny, n_fields=2)
    _assert_same_system(ThetaField(f[0], f[1]), c, grid)


def test_assembly_parallel_corner_rows_keep_one_constraint():
    c, grid = ASSEMBLY_COEFFS["orthogonal"], ASSEMBLY_GRIDS["5x9"]
    F = ThetaField.zeros(grid)
    _, _, eq = elliptic._assemble(F, c, grid, elliptic._adjoint_bc(c), -1.0)
    owned = eq.reshape(grid.nx, grid.ny, 2)  # node (i, j) owns rows 2n, 2n+1
    for i, j in ((grid.nx - 1, 0), (0, grid.ny - 1)):  # SE, NW
        assert owned[i, j].tolist() == [False, True]
    for i, j in ((0, 0), (grid.nx - 1, grid.ny - 1)):  # SW, NE: two constraints
        assert owned[i, j].tolist() == [False, False]
    assert owned[1:-1, 1:-1].all()


@settings(max_examples=40, deadline=None)
@given(
    a1=st.floats(0.05, 5.0), a2=st.floats(0.05, 5.0),
    b1=st.floats(-5.0, 5.0), b2=st.floats(-5.0, 5.0),
    nx=st.integers(4, 12), ny=st.integers(4, 12),
    l1=st.floats(0.2, 3.0), l2=st.floats(0.2, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_assembly_matches_reference_property(a1, a2, b1, b2, nx, ny, l1, l2, seed):
    try:
        c = sw.build_coeffs(a1, a2, b1, b2)
    except ViolatesCondition:
        assume(False)
    grid = sw.Grid(l1, l2, nx, ny)
    f = sw.band_limited_fields(sw.SplitMix64(seed), nx, ny, n_fields=2)
    _assert_same_system(ThetaField(f[0], f[1]), c, grid)


# --- solver diagnostics -----------------------------------------------------

SOLVERS = {"T": sw.solve_T, "T*": sw.solve_T_star}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_singular_system_names_direction_and_size(name, monkeypatch):
    grid = sw.Grid(1.0, 1.5, 9, 13)
    monkeypatch.setattr("scipy.sparse.linalg.spsolve",
                        lambda A, b, **kwargs: np.full_like(b, np.nan))
    with pytest.raises(SingularSystem) as info:
        SOLVERS[name](ThetaField.zeros(grid), C_SWE, grid)
    assert str(info.value) == f"{name} on 9x13 (234 unknowns): direct solve produced non-finite values"


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_nonconvergence_names_direction_size_and_residual(name, monkeypatch):
    grid = sw.Grid(1.0, 1.5, 9, 13)
    exact_solve = scipy.sparse.linalg.spsolve
    # a ramp, not a constant: T annihilates constants, so their residual is 0
    monkeypatch.setattr("scipy.sparse.linalg.spsolve",
                        lambda A, b, **kwargs: exact_solve(A, b) + 1e-3 * np.linspace(0.0, 1.0, b.size))
    _, F = sw.manufactured_solution_T(C_SWE, grid)
    with pytest.raises(NonConvergence) as info:
        SOLVERS[name](F, C_SWE, grid)
    msg = str(info.value)
    assert msg.startswith(f"{name} on 9x13 (234 unknowns): equation-row residual ")
    assert msg.endswith(" exceeds 1e-10")
    assert float(msg.split("residual ")[1].split()[0]) > 1e-10


@pytest.mark.parametrize("coeffs, message", [
    ((1.0, 1.0, 1.0, 1.0), "alpha2*beta1 - alpha1*beta2 = 0.0 too close to zero"),
    ((math.nan, 1.0, 1.0, 0.0), "alpha1 must be finite, got nan"),
    ((0.0, 1.0, 1.0, 0.0), "need alpha1, alpha2 > 0, got (0.0, 1.0)"),
    ((1.0, -2.0, 1.0, 0.0), "need alpha1, alpha2 > 0, got (1.0, -2.0)"),
])
def test_elliptic_coeffs_check_their_own_conditions(coeffs, message):
    """EllipticCoeffs owns the conditions, so a solver never sees
    coefficients that violate them; build_coeffs reports the same."""
    for make in (sw.EllipticCoeffs, sw.build_coeffs):
        with pytest.raises(ViolatesCondition) as info:
            make(*coeffs)
        assert str(info.value) == message


# --- nested-dissection solve against the as-assembled COLAMD solve ----------

# the reference solve's coefficients and grids, plus a determinant of 1e-4
# and two strips thin enough to be numbered plainly along their long axis
ORDER_COEFFS = {**ASSEMBLY_COEFFS, "det-1e-4": sw.build_coeffs(1.0, 1.0, 0.5, 0.4999)}
ORDER_GRIDS = {**ASSEMBLY_GRIDS, "4x40": sw.Grid(1.0, 2.0, 4, 40),
               "40x4": sw.Grid(2.0, 1.0, 40, 4)}


def _assert_matches_reference_solve(F, c, grid):
    for solve, bc_rows, sign in ((sw.solve_T, elliptic._FORWARD_BC, 1.0),
                                 (sw.solve_T_star, elliptic._adjoint_bc(c), -1.0)):
        got = solve(F, c, grid)
        ref = reference_solve(F, c, grid, bc_rows, sign)
        scale = max(np.max(np.abs(ref.theta1)), np.max(np.abs(ref.theta2)))
        diff = max(np.max(np.abs(got.theta1 - ref.theta1)),
                   np.max(np.abs(got.theta2 - ref.theta2)))
        assert diff <= 1e-11 * scale, (sign, diff / scale)


@pytest.mark.parametrize("grid_name", sorted(ORDER_GRIDS))
@pytest.mark.parametrize("coeff_name", sorted(ORDER_COEFFS))
def test_solve_matches_reference_solve(coeff_name, grid_name):
    c, grid = ORDER_COEFFS[coeff_name], ORDER_GRIDS[grid_name]
    f = sw.band_limited_fields(sw.SplitMix64(11), grid.nx, grid.ny, n_fields=2)
    _assert_matches_reference_solve(ThetaField(f[0], f[1]), c, grid)


@settings(max_examples=40, deadline=None)
@given(
    a1=st.floats(0.05, 5.0), a2=st.floats(0.05, 5.0),
    b1=st.floats(-5.0, 5.0), b2=st.floats(-5.0, 5.0),
    nx=st.integers(4, 24), ny=st.integers(4, 24),
    l1=st.floats(0.2, 3.0), l2=st.floats(0.2, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_matches_reference_solve_property(a1, a2, b1, b2, nx, ny, l1, l2, seed):
    try:
        c = sw.build_coeffs(a1, a2, b1, b2)
    except ViolatesCondition:
        assume(False)
    # a nearly singular pair amplifies any change of pivot order: keep the
    # determinant within four decades of the largest coefficient squared
    assume(abs(c.det) >= 1e-4 * max(a1, a2, abs(b1), abs(b2)) ** 2)
    grid = sw.Grid(l1, l2, nx, ny)
    f = sw.band_limited_fields(sw.SplitMix64(seed), nx, ny, n_fields=2)
    _assert_matches_reference_solve(ThetaField(f[0], f[1]), c, grid)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(4, 80), ny=st.integers(4, 80))
def test_node_order_is_a_permutation(nx, ny):
    order = elliptic._node_order(nx, ny)
    assert np.array_equal(np.sort(order), np.arange(nx * ny))


# --- what the elliptic entry points reject ----------------------------------


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("component", ["theta1", "theta2"])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_non_finite_forcing_names_direction_component_and_node(name, component, value):
    grid = sw.Grid(1.0, 1.0, 9, 9)
    F = ThetaField.zeros(grid)
    getattr(F, component)[6, 1] = value
    getattr(F, component)[2, 7] = value  # row-major first
    if component == "theta1":
        F.theta2[0, 0] = value  # theta1 is reported before theta2
    with pytest.raises(NonFinite) as info:
        SOLVERS[name](F, C_SWE, grid)
    assert str(info.value) == (f"non-finite forcing for {name} on 9x9: "
                               f"first in component '{component}' at node (2, 7)")


ENTRY_POINTS = {
    "solve_T": lambda th, grid: sw.solve_T(th, C_SWE, grid),
    "solve_T_star": lambda th, grid: sw.solve_T_star(th, C_SWE, grid),
    "apply_T": lambda th, grid: apply_T(th, C_SWE, grid),
    "apply_T_star": lambda th, grid: apply_T_star(th, C_SWE, grid),
    "neumann_crosscheck": lambda th, grid: sw.neumann_crosscheck(th, C_SWE, grid),
    "cross_gradient_residual": lambda th, grid: sw.cross_gradient_residual(th, grid),
    "apriori_check": lambda th, grid: sw.apriori_check(th, C_SWE, grid),
}


def _grid_one_node_taller():
    th = ThetaField.zeros(sw.Grid(1.0, 1.0, 9, 9))
    return th, sw.Grid(1.0, 1.0, 9, 10), "field shape (9, 9) vs grid (9, 10)"


def _grid_one_node_wider():
    th = ThetaField.zeros(sw.Grid(1.0, 1.0, 9, 9))
    return th, sw.Grid(1.0, 1.0, 10, 9), "field shape (9, 9) vs grid (10, 9)"


@pytest.mark.parametrize("misfit", [_grid_one_node_taller, _grid_one_node_wider],
                         ids=["grid-9x10", "grid-10x9"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_check_both_components_against_the_grid(entry, misfit):
    """Every entry point checks the field against the grid along both axes.
    The view is frozen and its components share one shape, so checking
    theta1 checks theta2 as well (test_field_views_are_frozen)."""
    th, grid, message = misfit()
    with pytest.raises(ShapeMismatch) as info:
        ENTRY_POINTS[entry](th, grid)
    assert str(info.value) == message


@pytest.mark.parametrize("view, component", [
    (ThetaField, "theta1"), (ThetaField, "theta2"),
    (sw.StateField, "u"), (sw.StateField, "v"), (sw.StateField, "phi"),
], ids=["theta1", "theta2", "u", "v", "phi"])
def test_field_views_are_frozen(view, component):
    """A component cannot be replaced after the shape check: energy_value
    on a state with phi swapped for a (1, 9) array used to broadcast and
    return 10.18.  dataclasses.replace checks the shapes again."""
    field = view.zeros(sw.Grid(1.0, 1.0, 9, 9))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(field, component, np.ones((1, 9)))
    assert getattr(field, component).shape == (9, 9)
    with pytest.raises(ShapeMismatch):
        dataclasses.replace(field, **{component: np.ones((1, 9))})


def test_coefficients_whose_square_overflows_are_rejected():
    """The degeneracy test squares the largest coefficient; msub at
    u0 = v0 = 1e-155 gives coefficients ~5e154, whose square raised a bare
    OverflowError.  NumPy floats take the same path, without a warning."""
    message = "^the largest coefficient magnitude squared overflows a float: max "
    with pytest.raises(InvalidValue, match=message):
        sw.swe_elliptic_block(sw.validate_params(1e-155, 1e-155, 1.0, 9.81))
    with pytest.raises(InvalidValue, match=message):
        sw.EllipticCoeffs(*np.array([5e154, 5e154, 5e154, -5e154]))
