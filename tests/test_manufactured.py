"""The manufactured-solution oracle: derivatives, forcing and input shapes.

The MMS ladder trusts ManufacturedSolution for both its forcing and its
exact answer, so these checks pin the separable formula independently:
dt/dx/dy against central differences of state, forcing against the PDE
composed here from those pieces, and open-grid inputs against meshgrids.
"""

import numpy as np
import pytest

import swerect as sw
from swerect.manufactured import DEFAULT_SOLUTION

from helpers import REGIME_CASES

SOLUTIONS = [DEFAULT_SOLUTION, sw.ManufacturedSolution(ph=(4.0, 0.5, 5.9))]


def _points(seed, n=64):
    """Seeded positions in [-0.5, 2]^2 and times in [0, 3]."""
    d = sw.SplitMix64(seed).doubles(3 * n).reshape(3, n)
    return -0.5 + 2.5 * d[0], -0.5 + 2.5 * d[1], 3.0 * d[2]


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("sol", SOLUTIONS)
def test_derivatives_match_central_differences(sol):
    h, U = 1e-6, sol.state
    x, y, ts = _points(11)
    for t in ts[:8]:
        fd = {
            "dt": (U(x, y, t + h) - U(x, y, t - h)) / (2 * h),
            "dx": (U(x + h, y, t) - U(x - h, y, t)) / (2 * h),
            "dy": (U(x, y + h, t) - U(x, y - h, t)) / (2 * h),
        }
        for name, want in fd.items():
            assert _rel(getattr(sol, name)(x, y, t), want) <= 1e-7, (name, t)


@pytest.mark.parametrize("f", [0.0, 5.0])
@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_forcing_is_the_pde_residual(kind, f):
    p = sw.validate_params(*REGIME_CASES[kind], f)
    m = sw.coefficient_matrices(p)
    B = np.array([[0.0, -f, 0.0], [f, 0.0, 0.0], [0.0, 0.0, 0.0]])
    grid = sw.Grid(1.0, 1.5, 21, 17)
    x, y, ts = _points(23)
    inputs = [(x, y), (grid.x[:, None], grid.y[None, :])]
    for sol in SOLUTIONS:
        for t in ts[:4]:
            for xs, ys in inputs:
                want = (sol.dt(xs, ys, t)
                        + np.einsum("ab,b...->a...", m.E1, sol.dx(xs, ys, t))
                        + np.einsum("ab,b...->a...", m.E2, sol.dy(xs, ys, t))
                        + np.einsum("ab,b...->a...", B, sol.state(xs, ys, t)))
                assert _rel(sol.forcing(xs, ys, t, p), want) <= 1e-14, (kind, f, t)


def test_open_grid_matches_meshgrid_and_paired_points_keep_shape():
    p = sw.validate_params(*REGIME_CASES["msub"], 5.0)
    grid = sw.Grid(1.0, 1.5, 21, 17)
    X, Y = grid.meshgrid()
    xo, yo = grid.x[:, None], grid.y[None, :]
    for sol in SOLUTIONS:
        for name in ("state", "dt", "dx", "dy", "forcing"):
            fn = getattr(sol, name)
            args = (p,) if name == "forcing" else ()
            mesh, open_ = fn(X, Y, 0.4, *args), fn(xo, yo, 0.4, *args)
            assert mesh.shape == open_.shape == (3, grid.nx, grid.ny), name
            assert _rel(open_, mesh) <= 1e-15, name
            # a side's boundary nodes: paired 1-D coordinates, one value each
            paired = fn(grid.x, np.full(grid.nx, grid.l2), 0.4, *args)
            assert paired.shape == (3, grid.nx), name
            assert _rel(paired, mesh[:, :, -1]) <= 1e-15, name
    field = DEFAULT_SOLUTION.state_field(grid, 0.4)
    assert np.array_equal(field.stack(), DEFAULT_SOLUTION.state(X, Y, 0.4))
    assert np.array_equal(DEFAULT_SOLUTION.forcing_on_grid(p, grid)(0.4),
                          DEFAULT_SOLUTION.forcing(xo, yo, 0.4, p))


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_grid_closure_equals_public_forcing(kind):
    """The closure's prebuilt basis gives the bits of a full forcing call,
    and its stacks are read-only (the stepper reuses them)."""
    for f in (0.0, 5.0):
        p = sw.validate_params(*REGIME_CASES[kind], f)
        for grid in (sw.Grid(1.0, 1.0, 17, 17), sw.Grid(2.0, 0.7, 9, 23)):
            for sol in SOLUTIONS:
                F = sol.forcing_on_grid(p, grid)
                for t in (0.0, 0.25, 1.0 / 3.0, 2.7):
                    got = F(t)
                    want = sol.forcing(grid.x[:, None], grid.y[None, :], t, p)
                    assert np.array_equal(got, want), (f, grid, t)
                    assert not got.flags.writeable
                    with pytest.raises(ValueError):
                        got[0, 0, 0] = 1.0


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_grid_boundary_data_equals_state_samples(kind):
    """The per-grid samplers give the bits of sampling through state(), on
    every constrained side and at every t, and the config's manufactured
    boundary kind uses them."""
    p = sw.validate_params(*REGIME_CASES[kind])
    spec = sw.bc_catalog(p)
    for grid in (sw.Grid(1.0, 1.0, 17, 17), sw.Grid(2.0, 0.7, 9, 23)):
        for sol in SOLUTIONS:
            got = sol.boundary_data_on_grid(spec, grid)
            want = sw.BoundaryData.from_state_samples(spec, grid, sol.state)
            assert got.samplers.keys() == want.samplers.keys()
            for side in sw.SIDES:
                k = spec.rows[side].shape[0]
                n = grid.ny if side in (sw.Side.WEST, sw.Side.EAST) else grid.nx
                for t in (0.0, 0.25, 1.0 / 3.0, 2.7, 1e3):
                    a, b = got.sample(side, t, k, n), want.sample(side, t, k, n)
                    assert np.array_equal(a, b), (side, grid, t)


def test_config_manufactured_boundary_uses_grid_samplers():
    text = ("[physics]\nu0 = 1.0\nv0 = 1.0\nphi0 = 1.0\ng = 9.81\n"
            "[grid]\nL1 = 1.0\nL2 = 1.5\nnx = 9\nny = 13\n"
            "[run]\nt_end = 0.05\ncfl = 0.45\n[boundary]\nkind = manufactured\n")
    cfg = sw.build_run_config(sw.parse_config(text))
    spec = sw.bc_catalog(cfg.p)
    want = sw.BoundaryData.from_state_samples(spec, cfg.grid, DEFAULT_SOLUTION.state)
    assert cfg.boundary_data.samplers.keys() == want.samplers.keys()
    for side, sample in want.samplers.items():
        assert np.array_equal(cfg.boundary_data.samplers[side](0.3), sample(0.3))
