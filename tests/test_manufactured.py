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
