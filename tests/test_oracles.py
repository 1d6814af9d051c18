"""Behaviour oracles: the x<->y swap symmetry, golden energy logs and
golden elliptic solutions.

A refactor of the catalogs, the enforcement or the stepper must leave the
first two untouched: the swap maps every regime onto a regime the package
also covers (MixedHyperbolicI onto MixedHyperbolicII), and the golden logs
pin the energy trajectory of fixed seeded runs.  The elliptic fingerprints
pin what solve_T and solve_T_star return, so a change to the assembly or
the solve cannot move a solution unnoticed.
"""

import numpy as np
import pytest

import swerect as sw
from swerect.manufactured import DEFAULT_SOLUTION

from helpers import REGIME_CASES


def _swapped(W):
    """(u, v, phi)(x, y) -> (v, u, phi)(y, x) on a (3, nx, ny) stack."""
    return np.stack([W[1].T, W[0].T, W[2].T])


def _run(p, grid, initial, **kw):
    return sw.run(sw.RunConfig(p=p, grid=grid, t_end=0.05,
                               initial=sw.StateField.from_stack(initial), **kw))


@pytest.mark.parametrize("f", [0.0, 3.0])
@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_xy_swap_symmetry(kind, f):
    u0, v0, phi0, g = REGIME_CASES[kind]
    p = sw.validate_params(u0, v0, phi0, g, f)
    q = sw.validate_params(v0, u0, phi0, g, -f)
    grid, swapped_grid = sw.Grid(1.0, 1.5, 33, 41), sw.Grid(1.5, 1.0, 41, 33)
    W0 = sw.band_limited_fields(sw.SplitMix64(5), grid.nx, grid.ny)

    a = _run(p, grid, W0)
    b = _run(q, swapped_grid, _swapped(W0))

    assert b.n_steps == a.n_steps
    want = _swapped(a.final.stack())
    assert np.max(np.abs(b.final.stack() - want)) <= 1e-13 * np.max(np.abs(want))
    ea, eb = np.array(a.log.energies), np.array(b.log.energies)
    assert np.all(np.abs(eb - ea) <= 1e-13 * np.abs(ea))


# (regime, f) -> (n_steps, energies at steps 0, n/2, n): homogeneous runs on
# 24x24, seed-3 band-limited initial state, t_end = 0.05
GOLDEN_HOMOGENEOUS = {
    ("fhs", 0.0): (29, (1.4554927839508491, 0.45544873941328584, 0.24006458022889934)),
    ("fhs", 5.0): (29, (1.4554927839508491, 0.45532816242188306, 0.2393797108459723)),
    ("mix1", 0.0): (32, (1.3852509662188754, 0.3520783093345927, 0.16604687721678632)),
    ("mix1", 5.0): (32, (1.3852509662188754, 0.3515062436200621, 0.16451064258480338)),
    ("mix2", 0.0): (32, (1.3714060650994813, 0.34890385827984893, 0.1732933245781166)),
    ("mix2", 5.0): (32, (1.3714060650994813, 0.3480581472349807, 0.17185152955914992)),
    ("msub", 0.0): (22, (2.3014353315002753, 0.37955265098939267, 0.1821973479840665)),
    ("msub", 5.0): (22, (2.3014353315002753, 0.38030213050566747, 0.18424097375062623)),
    ("super", 0.0): (37, (1.3369082075932157, 0.31479722034506263, 0.1427608830370001)),
    ("super", 5.0): (37, (1.3369082075932157, 0.3137650052210412, 0.14056181784542396)),
}

# the same entries for an fhs run driven by the manufactured solution:
# its forcing, its initial state and non-homogeneous data sampled from it
GOLDEN_MANUFACTURED = (29, (1.821739158669013, 1.7575250308040395, 1.691165874310558))

# manufactured runs with rotation f = 5, which pin the forcing's B U term
GOLDEN_MANUFACTURED_ROTATING = {
    "fhs": (29, (1.821739158669013, 1.7575401881251633, 1.6913057394007271)),
    "msub": (22, (1.8215723932359538, 1.7553010889226823, 1.6924867479585288)),
}


def _fingerprint(res):
    n = res.n_steps
    e = res.log.energies
    return n, (e[0], e[n // 2], e[n])


def _assert_golden(res, golden):
    n, energies = _fingerprint(res)
    assert n == golden[0]
    assert energies == pytest.approx(golden[1], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("key", sorted(GOLDEN_HOMOGENEOUS), ids=lambda k: f"{k[0]}-f{k[1]:g}")
def test_golden_energy_homogeneous(key):
    kind, f = key
    p = sw.validate_params(*REGIME_CASES[kind], f)
    grid = sw.Grid(1.0, 1.0, 24, 24)
    res = _run(p, grid, sw.band_limited_fields(sw.SplitMix64(3), grid.nx, grid.ny))
    _assert_golden(res, GOLDEN_HOMOGENEOUS[key])


def _manufactured_run(kind, f):
    p = sw.validate_params(*REGIME_CASES[kind], f)
    grid = sw.Grid(1.0, 1.0, 24, 24)
    spec = sw.bc_catalog(sw.classify(p), p)
    return _run(p, grid, DEFAULT_SOLUTION.state(*grid.meshgrid(), 0.0),
                forcing=DEFAULT_SOLUTION.forcing_on_grid(p, grid),
                boundary_data=sw.BoundaryData.from_state_samples(spec, grid, DEFAULT_SOLUTION.state))


def test_golden_energy_manufactured():
    _assert_golden(_manufactured_run("fhs", 0.0), GOLDEN_MANUFACTURED)


@pytest.mark.parametrize("kind", sorted(GOLDEN_MANUFACTURED_ROTATING))
def test_golden_energy_manufactured_rotating(kind):
    _assert_golden(_manufactured_run(kind, 5.0), GOLDEN_MANUFACTURED_ROTATING[kind])


# (nx, ny, solver, forcing) -> (|theta1|, |theta2|, sum(theta1 w), sum(theta2 w))
# on the msub elliptic block; 33x33 on the unit square, 17x25 on
# [0,1]x[0,1.5]; seeded forcing is band_limited_fields(SplitMix64(7), 4 fields)
GOLDEN_ELLIPTIC = {
    (33, 33, "T", "manufactured"): (15.852381870231163, 16.95147310676403, 4161.974767565745, 5176.900639933041),
    (33, 33, "T*", "manufactured"): (16.57245058856934, 16.57245058856934, 2378.8983939563477, -4970.463924222083),
    (33, 33, "T", "seeded"): (0.6174544657181883, 0.6426660761738248, -68.23732645794037, -10.745623348670861),
    (33, 33, "T*", "seeded"): (0.7428543404790756, 0.6967009377259377, 74.80811044258368, 1.4548116590192492),
    (17, 25, "T", "manufactured"): (9.824489829288275, 10.505143449736313, 1190.8033618065451, 1516.192595010558),
    (17, 25, "T*", "manufactured"): (10.263283502910578, 10.30111757223541, 725.530267853462, -1475.6073990153902),
    (17, 25, "T", "seeded"): (0.6207264554212915, 0.6099486230997758, 37.79794696862892, 30.82480783878706),
    (17, 25, "T*", "seeded"): (1.1245686895171003, 1.2358996404946845, 10.172566644469036, -118.52501210427029),
}


def _elliptic_fingerprint(th):
    t1, t2 = th.theta1, th.theta2
    nx, ny = t1.shape
    w = np.add.outer(np.arange(1, nx + 1) / nx, np.arange(1, ny + 1) ** 2 / ny)
    return (float(np.sqrt(np.sum(t1 * t1))), float(np.sqrt(np.sum(t2 * t2))),
            float(np.sum(t1 * w)), float(np.sum(t2 * w)))


@pytest.mark.parametrize("key", sorted(GOLDEN_ELLIPTIC), ids=lambda k: f"{k[0]}x{k[1]}-{k[2]}-{k[3]}")
def test_golden_elliptic_solution(key):
    nx, ny, solver, forcing = key
    c = sw.swe_elliptic_block(sw.validate_params(*REGIME_CASES["msub"]))
    grid = sw.Grid(1.0, 1.0 if nx == ny else 1.5, nx, ny)
    if forcing == "manufactured":
        make = sw.manufactured_solution_T if solver == "T" else sw.manufactured_solution_T_star
        F = make(c, grid)[1]
    else:
        f = sw.band_limited_fields(sw.SplitMix64(7), nx, ny, n_fields=4)
        F = sw.ThetaField(*(f[:2] if solver == "T" else f[2:]))
    solve = sw.solve_T if solver == "T" else sw.solve_T_star
    got = _elliptic_fingerprint(solve(F, c, grid))
    assert got == pytest.approx(GOLDEN_ELLIPTIC[key], rel=1e-15, abs=0.0)
