"""Behaviour oracles: the x<->y swap symmetry, golden energy logs and
golden elliptic solutions.

A refactor of the catalogs, the enforcement or the stepper must leave the
first two untouched: the swap maps every regime onto a regime the package
also covers (MixedHyperbolicI onto MixedHyperbolicII), and the golden logs
pin the energy trajectory of fixed seeded runs.  The elliptic fingerprints
pin what solve_T and solve_T_star return, so a change to the assembly or
the solve cannot move a solution unnoticed.  The exact goldens pin the
quadratures and two seeded runs bit for bit, for refactors that promise to
keep every floating-point operation in order.
"""

import hashlib

import numpy as np
import pytest

import swerect as sw
from swerect.manufactured import DEFAULT_SOLUTION

from helpers import REGIME_CASES, draw_params


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


# --- exact goldens ------------------------------------------------------------
# Recorded before the operator's one-sided differences were folded into one
# kernel and the trapezoid copies into fields.integrate; both refactors keep
# every floating-point operation in order, so these hold with ==, not a
# tolerance.  Fields are band_limited_fields(SplitMix64(11), 7 fields) on
# 33x29 over [0,1]x[0,1.3]; the theta pair is zeroed where discrete V pins it,
# and the energies use one draw_params state per regime from SplitMix64(19).

EXACT_ENERGY = {
    "fhs": 0.8439232109125662,
    "mix1": 1.5669613766906882,
    "mix2": 2.020467822117277,
    "msub": 1.4602905326448634,
    "super": 1.4687433155085294,
}
EXACT_QUADRATURE = {
    "l2_norm_stack": 0.648031440897076,
    "l2_norm_plane": 0.3454730627513913,
    "theta_inner": -0.010185081397779018,
    "cross_gradient_residual": 8.881784197001252e-16,
    "grad_norm": 14.023453240633929,
    "T_norm": 10.639640075985733,
    "slack": 59.52835611621936,
}


def _exact_inputs():
    grid = sw.Grid(1.0, 1.3, 33, 29)
    f = sw.band_limited_fields(sw.SplitMix64(11), grid.nx, grid.ny, n_fields=7)
    t1, t2 = f[3].copy(), f[4].copy()
    t1[0, :] = t1[:, 0] = 0.0
    t2[-1, :] = t2[:, -1] = 0.0
    return grid, f, sw.ThetaField(t1, t2)


def _exact_energies():
    grid, f, _ = _exact_inputs()
    U = sw.StateField.from_stack(f[:3])
    rng = sw.SplitMix64(19)
    return {kind: sw.energy_value(U, grid, draw_params(kind, rng)) for kind in sorted(REGIME_CASES)}


def _exact_quadrature():
    grid, f, theta = _exact_inputs()
    c = sw.swe_elliptic_block(sw.validate_params(*REGIME_CASES["msub"]))
    rep = sw.apriori_check(theta, c, grid)
    return {
        "l2_norm_stack": sw.l2_norm(f[:3], grid),
        "l2_norm_plane": sw.l2_norm(f[3], grid),
        "theta_inner": sw.theta_inner(sw.ThetaField(f[3], f[4]), sw.ThetaField(f[5], f[6]), grid),
        "cross_gradient_residual": sw.cross_gradient_residual(theta, grid),
        "grad_norm": rep.grad_norm,
        "T_norm": rep.T_norm,
        "slack": rep.slack,
    }


def test_exact_energy_values():
    assert _exact_energies() == EXACT_ENERGY


def test_exact_quadrature_values():
    assert _exact_quadrature() == EXACT_QUADRATURE


# sha256 of every snapshot stack, the energy log and the final stack of two
# seeded runs with snapshot_cadence > 0 on 17x13 over [0,1]x[0,1.3],
# t_end = 0.05: a homogeneous fhs run (f = 3, seed 5, cadence 4) and an msub
# run driven by the manufactured solution (f = -2, cadence 5)
EXACT_RUN_DIGESTS = {
    "fhs-homogeneous": (
        ["994d707f5bb36762ccd33683b757b8b7924398c8de05a5cd5271a794c0b9bfa9",
         "07fccbb6fbb04462e7b8b2795e967b7e4f18b7e54f61dfbce160db9dccc9bc76",
         "5fee3cc4a731f29dc61087009d5ac3390f74a36b82675a4501a7154db1a2c71d",
         "25da4146b152166bccea7e7afbb5ace3cbda7cfdaf6ace43abdef8b6115ffd1b",
         "a51eb8765a17ca6c51ed7063de2be89b09e2a5de29e3e66cba2be7d97c5f5a8b"],
        "83db7517e3002c6aa47103873b9e046dc5e1c39916fd41828b9f7df08ce359a1",
        "a51eb8765a17ca6c51ed7063de2be89b09e2a5de29e3e66cba2be7d97c5f5a8b",
    ),
    "msub-manufactured": (
        ["6176bf58da6202cb9717e08ef09e61dc6c366be0a3ee5b0412caba901b5d71e2",
         "22e11e40e80fb0b18158a3b133cc2732d50aa481e27ddaeadef914d54500b6cc",
         "18640e27caa6f6c8279519f0429354989abc8c4de91db7f5864724e3987cb1d4",
         "dc3dd8f06f162c2c39e861a0b9865edbf5c3cd4b1340cea0b7328d71c1fb6835"],
        "9a5651355777e724bc21f2842310b049ac51a2e19388351aa3d76472874ca59b",
        "dc3dd8f06f162c2c39e861a0b9865edbf5c3cd4b1340cea0b7328d71c1fb6835",
    ),
}


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def _exact_run_digests(name):
    grid = sw.Grid(1.0, 1.3, 17, 13)
    if name == "fhs-homogeneous":
        p = sw.validate_params(*REGIME_CASES["fhs"], 3.0)
        res = _run(p, grid, sw.band_limited_fields(sw.SplitMix64(5), 17, 13), snapshot_cadence=4)
    else:
        p = sw.validate_params(*REGIME_CASES["msub"], -2.0)
        spec = sw.bc_catalog(sw.classify(p), p)
        res = _run(p, grid, DEFAULT_SOLUTION.state(*grid.meshgrid(), 0.0), snapshot_cadence=5,
                   forcing=DEFAULT_SOLUTION.forcing_on_grid(p, grid),
                   boundary_data=sw.BoundaryData.from_state_samples(spec, grid,
                                                                    DEFAULT_SOLUTION.state))
    return ([_digest(s.stack()) for _, s in res.snapshots],
            _digest(res.log.energies), _digest(res.final.stack()))


@pytest.mark.parametrize("name", sorted(EXACT_RUN_DIGESTS))
def test_exact_run_digests(name):
    assert _exact_run_digests(name) == EXACT_RUN_DIGESTS[name]
