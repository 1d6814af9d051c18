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


# float.hex of the mms_convergence errors on refinement_ladder(Grid(1, 1, 9, 9),
# 2) with t_end = 0.05 and the default solution, recorded before the per-grid
# manufactured boundary samplers replaced sampling through state(): they keep
# every floating-point operation of that path, so these hold with ==
EXACT_MMS_ERRORS = {
    ("fhs", 0.0, "ssprk2"): ("0x1.c714461b4e8e5p-6", "0x1.047e7bbf3f543p-6"),
    ("fhs", 0.0, "euler"): ("0x1.d41566746d86fp-6", "0x1.07c5f6bd9b1b9p-6"),
    ("fhs", 5.0, "ssprk2"): ("0x1.c5f53459600f2p-6", "0x1.03dfa266951eep-6"),
    ("fhs", 5.0, "euler"): ("0x1.d34dd24bc1aa1p-6", "0x1.0747efedad572p-6"),
    ("mix1", 0.0, "ssprk2"): ("0x1.1089a745b3f25p-5", "0x1.273ad7b154616p-6"),
    ("mix1", 0.0, "euler"): ("0x1.1a0849ef5ab0fp-5", "0x1.2c1161c7e7d91p-6"),
    ("mix1", 5.0, "ssprk2"): ("0x1.0faac1ea8aaf0p-5", "0x1.26602ec503e5ap-6"),
    ("mix1", 5.0, "euler"): ("0x1.1978f0d1e2e8fp-5", "0x1.2b6382e92c40cp-6"),
    ("mix2", 0.0, "ssprk2"): ("0x1.ee35b8c60230ap-6", "0x1.1791544315203p-6"),
    ("mix2", 0.0, "euler"): ("0x1.fb0e2e3df7255p-6", "0x1.1a7fae2c9b526p-6"),
    ("mix2", 5.0, "ssprk2"): ("0x1.eef4fe0ae9269p-6", "0x1.177f0467817c2p-6"),
    ("mix2", 5.0, "euler"): ("0x1.fbd8283a7da2ap-6", "0x1.1a774942aa9dcp-6"),
    ("msub", 0.0, "ssprk2"): ("0x1.3eaaa56a8b81bp-5", "0x1.076f22cc7d4aep-6"),
    ("msub", 0.0, "euler"): ("0x1.461be3397e24fp-5", "0x1.0b1be46f7523ep-6"),
    ("msub", 5.0, "ssprk2"): ("0x1.3eb16b6e6f54fp-5", "0x1.06db6ef428b92p-6"),
    ("msub", 5.0, "euler"): ("0x1.460e35cc87d63p-5", "0x1.0aa3be220d99cp-6"),
    ("super", 0.0, "ssprk2"): ("0x1.27f56a9376bcbp-5", "0x1.3d81bba39aa17p-6"),
    ("super", 0.0, "euler"): ("0x1.303ff0e8bb180p-5", "0x1.41a962c1fbd32p-6"),
    ("super", 5.0, "ssprk2"): ("0x1.2784388e45d39p-5", "0x1.3cf9d2386cb15p-6"),
    ("super", 5.0, "euler"): ("0x1.2ff604002ed5fp-5", "0x1.4136bd92bf1c5p-6"),
}


@pytest.mark.parametrize("key", sorted(EXACT_MMS_ERRORS), ids=lambda k: f"{k[0]}-f{k[1]:g}-{k[2]}")
def test_exact_mms_errors(key):
    kind, f, scheme = key
    p = sw.validate_params(*REGIME_CASES[kind], f)
    grids = sw.refinement_ladder(sw.Grid(1.0, 1.0, 9, 9), 2)
    rep = sw.mms_convergence(p, grids, t_end=0.05, scheme=scheme)
    assert tuple(e.hex() for e in rep.errors) == EXACT_MMS_ERRORS[key]


# --- linearity ----------------------------------------------------------------


@pytest.mark.parametrize("f", [0.0, 3.0])
@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_superposition_under_homogeneous_data(kind, f):
    """With zero forcing and zero boundary data the discrete evolution is
    linear: run(a U + b V) = a run(U) + b run(V) at every snapshot, to
    round-off.  a + b != 1, so an affine term anywhere in the enforcement or
    the stepper shows up as a defect."""
    p = sw.validate_params(*REGIME_CASES[kind], f)
    grid = sw.Grid(1.0, 1.3, 21, 17)
    U, V = sw.band_limited_fields(sw.SplitMix64(41), grid.nx, grid.ny, n_fields=6).reshape(
        2, 3, grid.nx, grid.ny)
    a, b = 0.7, -1.9
    ru, rv, rw = (_run(p, grid, W, snapshot_cadence=4) for W in (U, V, a * U + b * V))
    assert len(rw.snapshots) == len(ru.snapshots) == len(rv.snapshots) > 2
    for (t, su), (_, sv), (_, sw_) in zip(ru.snapshots, rv.snapshots, rw.snapshots):
        want = a * su.stack() + b * sv.stack()
        assert np.max(np.abs(sw_.stack() - want)) <= 1e-13 * np.max(np.abs(want)), t


# --- probe and lift goldens -----------------------------------------------------

# float.hex of positivity_probe's min_quotient on Grid(1, 1.5, 17, 23), six
# samples from seed 11, and the sha256 of the lifted forcing at t = 0.37 with
# the manufactured solution as lifting field on 17x17 (fhs), recorded before
# the probe and the lift moved onto (3, nx, ny) stacks
EXACT_PROBE_QUOTIENTS = {
    "fhs": "0x1.93a4225057d05p+4",
    "mix1": "0x1.ca1b94a9ff453p+4",
    "mix2": "0x1.e363e0fd693ddp+4",
    "msub": "0x1.56da0d09b2288p+4",
    "super": "0x1.0af227e0cea46p+5",
}
EXACT_LIFTED_FORCING = "40cfc96ce63cc597e573027a741ea36d430a192a69f220352da772e57810cc33"


@pytest.mark.parametrize("kind", sorted(EXACT_PROBE_QUOTIENTS))
def test_exact_probe_quotients(kind):
    p = sw.validate_params(*REGIME_CASES[kind])
    rep = sw.positivity_probe(p, sw.classify(p), sw.Grid(1.0, 1.5, 17, 23), 6, 11)
    assert rep.min_quotient.hex() == EXACT_PROBE_QUOTIENTS[kind]


def test_exact_lifted_forcing():
    p = sw.validate_params(*REGIME_CASES["fhs"])
    grid = sw.Grid(1.0, 1.0, 17, 17)
    x, y = grid.x[:, None], grid.y[None, :]

    def ug(t):
        return DEFAULT_SOLUTION.state(x, y, t)

    def dug_dt(t):
        return DEFAULT_SOLUTION.dt(x, y, t)

    lifted = sw.lift_nonhomogeneous(ug, dug_dt, DEFAULT_SOLUTION.forcing_on_grid(p, grid), p, grid)
    assert _digest(lifted.forcing(0.37)) == EXACT_LIFTED_FORCING
