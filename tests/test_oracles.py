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

from helpers import REGIME_CASES, draw_params, run_with_snapshots


def _swapped(W):
    """(u, v, phi)(x, y) -> (v, u, phi)(y, x) on a (3, nx, ny) stack."""
    return np.stack([W[1].T, W[0].T, W[2].T])


def _run(p, grid, initial, **kw):
    return sw.run(sw.RunConfig(p=p, grid=grid, t_end=0.05,
                               initial=sw.StateField.from_stack(initial), **kw))


def _run_with_snapshots(p, grid, initial, **kw):
    return run_with_snapshots(sw.RunConfig(p=p, grid=grid, t_end=0.05,
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
# 24x24, seed-3 band-limited initial state, t_end = 0.05.  Every run golden
# below was recorded with the energy-orthogonal boundary projection; the
# Supercritical entries predate it, since a node class with three kept rows
# is set from its data alone either way
GOLDEN_HOMOGENEOUS = {
    ("fhs", 0.0): (29, (1.355279527830267, 0.4261058613717963, 0.22682676384146144)),
    ("fhs", 5.0): (29, (1.355279527830267, 0.4249589333986213, 0.22471456400572107)),
    ("mix1", 0.0): (32, (1.3411189493137436, 0.34231004499353834, 0.16421958668992762)),
    ("mix1", 5.0): (32, (1.3411189493137436, 0.34126000682253843, 0.16266433752708095)),
    ("mix2", 0.0): (32, (1.345260820254813, 0.3438605832376343, 0.17077614604047667)),
    ("mix2", 5.0): (32, (1.345260820254813, 0.3429915377372999, 0.16897772116225773)),
    ("msub", 0.0): (22, (1.3026704503158795, 0.36648246760282566, 0.18911788267337212)),
    ("msub", 5.0): (22, (1.3026704503158795, 0.3661433499770499, 0.18973452138033453)),
    ("super", 0.0): (37, (1.3369082075932157, 0.31479722034506263, 0.1427608830370001)),
    ("super", 5.0): (37, (1.3369082075932157, 0.3137650052210412, 0.14056181784542396)),
}

# the same entries for an fhs run driven by the manufactured solution:
# its forcing, its initial state and non-homogeneous data sampled from it
GOLDEN_MANUFACTURED = (29, (1.8209798017318546, 1.756605755702708, 1.6902492875421962))

# manufactured runs with rotation f = 5, which pin the forcing's B U term
GOLDEN_MANUFACTURED_ROTATING = {
    "fhs": (29, (1.8209798017318546, 1.7566099155225208, 1.6903474265086587)),
    "msub": (22, (1.8209798017318546, 1.756306739581217, 1.6947647151952143)),
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
    spec = sw.bc_catalog(p)
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
    (33, 33, "T", "manufactured"): (15.852381870231158, 16.95147310676402, 4161.974767565735, 5176.900639933036),
    (33, 33, "T*", "manufactured"): (16.572450588569335, 16.57245058856934, 2378.8983939563477, -4970.463924222084),
    (33, 33, "T", "seeded"): (0.6174544657181882, 0.6426660761738251, -68.23732645794041, -10.745623348670794),
    (33, 33, "T*", "seeded"): (0.7428543404790763, 0.6967009377259382, 74.80811044258427, 1.454811659019775),
    (17, 25, "T", "manufactured"): (9.82448982928827, 10.50514344973631, 1190.8033618065435, 1516.1925950105574),
    (17, 25, "T*", "manufactured"): (10.263283502910582, 10.301117572235407, 725.5302678534624, -1475.6073990153905),
    (17, 25, "T", "seeded"): (0.6207264554212913, 0.609948623099776, 37.797946968628864, 30.824807838787088),
    (17, 25, "T*", "seeded"): (1.1245686895171005, 1.2358996404946845, 10.172566644469015, -118.52501210427033),
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
# run driven by the manufactured solution (f = -2, cadence 5); re-recorded
# when each upwind term became one matrix product with 1/h in the matrix
EXACT_RUN_DIGESTS = {
    "fhs-homogeneous": (
        ["763ccbc174f2277334ff1324a8b635576a03e0b30620a4ddf8dd537d5697261d",
         "c5863169c7459e613a7122903c06b0d931ba4d1ed11df4b0e68f9c9700b0948e",
         "0f4dcaf31b0f221fd248ef8b0da705d2da2362f886cc7f7efdf7330d64a50931",
         "93bf53915ffbdbe1a8e5315b91fc4d0cf6a7b70c4a6b650320d4e7d44db292ce",
         "83624e1fda6c5223874381d2df58091c463b21019bba791119c8c6fbc2b04792"],
        "8c4efa1808b91e8d55e7b92b38da6bccc33d62a375d6eb6084a8de92bda67ac8",
        "83624e1fda6c5223874381d2df58091c463b21019bba791119c8c6fbc2b04792",
    ),
    "msub-manufactured": (
        ["e7a6e21a00ee2397981a2959af318ccb355cac745c3fd78185b7d8696f1849c2",
         "b9514a5b378eb61f65765cef2224c9b00d7bc85353d6ba48df7b075514775dea",
         "522c932792981f76ed3f3614cecff02c0b71fd90bc549ae8ac637cccb55cf92a",
         "f7f4051b6b9ff86668c60b8e54eb4ccd925695db8e6c40fc2c5aa04737a8167e"],
        "10d5ff650f1963bebbec3ad2753be09772712f48aebf079b4f97a8cdd04b59e6",
        "f7f4051b6b9ff86668c60b8e54eb4ccd925695db8e6c40fc2c5aa04737a8167e",
    ),
}


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def _exact_run_digests(name):
    grid = sw.Grid(1.0, 1.3, 17, 13)
    if name == "fhs-homogeneous":
        p = sw.validate_params(*REGIME_CASES["fhs"], 3.0)
        res, snapshots = _run_with_snapshots(
            p, grid, sw.band_limited_fields(sw.SplitMix64(5), 17, 13), snapshot_cadence=4)
    else:
        p = sw.validate_params(*REGIME_CASES["msub"], -2.0)
        spec = sw.bc_catalog(p)
        res, snapshots = _run_with_snapshots(
            p, grid, DEFAULT_SOLUTION.state(*grid.meshgrid(), 0.0), snapshot_cadence=5,
            forcing=DEFAULT_SOLUTION.forcing_on_grid(p, grid),
            boundary_data=sw.BoundaryData.from_state_samples(spec, grid, DEFAULT_SOLUTION.state))
    return ([_digest(s.stack()) for _, s in snapshots],
            _digest(res.log.energies), _digest(res.final.stack()))


@pytest.mark.parametrize("name", sorted(EXACT_RUN_DIGESTS))
def test_exact_run_digests(name):
    assert _exact_run_digests(name) == EXACT_RUN_DIGESTS[name]


# float.hex of the mms_convergence errors on refinement_ladder(Grid(1, 1, 9, 9),
# 2) with t_end = 0.05 and the default solution, recorded before the per-grid
# manufactured boundary samplers replaced sampling through state(): they keep
# every floating-point operation of that path, so these hold with ==.  The
# non-supercritical entries were re-recorded with the energy-orthogonal
# boundary projection, and all of them when each upwind term became one
# matrix product with 1/h in the matrix
EXACT_MMS_ERRORS = {
    ("fhs", 0.0, "ssprk2"): ("0x1.f9ead776dc050p-6", "0x1.0ffd2f46ea5e3p-6"),
    ("fhs", 0.0, "euler"): ("0x1.03be0f46d6b06p-5", "0x1.1332b8447904ap-6"),
    ("fhs", 5.0, "ssprk2"): ("0x1.f8fb0ee40f983p-6", "0x1.0f7b93e595f41p-6"),
    ("fhs", 5.0, "euler"): ("0x1.037bcfbaefeddp-5", "0x1.12d05f52658ddp-6"),
    ("mix1", 0.0, "ssprk2"): ("0x1.13fd4fe9f3af8p-5", "0x1.294da78bbea11p-6"),
    ("mix1", 0.0, "euler"): ("0x1.1d5445ac85d92p-5", "0x1.2e19786a9b419p-6"),
    ("mix1", 5.0, "ssprk2"): ("0x1.13676bd2c7162p-5", "0x1.289186f6e5003p-6"),
    ("mix1", 5.0, "euler"): ("0x1.1d0877533f298p-5", "0x1.2d8890df0171ap-6"),
    ("mix2", 0.0, "ssprk2"): ("0x1.0deac694528fap-5", "0x1.21471dc77d915p-6"),
    ("mix2", 0.0, "euler"): ("0x1.14ef6fa003e54p-5", "0x1.243d862cc9a72p-6"),
    ("mix2", 5.0, "ssprk2"): ("0x1.0dad8faf8fa10p-5", "0x1.2114b4bf870afp-6"),
    ("mix2", 5.0, "euler"): ("0x1.14cce99df0acap-5", "0x1.2416f3b1675c6p-6"),
    ("msub", 0.0, "ssprk2"): ("0x1.ebf0eb1742a63p-6", "0x1.0a5770da30349p-6"),
    ("msub", 0.0, "euler"): ("0x1.f8113237f528ap-6", "0x1.0d8d9de62ef6dp-6"),
    ("msub", 5.0, "ssprk2"): ("0x1.eae1cb1ab2016p-6", "0x1.09da1077b7c77p-6"),
    ("msub", 5.0, "euler"): ("0x1.f77d74df50866p-6", "0x1.0d3101a3327d5p-6"),
    ("super", 0.0, "ssprk2"): ("0x1.27f56a9376bc9p-5", "0x1.3d81bba39aa1dp-6"),
    ("super", 0.0, "euler"): ("0x1.303ff0e8bb185p-5", "0x1.41a962c1fbd3cp-6"),
    ("super", 5.0, "ssprk2"): ("0x1.2784388e45d39p-5", "0x1.3cf9d2386cb19p-6"),
    ("super", 5.0, "euler"): ("0x1.2ff604002ed62p-5", "0x1.4136bd92bf1c9p-6"),
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
    ru, rv, rw = (_run_with_snapshots(p, grid, W, snapshot_cadence=4)[1]
                  for W in (U, V, a * U + b * V))
    assert len(rw) == len(ru) == len(rv) > 2
    for (t, su), (_, sv), (_, sw_) in zip(ru, rv, rw):
        want = a * su.stack() + b * sv.stack()
        assert np.max(np.abs(sw_.stack() - want)) <= 1e-13 * np.max(np.abs(want)), t


# --- probe and lift goldens -----------------------------------------------------

# float.hex of positivity_probe's min_quotient on Grid(1, 1.5, 17, 23), six
# samples from seed 11, and the sha256 of the lifted forcing at t = 0.37 with
# the manufactured solution as lifting field on 17x17 (fhs), recorded before
# the probe and the lift moved onto (3, nx, ny) stacks; the quotients were
# re-recorded when the probe took the stepper's projection, which leaves
# sides without rows untouched; the lift and the mix1, mix2 and msub
# quotients again when each upwind term became one matrix product with 1/h
# in the matrix
EXACT_PROBE_QUOTIENTS = {
    "fhs": "0x1.9ed0274c87ae6p+4",
    "mix1": "0x1.ce35f17d4af7bp+4",
    "mix2": "0x1.ef6c8d2fb904ap+4",
    "msub": "0x1.82c3569f2e262p+4",
    "super": "0x1.10d2e5920ea89p+5",
}
EXACT_LIFTED_FORCING = "3300a0190ffc2ee92e0bd77891a9f40556dcf108d8cc61496013e190bf999a0e"


@pytest.mark.parametrize("kind", sorted(EXACT_PROBE_QUOTIENTS))
def test_exact_probe_quotients(kind):
    p = sw.validate_params(*REGIME_CASES[kind])
    rep = sw.positivity_probe(p, sw.Grid(1.0, 1.5, 17, 23), 6, 11)
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
    assert _digest(lifted(0.37)) == EXACT_LIFTED_FORCING
