"""End-to-end acceptance checks, one per shipped guarantee.

Each test exercises the full advertised workload (draw counts, grid sizes,
step counts, wall-clock budgets) and prints a single summary line; run with
``pytest -v tests/test_acceptance.py`` to see one pass/fail line per
criterion, or add ``-s`` for the summaries.
"""

import filecmp
import math
import time

import numpy as np
import pytest

import swerect as sw
from swerect import cli
from swerect.elliptic import ThetaField, apply_T, apply_T_star

from helpers import (
    REGIME_CASES,
    compatible_pair,
    draw_params,
    duality_residual,
    params,
)

KINDS = sorted(REGIME_CASES)


def test_criterion_01_diagonalization_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    for kind in KINDS:
        rng = sw.SplitMix64(101)
        for _ in range(1000):
            p = draw_params(kind, rng)
            rep = sw.verify_diagonalization(p)
            worst = max(worst, rep.max_residual)
            assert rep.max_residual <= 1e-10, (kind, rep.residuals)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: PASS — max residual {worst:.3e} over 5000 draws "
          f"({elapsed:.2f}s)")


def test_criterion_02_sign_laws_and_counts():
    failures = 0
    for kind in KINDS:
        rng = sw.SplitMix64(202)
        for _ in range(1000):
            p = draw_params(kind, rng)
            regime = sw.classify(p)
            if kind != "msub":
                t = sw.hyperbolic_transform(p)
                a, b = t.a, t.b
                ok = (a[0] > 0 and a[2] > 0 and b[1] > 0 and b[2] > 0
                      and np.sign(a[1]) == np.sign(p.u0**2 - p.g * p.phi0)
                      and np.sign(b[0]) == np.sign(p.v0**2 - p.g * p.phi0))
                failures += 0 if ok else 1
            failures += 0 if sw.incoming_count_check(p, regime).passed else 1
    assert failures == 0
    print("criterion 2: PASS — sign laws and incoming counts exact, "
          "0 failures over 5000 draws")


def test_criterion_03_boundary_form_positivity():
    worst = np.inf
    for kind in KINDS:
        rng = sw.SplitMix64(303)
        for _ in range(1000):
            p = draw_params(kind, rng)
            regime = sw.classify(p)
            for adjoint in (False, True):
                for form in sw.boundary_quadratic_forms(p, regime, adjoint=adjoint).values():
                    if form.eigenvalues.size:
                        worst = min(worst, float(form.eigenvalues.min()))
    assert worst >= -1e-12, worst
    print(f"criterion 3: PASS — restricted boundary forms >= {worst:.3e} "
          "over 1000 draws/regime, both catalogs")


def test_criterion_04_positivity_probe_64():
    grid = sw.Grid(1.0, 1.0, 64, 64)
    lines = []
    for kind in KINDS:
        p = params(kind)
        t0 = time.perf_counter()
        rep = sw.positivity_probe(p, grid, 200, 404)
        elapsed = time.perf_counter() - t0
        want_thresh = -1e-6 * (p.u0 + p.v0 + p.sound_speed) / min(grid.dx, grid.dy)
        assert rep.threshold == pytest.approx(want_thresh, rel=1e-12)
        assert rep.n_samples == 200
        assert rep.passed, (kind, rep.min_quotient, rep.threshold)
        assert elapsed < 60.0, (kind, elapsed)
        lines.append(f"{kind} {rep.min_quotient:+.3e} ({elapsed:.2f}s)")
    print("criterion 4: PASS — 64x64 probe min quotients " + ", ".join(lines))


def test_criterion_05_discrete_duality_halves():
    grids = [sw.Grid(1.0, 1.0, n, n) for n in (33, 65, 129)]
    for kind in KINDS:
        p = params(kind)
        resids = []
        for grid in grids:
            U, V = compatible_pair(kind, p, grid)
            resids.append(duality_residual(p, grid, U, V))
        ratios = [resids[k + 1] / resids[k] for k in range(2)]
        for r in ratios:
            assert 0.35 <= r <= 0.65, (kind, resids, ratios)
    print("criterion 5: PASS — duality residual halves per refinement on "
          "33/65/129 for all five regimes (hyperbolic adjoint rows come from "
          "the sign law with reversed orientation)")


def test_criterion_06_contraction_500_steps():
    grid = sw.Grid(1.0, 1.0, 48, 48)
    worst = -np.inf
    for kind in KINDS:
        p = params(kind)
        rng = sw.SplitMix64(606)
        initial = sw.StateField.from_stack(sw.band_limited_fields(rng, 48, 48))
        dt_max = sw.cfl_dt(p, grid, 0.45)
        cfg = sw.RunConfig(p=p, grid=grid, t_end=500 * dt_max, initial=initial, cfl=0.45)
        res = sw.run(cfg)  # NonFinite would raise and fail the test
        assert res.n_steps == 500
        rep = sw.contraction_check(res.log, tol=1e-12)
        assert rep.passed, (kind, rep.max_violation, rep.worst_index)
        worst = max(worst, rep.max_violation)
    print(f"criterion 6: PASS — 48x48, 500 steps, cfl 0.45: worst relative "
          f"energy growth {worst:.3e} <= 1e-12, no non-finite states")


def test_criterion_07_mms_first_order():
    grids = sw.refinement_ladder(sw.Grid(1.0, 1.0, 33, 33), 3)
    lines = []
    for kind in ("fhs", "msub"):
        p = params(kind)
        rep = sw.mms_convergence(p, grids, t_end=0.25, cfl=0.45)
        assert rep.passed(0.8, 1.3), (kind, rep.errors, rep.orders)
        assert rep.errors[2] <= rep.errors[0] / 3.0, (kind, rep.errors)
        lines.append(f"{kind} orders " + "/".join(f"{o:.2f}" for o in rep.orders))
    print("criterion 7: PASS — manufactured-solution orders on 33/65/129: "
          + ", ".join(lines))


def test_criterion_08_elliptic_suite():
    p = params("msub")
    c = sw.swe_elliptic_block(p)
    errs_T, errs_S, slacks = [], [], []
    for n in (17, 33, 65):
        grid = sw.Grid(1.0, 1.0, n, n)

        exact, F = sw.manufactured_solution_T(c, grid)
        got = sw.solve_T(F, c, grid)
        d = ThetaField(got.theta1 - exact.theta1, got.theta2 - exact.theta2)
        errs_T.append(sw.theta_norm(d, grid))

        exact_s, Psi = sw.manufactured_solution_T_star(c, grid)
        got_s = sw.solve_T_star(Psi, c, grid)
        ds = ThetaField(got_s.theta1 - exact_s.theta1, got_s.theta2 - exact_s.theta2)
        errs_S.append(sw.theta_norm(ds, grid))

        # cross-gradient identity on the computed solution: discretely exact,
        # which is stronger than the advertised O(h) decay
        r = sw.cross_gradient_residual(got, grid)
        scale = max(sw.theta_norm(got, grid) ** 2, 1.0)
        assert r <= 1e-12 * scale, (n, r)

        # duality against the adjoint-domain manufactured field: also exact
        defect = abs(sw.theta_inner(apply_T(exact, c, grid), exact_s, grid)
                     - sw.theta_inner(exact, apply_T_star(exact_s, c, grid), grid))
        assert defect <= 1e-12, (n, defect)

        rep = sw.apriori_check(got, c, grid)
        assert rep.passed, (n, rep)
        slacks.append(rep.slack)

    orders_T = [math.log2(errs_T[k] / errs_T[k + 1]) for k in range(2)]
    orders_S = [math.log2(errs_S[k] / errs_S[k + 1]) for k in range(2)]
    assert min(orders_T) >= 1.0, (errs_T, orders_T)
    assert min(orders_S) >= 1.0, (errs_S, orders_S)
    assert slacks[1] < 0.7 * slacks[0] and slacks[2] < 0.7 * slacks[1], slacks

    # zero forcing maps to the zero field through both solvers
    grid = sw.Grid(1.0, 1.0, 33, 33)
    for solver in (sw.solve_T, sw.solve_T_star):
        out = solver(ThetaField.zeros(grid), c, grid)
        assert max(np.max(np.abs(out.theta1)), np.max(np.abs(out.theta2))) <= 1e-12
    print(f"criterion 8: PASS — solve orders {min(orders_T):.2f}/{min(orders_S):.2f}, "
          f"identities machine-exact, slack {slacks[0]:.2f}->{slacks[2]:.2f}, "
          "zero->zero")


def test_criterion_09_lifting_matches_direct():
    sol = sw.ManufacturedSolution()
    t_end = 0.25
    for kind in ("fhs", "msub"):
        p = params(kind)
        grid = sw.Grid(1.0, 1.0, 33, 33)
        direct = sw.mms_convergence(p, [grid], t_end=t_end).errors[0]

        X, Y = grid.meshgrid()
        w = 1.0 - 0.5 * np.sin(np.pi * X / grid.l1) * np.sin(np.pi * Y / grid.l2)

        def ug(t):
            return sol.state(X, Y, t) * w

        def dug_dt(t):
            return sol.dt(X, Y, t) * w

        lifted = sw.lift_nonhomogeneous(ug, dug_dt, sol.forcing_on_grid(p, grid), p, grid)
        initial = sw.StateField(*(sol.state_field(grid, 0.0).stack() - ug(0.0)))
        cfg = sw.RunConfig(p=p, grid=grid, t_end=t_end, initial=initial,
                           forcing=lifted)
        res = sw.run(cfg)
        exact_end = sol.state_field(grid, t_end).stack()
        diff = sw.StateField(*(res.final.stack() + ug(t_end) - exact_end))
        lifted_err = math.sqrt(sw.energy_value(diff, grid, p))
        assert lifted_err <= 2.0 * direct, (kind, lifted_err, direct)
        print(f"criterion 9 [{kind}]: lifted error {lifted_err:.4e} vs direct "
              f"{direct:.4e} (ratio {lifted_err / direct:.3f} <= 2)")
    print("criterion 9: PASS — non-homogeneous lifting within 2x of the "
          "direct manufactured run")


CFG_DETERMINISM = """\
[physics]
u0 = 4.0
v0 = 4.0
phi0 = 1.0
g = 9.81

[grid]
L1 = 1.0
L2 = 1.0
nx = 24
ny = 24

[run]
t_end = 0.05
cfl = 0.45
seed = 3

[output]
cadence = 5
"""


def test_criterion_10_deterministic_csv(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(CFG_DETERMINISM)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(f.name for f in outs[0].iterdir() if f.suffix == ".csv")
    assert names == sorted(f.name for f in outs[1].iterdir() if f.suffix == ".csv")
    assert "field_final.csv" in names and "energy.csv" in names
    assert any(n.startswith("field_0") for n in names)  # snapshots present
    for name in names:
        same = filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
        assert same, f"{name} differs between identical runs"
    print(f"criterion 10: PASS — {len(names)} CSV files byte-identical across "
          "two runs of the same config")
