import math

import numpy as np
import pytest

import swerect as sw
from swerect.errors import CflViolation, InvalidValue, NonFinite

from helpers import REGIME_CASES, params


def seeded_state(grid, seed=7):
    rng = sw.SplitMix64(seed)
    return sw.StateField.from_stack(sw.band_limited_fields(rng, grid.nx, grid.ny))


def test_cfl_dt_formula():
    p = params("fhs")
    grid = sw.Grid(1.0, 1.5, 21, 31)
    c = math.sqrt(p.g * p.phi0)
    want = 0.45 / ((p.u0 + c) / grid.dx + (p.v0 + c) / grid.dy)
    assert sw.cfl_dt(p, grid, 0.45) == pytest.approx(want, rel=1e-15)


def test_step_rejects_large_dt():
    p = params("super")
    grid = sw.Grid(1.0, 1.0, 16, 16)
    cfg = sw.RunConfig(p=p, grid=grid, t_end=1.0, initial=sw.StateField.zeros(grid))
    limit = sw.cfl_dt(p, grid, cfg.cfl)
    with pytest.raises(CflViolation):
        sw.step(sw.StateField.zeros(grid), 2.0 * limit, 0.0, cfg)
    # at the limit itself the step must go through
    out = sw.step(sw.StateField.zeros(grid), limit, 0.0, cfg)
    out.check_finite()


def test_run_config_validation():
    p = params("fhs")
    grid = sw.Grid(1.0, 1.0, 16, 16)
    z = sw.StateField.zeros(grid)
    with pytest.raises(InvalidValue):
        sw.RunConfig(p=p, grid=grid, t_end=1.0, initial=z, cfl=0.95)
    with pytest.raises(InvalidValue):
        sw.RunConfig(p=p, grid=grid, t_end=-1.0, initial=z)
    with pytest.raises(InvalidValue):
        sw.RunConfig(p=p, grid=grid, t_end=1.0, initial=z, scheme="rk4")
    with pytest.raises(InvalidValue):
        sw.RunConfig(p=p, grid=grid, t_end=1.0,
                     initial=sw.StateField.zeros(sw.Grid(1.0, 1.0, 8, 8)))


def test_run_lands_on_t_end():
    p = params("mix1")
    grid = sw.Grid(1.0, 1.0, 24, 24)
    t_end = 0.0371
    cfg = sw.RunConfig(p=p, grid=grid, t_end=t_end, initial=seeded_state(grid))
    res = sw.run(cfg)
    assert res.dt == pytest.approx(t_end / res.n_steps, rel=1e-15)
    assert res.dt <= sw.cfl_dt(p, grid, cfg.cfl) * (1 + 1e-12)
    assert len(res.log) == res.n_steps + 1
    assert res.log.times[0] == 0.0
    assert res.log.times[-1] == pytest.approx(t_end, rel=1e-12)


def test_snapshot_cadence():
    p = params("super")
    grid = sw.Grid(1.0, 1.0, 16, 16)
    dt_max = sw.cfl_dt(p, grid, 0.45)
    cfg = sw.RunConfig(p=p, grid=grid, t_end=9.5 * dt_max, initial=seeded_state(grid),
                       snapshot_cadence=3)
    res = sw.run(cfg)
    assert res.n_steps == 10
    ks = [round(t / res.dt) for t, _ in res.snapshots]
    assert ks == [0, 3, 6, 9, 10]
    # cadence 0 means no snapshots at all
    cfg0 = sw.RunConfig(p=p, grid=grid, t_end=9.5 * dt_max, initial=seeded_state(grid))
    assert sw.run(cfg0).snapshots == []


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_contraction_homogeneous(kind):
    p = params(kind)
    grid = sw.Grid(1.0, 1.0, 32, 32)
    dt_max = sw.cfl_dt(p, grid, 0.45)
    cfg = sw.RunConfig(p=p, grid=grid, t_end=120 * dt_max, initial=seeded_state(grid, seed=11))
    res = sw.run(cfg)
    rep = sw.contraction_check(res.log)
    assert rep.passed, (kind, rep.max_violation, rep.worst_index)
    assert res.log.energies[-1] < res.log.energies[0]


def test_euler_scheme_dissipates():
    p = params("fhs")
    grid = sw.Grid(1.0, 1.0, 24, 24)
    dt_max = sw.cfl_dt(p, grid, 0.45)
    cfg = sw.RunConfig(p=p, grid=grid, t_end=60 * dt_max, initial=seeded_state(grid),
                       scheme="euler")
    res = sw.run(cfg)
    rep = sw.contraction_check(res.log)
    assert rep.passed, rep.max_violation


def test_non_finite_forcing_aborts():
    p = params("mix2")
    grid = sw.Grid(1.0, 1.0, 12, 12)
    bad = np.full((3, grid.nx, grid.ny), np.nan)
    cfg = sw.RunConfig(p=p, grid=grid, t_end=0.01, initial=seeded_state(grid),
                       forcing=lambda t: bad)
    with pytest.raises(NonFinite, match="step"):
        sw.run(cfg)


def test_refinement_ladder_halves_spacing():
    grids = sw.refinement_ladder(sw.Grid(1.0, 1.0, 17, 13), 3)
    assert [(g.nx, g.ny) for g in grids] == [(17, 13), (33, 25), (65, 49)]
    for a, b in zip(grids, grids[1:]):
        assert b.dx == a.dx / 2 and b.dy == a.dy / 2


def test_mms_small_ladder_first_order():
    grids = sw.refinement_ladder(sw.Grid(1.0, 1.0, 17, 17), 3)
    for kind in sorted(REGIME_CASES):
        for f in (0.0, 5.0):
            rep = sw.mms_convergence(sw.validate_params(*REGIME_CASES[kind], f), grids,
                                     t_end=0.1)
            assert rep.errors[0] > rep.errors[1] > rep.errors[2], (kind, f, rep.errors)
            assert all(0.8 <= o <= 1.3 for o in rep.orders), (kind, f, rep.orders)
            assert rep.errors[0] / rep.errors[2] >= 3.0, (kind, f, rep.errors)


def test_energy_log_rejects_non_monotone_time():
    log = sw.EnergyLog()
    log.append(0.0, 1.0)
    log.append(0.1, 0.9)
    with pytest.raises(InvalidValue):
        log.append(0.1, 0.8)


def test_energy_log_rejects_non_finite_time():
    log = sw.EnergyLog()
    for t in (float("nan"), float("inf")):
        with pytest.raises(NonFinite, match="time"):
            log.append(t, 1.0)
    assert len(log) == 0
    log.append(0.0, 1.0)
    with pytest.raises(NonFinite):
        log.append(float("nan"), 1.0)
    assert log.times == [0.0]


@pytest.mark.parametrize("levels", [1, 0, -3])
def test_refinement_ladder_needs_two_levels(levels):
    with pytest.raises(InvalidValue, match=f"at least two levels, got {levels}"):
        sw.refinement_ladder(sw.Grid(1.0, 1.0, 9, 9), levels)


def test_mms_report_without_orders_does_not_pass():
    grid = sw.Grid(1.0, 1.0, 9, 9)
    rep = sw.mms_convergence(params("fhs"), [grid], t_end=0.05)
    assert len(rep.errors) == 1 and rep.orders == []
    assert not rep.passed()
    assert not sw.mms_convergence(params("fhs"), [], t_end=0.05).passed()
