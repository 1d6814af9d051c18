import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import swerect as sw
from swerect.errors import InvalidValue, NonFinite, ShapeMismatch
from swerect.evolve import _Stepper
from swerect.fields import trapezoid
from swerect.manufactured import DEFAULT_SOLUTION

from helpers import REGIME_CASES, params, reference_advance, run_with_snapshots


def seeded_state(grid, seed=7):
    rng = sw.SplitMix64(seed)
    return sw.StateField.from_stack(sw.band_limited_fields(rng, grid.nx, grid.ny))


def test_cfl_dt_formula():
    p = params("fhs")
    grid = sw.Grid(1.0, 1.5, 21, 31)
    c = math.sqrt(p.g * p.phi0)
    want = 0.45 / ((p.u0 + c) / grid.dx + (p.v0 + c) / grid.dy)
    assert sw.cfl_dt(p, grid, 0.45) == pytest.approx(want, rel=1e-15)


def test_step_at_cfl_limit_stays_finite():
    p = params("super")
    grid = sw.Grid(1.0, 1.0, 16, 16)
    cfg = sw.RunConfig(p=p, grid=grid, t_end=1.0, initial=sw.StateField.zeros(grid))
    limit = sw.cfl_dt(p, grid, cfg.cfl)
    stepper = _Stepper(cfg)
    W = stepper.enforce(seeded_state(grid).stack(), 0.0)
    assert np.all(np.isfinite(stepper.advance(W, limit, 0.0)))


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
    W = seeded_state(grid).stack()
    with pytest.raises(InvalidValue, match="must be real"):
        sw.RunConfig(p=p, grid=grid, t_end=1.0, initial=sw.StateField(*(W + 0j)))
    with pytest.raises(InvalidValue, match="must be a StateField, got ndarray"):
        sw.RunConfig(p=p, grid=grid, t_end=1.0, initial=W)


def test_integer_initial_state_runs_as_its_float_values():
    """An integer state is computed on as a float copy: the projection no
    longer truncates it in place, and the run has the bits of the same
    values given as float64."""
    p, grid = params("fhs"), sw.Grid(1.0, 1.0, 9, 9)
    ints = np.rint(1000 * seeded_state(grid).stack()).astype(np.int64)
    runs = [sw.run(sw.RunConfig(p=p, grid=grid, t_end=0.05, initial=sw.StateField(*W)))
            for W in (ints, ints.astype(float))]
    assert runs[0].log.energies == runs[1].log.energies
    assert np.array_equal(runs[0].final.stack(), runs[1].final.stack())
    assert sw.inner_product(sw.StateField(*ints), sw.StateField(*ints), grid, p.g, p.phi0) == \
        sw.energy_value(sw.StateField(*ints.astype(float)), grid, p)


@pytest.mark.parametrize("l1, l2", [(math.inf, 1.0), (1.0, math.nan), (-math.inf, 2.0)])
def test_grid_rejects_non_finite_lengths(l1, l2):
    with pytest.raises(InvalidValue, match="domain lengths must be positive and finite"):
        sw.Grid(l1, l2, 5, 5)


@pytest.mark.parametrize("nx, ny", [(5.5, 5), (6.0, 6)])
def test_grid_rejects_non_integer_node_counts(nx, ny):
    with pytest.raises(InvalidValue, match=rf"nx, ny must be integers, got \({nx!r}, {ny!r}\)"):
        sw.Grid(1.0, 1.0, nx, ny)


@pytest.mark.parametrize("l1, l2, n", [(5e-324, 1.0, 5), (1.0, 1e-323, 8)])
def test_grid_rejects_a_spacing_that_underflows_to_0(l1, l2, n):
    """A spacing of 0 used to reach the operator, which divided by it with
    NumPy's divide-by-zero warning before its own error."""
    with pytest.raises(InvalidValue, match=r"grid spacing \(dx, dy\) = .* underflows to 0"):
        sw.Grid(l1, l2, n, n)


def test_grid_accepts_numpy_integer_node_counts():
    grid = sw.Grid(1.0, 1.0, np.int64(33), 33)
    assert grid == sw.Grid(1.0, 1.0, 33, 33)
    assert np.array_equal(grid.x, np.linspace(0.0, 1.0, 33))
    assert grid.dx == 1.0 / 32


@pytest.mark.parametrize("t_end", [math.inf, math.nan])
def test_run_config_rejects_non_finite_t_end(t_end):
    grid = sw.Grid(1.0, 1.0, 8, 8)
    with pytest.raises(InvalidValue, match=f"t_end must be positive and finite, got {t_end}"):
        sw.RunConfig(p=params("fhs"), grid=grid, t_end=t_end, initial=sw.StateField.zeros(grid))


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


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_run_leaves_the_initial_state_untouched(kind):
    # run() projects its own copy of the initial state in place
    p = params(kind)
    grid = sw.Grid(1.0, 1.0, 12, 10)
    initial = seeded_state(grid, seed=29)
    kept = [a.copy() for a in (initial.u, initial.v, initial.phi)]
    _, snapshots = run_with_snapshots(sw.RunConfig(p=p, grid=grid, t_end=0.02,
                                                   initial=initial, snapshot_cadence=1))
    for a, b in zip((initial.u, initial.v, initial.phi), kept):
        assert a.tobytes() == b.tobytes()
    first = snapshots[0][1]
    assert not any(np.shares_memory(a, b) for a in (initial.u, initial.v, initial.phi)
                   for b in (first.u, first.v, first.phi))
    assert not np.array_equal(first.stack(), initial.stack())  # the projection did write


def test_snapshot_cadence():
    p = params("super")
    grid = sw.Grid(1.0, 1.0, 16, 16)
    dt_max = sw.cfl_dt(p, grid, 0.45)
    cfg = sw.RunConfig(p=p, grid=grid, t_end=9.5 * dt_max, initial=seeded_state(grid),
                       snapshot_cadence=3)
    res, snapshots = run_with_snapshots(cfg)
    assert res.n_steps == 10
    ks = [round(t / res.dt) for t, _ in snapshots]
    assert ks == [0, 3, 6, 9, 10]
    # cadence 0 means no snapshots at all
    cfg0 = sw.RunConfig(p=p, grid=grid, t_end=9.5 * dt_max, initial=seeded_state(grid))
    assert run_with_snapshots(cfg0)[1] == []


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


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
@pytest.mark.parametrize("c, node", [(0, (5, 7)), (1, (3, 9)), (2, (8, 3))])
def test_non_finite_names_first_bad_field_and_node(kind, c, node):
    # one Euler step moves forcing NaN/inf at nodes three or more from the
    # boundary nowhere else
    grid = sw.Grid(1.0, 1.0, 16, 17)
    bad = np.zeros((3, grid.nx, grid.ny))
    bad[(c, *node)] = np.nan
    bad[(c, node[0] + 1, node[1])] = np.inf
    cfg = sw.RunConfig(p=params(kind), grid=grid, t_end=0.01, initial=seeded_state(grid),
                       scheme="euler", forcing=lambda t: bad)
    name = ("u", "v", "phi")[c]
    with pytest.raises(NonFinite) as info:
        sw.run(cfg)
    assert str(info.value).startswith("non-finite state at step 1 (t=")
    assert str(info.value).endswith(f": first in field '{name}' at node {node}")


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


def test_mms_orders_when_the_errors_vanish():
    """At t_end = 1e-160 both errors are 0, and the order formula divided by
    the finer one (ZeroDivisionError).  The order is undefined (nan) when
    both errors are 0 and inf when only the finer one is; neither passes."""
    grids = sw.refinement_ladder(sw.Grid(1.0, 1.0, 5, 5), 2)
    rep = sw.mms_convergence(params("super"), grids, t_end=1e-160)
    assert rep.errors == [0.0, 0.0] and math.isnan(rep.orders[0])
    assert not rep.passed()
    assert sw.fields.convergence_order(1e-3, 0.0) == math.inf
    assert not dataclasses.replace(rep, orders=[math.inf]).passed()


STEPPER_GRIDS = {
    "4x4": sw.Grid(1.0, 1.0, 4, 4),
    "5x9": sw.Grid(1.0, 1.5, 5, 9),
    "65x33": sw.Grid(2.0, 1.0, 65, 33),
    # over the row-block budget: 2 blocks (257^2 and 100x300 are in
    # test_operator's KERNEL_GRIDS; more blocks in the small-block test)
    "300x100": sw.Grid(3.0, 1.0, 300, 100),
}


def _stepper_config(kind, f, grid, forced, scheme="ssprk2", **kw):
    p = sw.validate_params(*REGIME_CASES[kind], f)
    if not forced:
        return sw.RunConfig(p=p, grid=grid, t_end=0.05, initial=seeded_state(grid),
                            scheme=scheme, **kw)
    spec = sw.bc_catalog(p)
    return sw.RunConfig(
        p=p, grid=grid, t_end=0.05, initial=DEFAULT_SOLUTION.state_field(grid, 0.0),
        scheme=scheme, forcing=DEFAULT_SOLUTION.forcing_on_grid(p, grid),
        boundary_data=sw.BoundaryData.from_state_samples(spec, grid, DEFAULT_SOLUTION.state),
        **kw)


@pytest.mark.parametrize("grid_name", sorted(STEPPER_GRIDS))
@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_advance_matches_reference(kind, grid_name):
    """The in-place stages give the bits of one fresh array per stage."""
    grid = STEPPER_GRIDS[grid_name]
    for f in (0.0, 3.0):
        for forced in (False, True):
            for scheme in ("ssprk2", "euler"):
                cfg = _stepper_config(kind, f, grid, forced, scheme)
                stepper = _Stepper(cfg)
                dt = sw.cfl_dt(cfg.p, grid, cfg.cfl)
                W = stepper.enforce(cfg.initial.stack(), 0.0)
                for k in range(3):
                    before = W.copy()
                    W = stepper.advance(W, dt, k * dt)
                    assert np.array_equal(W, reference_advance(stepper, before, dt, k * dt))


@pytest.mark.parametrize("budget", [1, 20, 40])
@pytest.mark.parametrize("kind", ["fhs", "msub"])
def test_advance_matches_reference_in_small_blocks(kind, budget, monkeypatch):
    """Blocks of one row, of a few rows and of uneven size, with first,
    middle and last blocks, give the bits of the whole-grid stages."""
    monkeypatch.setattr(sw.fields, "_BLOCK_NODES", budget)
    grid = sw.Grid(1.0, 1.5, 11, 9)
    assert len(sw.fields.row_blocks(grid.nx, grid.ny)) >= 3
    for forced in (False, True):
        for scheme in ("ssprk2", "euler"):
            cfg = _stepper_config(kind, 3.0, grid, forced, scheme)
            stepper = _Stepper(cfg)
            dt = sw.cfl_dt(cfg.p, grid, cfg.cfl)
            W = stepper.enforce(cfg.initial.stack(), 0.0)
            for k in range(3):
                before = W.copy()
                W = stepper.advance(W, dt, k * dt)
                assert np.array_equal(W, reference_advance(stepper, before, dt, k * dt))


@pytest.mark.parametrize("forced", [False, True])
def test_run_results_survive_later_steps(forced):
    """Snapshots, log and final field of run() equal a loop that copies the
    state every step: no step writes into a state run() handed out."""
    grid = STEPPER_GRIDS["5x9"]
    cfg = _stepper_config("fhs", 3.0, grid, forced, snapshot_cadence=1)
    res, snapshots = run_with_snapshots(cfg)
    stepper = _Stepper(cfg)
    W = stepper.enforce(cfg.initial.stack(), 0.0).copy()
    states, energies = [W.copy()], [sw.energy_value(sw.StateField(*W), grid, cfg.p)]
    for k in range(res.n_steps):
        W = reference_advance(stepper, W, res.dt, k * res.dt).copy()
        states.append(W.copy())
        energies.append(sw.energy_value(sw.StateField(*W), grid, cfg.p))
    assert len(snapshots) == len(states) == res.n_steps + 1
    for (t, snap), (k, want) in zip(snapshots, enumerate(states)):
        assert t == k * res.dt
        assert np.array_equal(snap.stack(), want)
    assert res.log.energies == energies
    assert np.array_equal(res.final.stack(), states[-1])


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_forcing_and_data_evaluated_once_per_distinct_time(kind):
    """A forced run of n steps samples each side once per enforcement time
    (n + 1) and evaluates the forcing once per distinct stage time.  The
    reuse keys on t itself: k*dt and (k-1)*dt + dt differ in the last bit
    on some steps, and those steps must evaluate twice."""
    grid = STEPPER_GRIDS["65x33"]
    for scheme in ("ssprk2", "euler"):
        cfg = _stepper_config(kind, 3.0, grid, True, scheme)
        forcing_times, sample_times = [], {}

        def counted(fn, log):
            def wrapper(t):
                log.append(t)
                return fn(t)
            return wrapper

        cfg.forcing = counted(cfg.forcing, forcing_times)
        samplers = cfg.boundary_data.samplers
        for side, fn in samplers.items():
            samplers[side] = counted(fn, sample_times.setdefault(side, []))
        res = sw.run(cfg)
        n, dt = res.n_steps, res.dt
        starts = [k * dt for k in range(n)]
        stage_times = starts if scheme == "euler" else [s for t in starts for s in (t, t + dt)]
        distinct = [t for i, t in enumerate(stage_times) if i == 0 or t != stage_times[i - 1]]
        assert forcing_times == distinct and len(distinct) == len(set(stage_times))
        if scheme == "ssprk2":
            assert n + 1 < len(forcing_times) < 2 * n
        assert samplers and all(times == [0.0] + [t + dt for t in starts]
                                for times in sample_times.values())


def test_run_config_rejects_negative_snapshot_cadence():
    grid = sw.Grid(1.0, 1.0, 8, 8)
    with pytest.raises(InvalidValue, match="snapshot cadence must be nonnegative, got -1"):
        sw.RunConfig(p=params("fhs"), grid=grid, t_end=1.0, initial=sw.StateField.zeros(grid),
                     snapshot_cadence=-1)


@pytest.mark.parametrize("bad", [0.0, np.zeros((12, 12)), np.zeros((1, 12, 12)),
                                 np.zeros((3, 12))], ids=["scalar", "plane", "one", "short"])
def test_forcing_must_be_a_full_stack(bad):
    grid = sw.Grid(1.0, 1.0, 12, 12)
    cfg = sw.RunConfig(p=params("mix2"), grid=grid, t_end=0.01, initial=seeded_state(grid),
                       forcing=lambda t: bad)
    want = f"forcing at t=0.0 has shape {np.shape(bad)}, need (3, 12, 12)"
    with pytest.raises(ShapeMismatch) as info:
        sw.run(cfg)
    assert str(info.value) == want


def test_forcing_shape_checked_at_every_new_stage_time():
    grid = sw.Grid(1.0, 1.0, 12, 12)
    good = np.zeros((3, grid.nx, grid.ny))
    cfg = sw.RunConfig(p=params("fhs"), grid=grid, t_end=0.01, initial=seeded_state(grid),
                       forcing=lambda t: good if t == 0.0 else good[:, :, :-1])
    with pytest.raises(ShapeMismatch, match=r"has shape \(3, 12, 11\), need \(3, 12, 12\)"):
        sw.run(cfg)


@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
@pytest.mark.parametrize("c, node", [(0, (5, 7)), (1, (3, 9)), (2, (8, 3))])
def test_non_finite_initial_state_reported_as_step_0(kind, c, node):
    grid = sw.Grid(1.0, 1.0, 16, 17)
    W = seeded_state(grid).stack()
    W[(c, *node)] = np.nan
    W[(c, node[0] + 1, node[1])] = np.inf
    p = params(kind)
    cfg = sw.RunConfig(p=p, grid=grid, t_end=0.01, initial=sw.StateField(*W))
    with pytest.raises(NonFinite) as info:
        sw.run(cfg)
    name = ("u", "v", "phi")[c]
    assert str(info.value) == (f"non-finite state at step 0 (t=0, regime {sw.classify(p)}): "
                               f"first in field '{name}' at node {node}")


# 257^2 runs in four blocks of rows: 0-63, 64-127, 128-191 and 192-256
BLOCKED = sw.Grid(1.0, 1.0, 257, 257)
NODE = (150, 100)  # in the third block


def _first_non_finite(W):
    c, i, j = np.argwhere(~np.isfinite(W))[0]
    return f"first in field '{('u', 'v', 'phi')[c]}' at node ({i}, {j})"


def test_non_finite_node_in_a_later_block_is_named():
    """The energy finds a NaN anywhere in the grid; the search then names
    the node the whole-grid check named, at step 0 and after a step, and
    no RuntimeWarning is emitted on the way (warnings are errors here)."""
    p = params("fhs")
    assert sw.fields.row_blocks(BLOCKED.nx, BLOCKED.ny)[2] == (128, 192)
    W = seeded_state(BLOCKED).stack()
    W[(1, *NODE)] = np.nan
    cfg = sw.RunConfig(p=p, grid=BLOCKED, t_end=0.01, initial=sw.StateField(*W))
    with pytest.raises(NonFinite) as info:
        sw.run(cfg)
    assert str(info.value) == (f"non-finite state at step 0 (t=0, regime {p.regime}): "
                               f"first in field 'v' at node {NODE}")
    # a NaN forcing at one node spreads through the stencil in stage 2
    bad = np.zeros((3, BLOCKED.nx, BLOCKED.ny))
    bad[(1, *NODE)] = np.nan
    cfg = sw.RunConfig(p=p, grid=BLOCKED, t_end=0.01, initial=seeded_state(BLOCKED),
                       forcing=lambda t: bad)
    stepper = _Stepper(cfg)
    W0 = stepper.enforce(cfg.initial.stack(), 0.0)
    dt = cfg.t_end / math.ceil(cfg.t_end / sw.cfl_dt(p, BLOCKED, cfg.cfl) - 1e-12)
    want = _first_non_finite(reference_advance(stepper, W0, dt, 0.0))
    assert want != f"first in field 'v' at node {NODE}"
    with pytest.raises(NonFinite) as info:
        sw.run(cfg)
    assert str(info.value).startswith("non-finite state at step 1 (t=")
    assert str(info.value).endswith(": " + want)


def test_finite_state_whose_energy_overflows():
    """A finite state whose energy overflows fails as non-finite energy,
    with the overflow warnings of the whole-grid quadrature; when warnings
    are errors, the first of them is raised, as before."""
    p = params("fhs")
    W = seeded_state(BLOCKED).stack()
    W[(0, *NODE)] = 1e200
    cfg = sw.RunConfig(p=p, grid=BLOCKED, t_end=0.01, initial=sw.StateField(*W))
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        dens = W[0] * W[0] + W[1] * W[1] + ((p.g / p.phi0) * W[2]) * W[2]
        integral = trapezoid(trapezoid(dens, dx=BLOCKED.dx, axis=0), dx=BLOCKED.dy)
    assert integral == np.inf and want
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        with pytest.raises(NonFinite, match=r"^non-finite energy at t=0\.0$"):
            sw.run(cfg)
    assert ({(w.category, str(w.message)) for w in got}
            == {(w.category, str(w.message)) for w in want})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match=str(want[0].message)):
            sw.run(cfg)


@pytest.mark.parametrize("cadence", [2.5, 2.0, True])
def test_run_config_rejects_snapshot_cadence_that_is_not_an_integer(cadence):
    """A cadence of 2.5 used to run and snapshot at steps 0, 5, 10 and 12."""
    grid = sw.Grid(1.0, 1.0, 8, 8)
    with pytest.raises(InvalidValue) as info:
        sw.RunConfig(p=params("fhs"), grid=grid, t_end=1.0, initial=sw.StateField.zeros(grid),
                     snapshot_cadence=cadence)
    assert str(info.value) == f"snapshot cadence must be an integer, got {cadence!r}"


@pytest.mark.parametrize("levels", [2.5, 3.0, True])
def test_refinement_ladder_rejects_levels_that_are_not_an_integer(levels):
    with pytest.raises(InvalidValue) as info:
        sw.refinement_ladder(sw.Grid(1.0, 1.0, 9, 9), levels)
    assert str(info.value) == f"refinement ladder levels must be an integer, got {levels!r}"
    grids = sw.refinement_ladder(sw.Grid(1.0, 1.0, 9, 9), np.int64(2))
    assert [(g.nx, g.ny) for g in grids] == [(9, 9), (17, 17)]


# --- certified contraction ----------------------------------------------------
# With zero forcing and zero boundary data one step is a linear map M of the
# (3, nx, ny) stack, so its worst one-step gain in the energy norm over every
# state that satisfies the catalog is one number: the largest singular value
# of H^1/2 M Q, with H the trapezoid weights (g/phi0 on phi) and Q an
# H-orthonormal basis of the range of the boundary projection P.  Both maps
# are built column by column from unit stacks.


def _columns(fn, shape):
    """The matrix whose k-th column is fn of the k-th unit stack."""
    n = int(np.prod(shape))
    out = np.empty((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        out[:, k] = fn(e.reshape(shape)).ravel()
    return out


def _energy_weights(p, grid):
    wx, wy = np.full(grid.nx, grid.dx), np.full(grid.ny, grid.dy)
    wx[[0, -1]] *= 0.5
    wy[[0, -1]] *= 0.5
    return (np.array([1.0, 1.0, p.g / p.phi0])[:, None, None] * np.outer(wx, wy)).ravel()


def _admissible_basis(p, grid):
    """(root of H, H^1/2 Q): an orthonormal basis of H^1/2 range(P)."""
    cfg = sw.RunConfig(p=p, grid=grid, t_end=1.0, initial=sw.StateField.zeros(grid))
    stepper = _Stepper(cfg)
    root = np.sqrt(_energy_weights(p, grid))
    P = _columns(lambda e: stepper.enforce(e, 0.0), (3, grid.nx, grid.ny))
    U, s, _ = np.linalg.svd(root[:, None] * P)
    return root, U[:, : np.count_nonzero(s > 1e-8 * s[0])]


def _one_step(p, grid, cfl, scheme, basis):
    """(H^1/2 M Q, Q): one homogeneous step on the admissible states."""
    root, HQ = basis
    cfg = sw.RunConfig(p=p, grid=grid, t_end=1.0, initial=sw.StateField.zeros(grid),
                       cfl=cfl, scheme=scheme)
    stepper, dt = _Stepper(cfg), sw.cfl_dt(p, grid, cfl)
    M = _columns(lambda e: stepper.advance(e, dt, 0.0), (3, grid.nx, grid.ny))
    Q = HQ / root[:, None]
    return root[:, None] * (M @ Q), Q


@pytest.mark.parametrize("n", [9, 13])
@pytest.mark.parametrize("kind", sorted(REGIME_CASES))
def test_homogeneous_step_contracts_every_admissible_state(kind, n):
    """The README's contraction claim as a certificate: no state that
    satisfies the catalog gains energy-norm in one homogeneous step, on n x n
    grids, at f in {0, 5}, cfl 0.45 and 0.9, with either scheme."""
    grid = sw.Grid(1.0, 1.0, n, n)
    basis = _admissible_basis(params(kind), grid)
    for f in (0.0, 5.0):
        p = sw.validate_params(*REGIME_CASES[kind], f)
        for cfl in (0.45, 0.9):
            for scheme in sw.evolve.SCHEMES:
                gain = np.linalg.norm(_one_step(p, grid, cfl, scheme, basis)[0], 2)
                assert gain <= 1.0 + 1e-12, (f, cfl, scheme, gain - 1.0)


@pytest.mark.parametrize("kind", ["fhs", "msub"])
def test_worst_admissible_state_contracts_through_run(kind):
    """The stepper's own worst state on 13 x 13 (f = 0), handed to sw.run as
    the initial state: the energy log never grows.  An oblique projection
    that writes extrapolated values into the free characteristics fails here
    at step 0 (E1/E0 = 1.040 in fhs, 1.179 in msub)."""
    p, grid = params(kind), sw.Grid(1.0, 1.0, 13, 13)
    X, Q = _one_step(p, grid, 0.45, "ssprk2", _admissible_basis(p, grid))
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    gain, W0 = s[0], (Q @ vt[0]).reshape(3, grid.nx, grid.ny)
    res = sw.run(sw.RunConfig(p=p, grid=grid, t_end=10 * sw.cfl_dt(p, grid, 0.45),
                              initial=sw.StateField.from_stack(W0)))
    rep = sw.contraction_check(res.log)
    assert res.n_steps == 10 and rep.passed, (gain, rep)
    assert res.log.energies[1] / res.log.energies[0] == pytest.approx(gain**2, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known gap, ROADMAP item 1: off the reference states a "
                          "homogeneous step can gain energy (sigma_max 1.0231 here)")
def test_homogeneous_step_contracts_off_the_reference_states():
    """The certificate at a mixed subcritical state (Delta = 0.17 - 9.81)
    that is not one of REGIME_CASES.  A_h is not coercive on range(P)
    there, so one step gains energy; when the closure of ROADMAP item 1
    lands this passes, and the strict marker turns the pass into a failure
    until the marker is dropped."""
    p, grid = sw.validate_params(0.1, 0.4, 1.0, 9.81), sw.Grid(1.0, 1.0, 9, 9)
    gain = np.linalg.norm(_one_step(p, grid, 0.45, "ssprk2", _admissible_basis(p, grid))[0], 2)
    assert gain <= 1.0 + 1e-12, gain - 1.0


def test_run_rejects_a_cfl_step_out_of_float_range():
    """Supercritical (100, 100, 1, 9.81) with finite scaled split matrices:
    over dx = 5.65e-307, (u0 + c)/dx overflows and the CFL step is 0 (the
    run divided by it); over dx = 1e-306, t_end / dt overflows (math.ceil
    raised OverflowError)."""
    p = sw.validate_params(100.0, 100.0, 1.0, 9.81)
    for l1, t_end, message in ((7 * 5.65e-307, 0.05, "the CFL step underflows to 0 on this grid"),
                               (7e-306, 1.0, "the step count t_end / dt = 1 / 4.36334e-309 "
                                             "overflows a float")):
        grid = sw.Grid(l1, 1.0, 8, 8)
        cfg = sw.RunConfig(p=p, grid=grid, t_end=t_end, initial=sw.StateField.zeros(grid))
        with pytest.raises(InvalidValue, match="^" + message + "$"):
            sw.run(cfg)


def test_run_refuses_more_steps_than_the_cap(monkeypatch):
    """Supercritical (100, 100, 1, 9.81) over dx = 1e-306 asks for about
    1.1e307 steps at t_end = 0.05, a finite count that never finished; the
    cap refuses it before any step, and a run of exactly the cap is taken."""
    p = sw.validate_params(100.0, 100.0, 1.0, 9.81)
    grid = sw.Grid(7e-306, 1.0, 8, 8)
    cfg = sw.RunConfig(p=p, grid=grid, t_end=0.05, initial=sw.StateField.zeros(grid))
    with pytest.raises(InvalidValue) as info:
        sw.run(cfg)
    assert str(info.value) == ("the step count t_end / dt = 0.05 / 4.36334e-309 = "
                               "1.14591213e+307 exceeds the cap of 100000000 steps")
    # the boundary, with the cap lowered to keep the runs short
    p, grid = params("fhs"), sw.Grid(1.0, 1.0, 8, 8)
    dt_max = sw.cfl_dt(p, grid, 0.45)
    monkeypatch.setattr(sw.evolve, "MAX_STEPS", 5)
    cfg = sw.RunConfig(p=p, grid=grid, t_end=4.5 * dt_max, initial=seeded_state(grid))
    assert sw.run(cfg).n_steps == 5
    with pytest.raises(InvalidValue, match=r"= 6 exceeds the cap of 5 steps$"):
        sw.run(dataclasses.replace(cfg, t_end=5.5 * dt_max))


def test_run_memory_does_not_grow_with_the_snapshot_count():
    """At cadence 1 a 65^2 run of 30+ steps hands out a copy per step; with
    a callback that drops each one, its traced peak is within one state
    stack of the same run at cadence 0.  Keeping every copy, or a fresh
    array per step that outlives it, would add a stack per step."""
    p, grid = params("fhs"), sw.Grid(1.0, 1.0, 65, 65)
    t_end = 29.5 * sw.cfl_dt(p, grid, 0.45)
    stack_bytes = 3 * grid.nx * grid.ny * 8
    peaks, calls = {}, []
    tracemalloc.start()
    try:
        for cadence in (0, 1, 0, 1):  # the first pair warms every cache
            cfg = sw.RunConfig(p=p, grid=grid, t_end=t_end, initial=seeded_state(grid),
                               snapshot_cadence=cadence,
                               on_snapshot=lambda t, state: calls.append(t))
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sw.run(cfg)
            peaks[cadence] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(calls) == 2 * 31
    assert abs(peaks[1] - peaks[0]) < stack_bytes, (peaks, stack_bytes)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_failed_run_hands_out_the_snapshots_before_the_failure():
    """A constant forcing of 3e155 makes the energy overflow at step 5 of a
    16^2 supercritical run: at cadence 1 the callback has received the
    states of steps 0-4, with the bits of a reference step, when run()
    raises NonFinite."""
    p, grid = params("super"), sw.Grid(1.0, 1.0, 16, 16)
    F = np.full((3, grid.nx, grid.ny), 3e155)
    cfg = sw.RunConfig(p=p, grid=grid, t_end=0.05, initial=seeded_state(grid),
                       forcing=lambda t: F, snapshot_cadence=1)
    snapshots = []
    with pytest.raises(NonFinite, match=r"^non-finite energy at t="):
        sw.run(dataclasses.replace(cfg, on_snapshot=lambda t, s: snapshots.append((t, s))))
    stepper = _Stepper(cfg)
    dt = cfg.t_end / math.ceil(cfg.t_end / sw.cfl_dt(p, grid, cfg.cfl) - 1e-12)
    W = stepper.enforce(cfg.initial.stack(), 0.0)
    assert [t for t, _ in snapshots] == [k * dt for k in range(5)]
    for k, (_, snap) in enumerate(snapshots):
        assert np.array_equal(snap.stack(), W)
        W = reference_advance(stepper, W, dt, k * dt).copy()
    assert not np.isfinite(sw.energy_value(sw.StateField(*W), grid, p))
