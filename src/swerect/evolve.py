"""Time integration dU/dt + (A + B) U = F with contraction and MMS harnesses.

The semigroup generated by -(A + B) is contractive in the weighted norm, and
the discretization is built to keep that property: upwind fluxes dissipate,
the rotation term is exactly energy-neutral, and boundary projection happens
per stage so every stage state satisfies the catalog.  Default integrator is
two-stage SSP Runge-Kutta (Heun); forward Euler is available behind a config
switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .boundary import BcEnforcer, BoundaryData, bc_catalog
from .errors import InvalidValue, NonFinite, ShapeMismatch
from .fields import (EnergyLog, Grid, StateField, convergence_order, is_integer, is_real,
                     row_blocks)
from .manufactured import ManufacturedSolution
from .operator import DiscreteOperator, energy_value
from .regime import PhysicalConstants


def cfl_dt(p: PhysicalConstants, grid: Grid, cfl: float) -> float:
    """Largest stable step: cfl / ((u0+c)/dx + (v0+c)/dy), c = sqrt(g*phi0)."""
    c = p.sound_speed
    return cfl / ((p.u0 + c) / grid.dx + (p.v0 + c) / grid.dy)


SCHEMES = ("ssprk2", "euler")


def check_run_settings(t_end: float, cfl: float, scheme: str, snapshot_cadence: int) -> None:
    """The rules on a run's settings; RunConfig and the config file both call this."""
    for name, value in (("cfl", cfl), ("t_end", t_end)):
        if not is_real(value):
            raise InvalidValue(f"{name} must be a real number, got {value!r}")
    if not (0.0 < cfl <= 0.9):
        raise InvalidValue(f"cfl must be in (0, 0.9], got {cfl}")
    if not (0.0 < t_end < math.inf):
        raise InvalidValue(f"t_end must be positive and finite, got {t_end}")
    if scheme not in SCHEMES:
        raise InvalidValue(f"scheme must be one of {SCHEMES}, got '{scheme}'")
    if not is_integer(snapshot_cadence):
        raise InvalidValue(f"snapshot cadence must be an integer, got {snapshot_cadence!r}")
    if snapshot_cadence < 0:
        raise InvalidValue(f"snapshot cadence must be nonnegative, got {snapshot_cadence}")


@dataclass
class RunConfig:
    p: PhysicalConstants
    grid: Grid
    t_end: float
    initial: StateField
    cfl: float = 0.45
    scheme: str = "ssprk2"
    forcing: Optional[Callable[[float], np.ndarray]] = None
    boundary_data: BoundaryData = field(default_factory=BoundaryData.homogeneous)
    snapshot_cadence: int = 0
    on_snapshot: Optional[Callable[[float, StateField], None]] = None

    def __post_init__(self):
        check_run_settings(self.t_end, self.cfl, self.scheme, self.snapshot_cadence)
        if not isinstance(self.initial, StateField):
            raise InvalidValue(f"initial state must be a StateField, "
                               f"got {type(self.initial).__name__}")
        if any(map(np.iscomplexobj, (self.initial.u, self.initial.v, self.initial.phi))):
            raise InvalidValue("initial state must be real, got a complex component")
        if self.initial.u.shape != (self.grid.nx, self.grid.ny):
            raise InvalidValue("initial state shape does not match grid")


class _Stepper:
    """Bound operator + enforcer for one run; reused across steps/stages.

    A step works in two (3, nx, ny) stacks, the state it is given and the
    stepper's scratch, and allocates nothing: SSP-RK2 writes stage 1 into
    the scratch and sums stage 2 into the state in place, and forward Euler
    writes the scratch and takes the old state as its next scratch, so a
    run alternates between the two.  A later step overwrites the state a
    step returns: a caller that keeps a state copies it.

    Each stage is one sweep over fields.row_blocks: a block's slope, its
    stage arithmetic and its share of the stage result are done while the
    block is in cache, and only the boundary projection runs on the whole
    stack.  A block's slope reads only rows of the stage's input, which no
    stage writes, so no block reads a row that an earlier block changed.

    The forcing, like the boundary data in the enforcer, is evaluated once
    per distinct stage time: stage 2 of a step and stage 1 of the next ask
    for the same t whenever k*dt rounds like (k-1)*dt + dt.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.enforcer = BcEnforcer(bc_catalog(cfg.p), cfg.p, cfg.grid)
        self.op = DiscreteOperator(cfg.p, cfg.grid)
        self.f = cfg.p.f
        nx, ny = cfg.grid.nx, cfg.grid.ny
        blocks = row_blocks(nx, ny)
        tmp = np.empty(3 * max(r1 - r0 for r0, r1 in blocks) * ny)
        # each block with its view of the stage 2 scratch for X + W
        self._blocks = [(r0, r1, tmp[:3 * (r1 - r0) * ny].reshape(3, r1 - r0, ny))
                        for r0, r1 in blocks]
        self._k = np.empty((3, nx, ny))  # the scratch: a stage result
        self._forcing_t = self._forcing = None

    def enforce(self, W: np.ndarray, t: float) -> np.ndarray:
        return self.enforcer.apply(W, self.cfg.boundary_data, t)

    def forcing_at(self, t: float) -> Optional[np.ndarray]:
        if self.cfg.forcing is None:
            return None
        if t != self._forcing_t:
            F = self.cfg.forcing(t)
            shape = (3, self.cfg.grid.nx, self.cfg.grid.ny)
            if np.shape(F) != shape:
                raise ShapeMismatch(f"forcing at t={t} has shape {np.shape(F)}, need {shape}")
            self._forcing, self._forcing_t = np.asarray(F), t
        return self._forcing

    def stage(self, X: np.ndarray, t: float, dt: float, out: np.ndarray,
              average: bool = False) -> np.ndarray:
        """With S = -(A + B) X + F(t), out = X + dt*S, or, with average,
        out = 0.5*(X + W + dt*S) where W is out on entry (SSP-RK2's stage 2
        sums into W in place); out must not be X.

        The slope of a block is formed in its rows of out.  Each in-place
        sequence rounds like these formulas at every finite value: with
        average, X + W is formed in block scratch before the slope
        overwrites W's rows, then added to dt*S, and IEEE addition commutes.
        """
        F = self.forcing_at(t)
        nx = X.shape[1]
        for r0, r1, tmp in self._blocks:
            Xb, S = X[:, r0:r1], out[:, r0:r1]
            if average:
                np.add(Xb, S, out=tmp)
            self.op.apply_stack(Xb, S, west=X[:, r0 - 1] if r0 else None,
                                east=X[:, r1] if r1 < nx else None)
            np.negative(S, out=S)
            if self.f != 0.0:
                S[0] += self.f * Xb[1]
                S[1] -= self.f * Xb[0]
            if F is not None:
                S += F[:, r0:r1]
            S *= dt
            if average:
                S += tmp
                S *= 0.5
            else:
                S += Xb
        return out

    def advance(self, W: np.ndarray, dt: float, t: float) -> np.ndarray:
        """One step from t to t + dt.  W must be a float (3, nx, ny) stack
        that satisfies the catalog (run() enforces the initial state before
        its first step).  SSP-RK2 returns W, updated in place; forward Euler
        returns the scratch and keeps W as its next scratch."""
        data = self.cfg.boundary_data
        K = self._k
        # each projection runs in place: each node reads only itself
        self.enforcer.apply(self.stage(W, t, dt, K), data, t + dt, out=K)
        if self.cfg.scheme == "euler":
            self._k = W
            return K
        self.stage(K, t + dt, dt, W, average=True)
        return self.enforcer.apply(W, data, t + dt, out=W)


@dataclass
class RunResult:
    final: StateField
    log: EnergyLog
    n_steps: int
    dt: float


# the most steps run() takes: a config that asks for more is refused
MAX_STEPS = 10**8


def run(cfg: RunConfig) -> RunResult:
    """Integrate to t_end with a uniform step chosen to land exactly on t_end.

    Energy is logged every step; a NaN/Inf in the initial state (step 0) or a
    step's result aborts with NonFinite naming the regime, the step, and the
    first bad field and node (u before v before phi, then row-major (i, j)).
    A CFL step that underflows to 0, or a step count that overflows a float
    or exceeds MAX_STEPS, is an InvalidValue raised before any step.

    With snapshot_cadence > 0, the state at step 0, at every cadence-th
    step and at the last step is passed, as its own copy, to
    cfg.on_snapshot(t, state) once its energy is logged.  run() keeps
    none of them and copies no other state, so it holds the stepper's two
    stacks however long it runs; a run that fails has handed out the
    snapshots of the steps before the failure.
    """
    stepper = _Stepper(cfg)
    dt_max = cfl_dt(cfg.p, cfg.grid, cfg.cfl)
    if dt_max == 0.0:
        raise InvalidValue("the CFL step underflows to 0 on this grid")
    if math.isinf(cfg.t_end / dt_max):
        raise InvalidValue(f"the step count t_end / dt = {cfg.t_end:.6g} / {dt_max:.6g} "
                           f"overflows a float")
    n_steps = max(1, math.ceil(cfg.t_end / dt_max - 1e-12))
    if n_steps > MAX_STEPS:
        raise InvalidValue(f"the step count t_end / dt = {cfg.t_end:.6g} / {dt_max:.6g} "
                           f"= {n_steps:.9g} exceeds the cap of {MAX_STEPS} steps")
    dt = cfg.t_end / n_steps

    # stack() copies cfg.initial, so the projection can run in place on it;
    # an integer state is computed on as a float copy of its values
    W = np.asarray(cfg.initial.stack(), dtype=float)
    stepper.enforcer.apply(W, cfg.boundary_data, 0.0, out=W)
    log = EnergyLog()
    cadence = cfg.snapshot_cadence if cfg.on_snapshot is not None else 0
    for k in range(n_steps + 1):
        if k > 0:  # step 0 checks, logs and snapshots the projected initial state
            W = stepper.advance(W, dt, t)
        t = k * dt
        if not np.all(np.isfinite(W)):
            c, i, j = np.argwhere(~np.isfinite(W))[0]
            raise NonFinite(
                f"non-finite state at step {k} (t={t:.6g}, regime {cfg.p.regime}): "
                f"first in field '{('u', 'v', 'phi')[c]}' at node ({i}, {j})"
            )
        # the next step writes W only after this energy is taken: a view will do
        log.append(t, energy_value(StateField(*W), cfg.grid, cfg.p))
        if cadence > 0 and (k % cadence == 0 or k == n_steps):
            cfg.on_snapshot(t, StateField.from_stack(W))
    return RunResult(StateField.from_stack(W), log, n_steps, dt)


@dataclass
class ContractionReport:
    max_violation: float
    worst_index: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol


def contraction_check(log: EnergyLog, tol: float = 1e-12) -> ContractionReport:
    """Pass iff E_{k+1} <= E_k * (1 + tol) for every step of the log."""
    worst, worst_idx = -np.inf, 0
    for k, (e0, e1) in enumerate(zip(log.energies, log.energies[1:])):
        viol = (e1 - e0) / e0 if e0 > 0 else (0.0 if e1 <= 0 else np.inf)
        if viol > worst:
            worst, worst_idx = viol, k
    if worst == -np.inf:
        worst = 0.0
    return ContractionReport(float(worst), worst_idx, tol)


@dataclass
class MmsReport:
    nodes: List[Tuple[int, int]]
    errors: List[float]
    orders: List[float]

    def passed(self, lo: float = 0.8, hi: float = 1.3) -> bool:
        """True iff there is at least one order and all lie in [lo, hi]."""
        return bool(self.orders) and all(lo <= o <= hi for o in self.orders)


def _mms_error(solution: ManufacturedSolution, p: PhysicalConstants, grid: Grid,
               t_end: float, cfl: float, scheme: str) -> float:
    spec = bc_catalog(p)
    cfg = RunConfig(
        p=p, grid=grid, t_end=t_end,
        initial=solution.state_field(grid, 0.0),
        cfl=cfl, scheme=scheme,
        forcing=solution.forcing_on_grid(p, grid),
        boundary_data=solution.boundary_data_on_grid(spec, grid),
    )
    result = run(cfg)
    exact = solution.state_field(grid, t_end)
    diff = StateField(result.final.u - exact.u, result.final.v - exact.v,
                      result.final.phi - exact.phi)
    return math.sqrt(energy_value(diff, grid, p))


def refinement_ladder(base: Grid, levels: int) -> List[Grid]:
    """Grids whose spacing halves exactly per level: n -> 2n - 1 nodes."""
    if not is_integer(levels):
        raise InvalidValue(f"refinement ladder levels must be an integer, got {levels!r}")
    if levels < 2:
        raise InvalidValue(f"a refinement ladder needs at least two levels, got {levels}")
    out = [base]
    for _ in range(levels - 1):
        prev = out[-1]
        out.append(Grid(prev.l1, prev.l2, 2 * prev.nx - 1, 2 * prev.ny - 1))
    return out


def mms_convergence(p: PhysicalConstants, grids: Sequence[Grid], t_end: float = 0.25,
                    cfl: float = 0.45, scheme: str = "ssprk2",
                    solution: Optional[ManufacturedSolution] = None) -> MmsReport:
    """Weighted-L2 errors against the manufactured solution on a grid ladder.

    Successive grids should halve the spacing exactly (refinement_ladder does
    this) so the reported orders are plain log2 ratios.
    """
    sol = solution if solution is not None else ManufacturedSolution()
    errors = [_mms_error(sol, p, g, t_end, cfl, scheme) for g in grids]
    orders = [convergence_order(errors[k], errors[k + 1]) for k in range(len(errors) - 1)]
    return MmsReport([(g.nx, g.ny) for g in grids], errors, orders)
