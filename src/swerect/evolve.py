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

from .boundary import BcEnforcer, BoundaryData, BoundarySpec, bc_catalog
from .algebra import transform_for
from .errors import CflViolation, InvalidValue, NonFinite
from .fields import EnergyLog, Grid, StateField
from .manufactured import ManufacturedSolution
from .operator import DiscreteOperator, energy_value
from .regime import PhysicalConstants, classify


def cfl_dt(p: PhysicalConstants, grid: Grid, cfl: float) -> float:
    """Largest stable step: cfl / ((u0+c)/dx + (v0+c)/dy), c = sqrt(g*phi0)."""
    c = p.sound_speed
    return cfl / ((p.u0 + c) / grid.dx + (p.v0 + c) / grid.dy)


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

    def __post_init__(self):
        if not (0.0 < self.cfl <= 0.9):
            raise InvalidValue(f"cfl must be in (0, 0.9], got {self.cfl}")
        if not (self.t_end > 0.0):
            raise InvalidValue(f"t_end must be positive, got {self.t_end}")
        if self.scheme not in ("ssprk2", "euler"):
            raise InvalidValue(f"scheme must be 'ssprk2' or 'euler', got '{self.scheme}'")
        if self.initial.u.shape != (self.grid.nx, self.grid.ny):
            raise InvalidValue("initial state shape does not match grid")


class _Stepper:
    """Bound operator + enforcer for one run; reused across steps/stages."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.regime = classify(cfg.p)
        self.spec: BoundarySpec = bc_catalog(self.regime, cfg.p)
        # rows-only enforcement: outflow sides evolve under the one-sided
        # stencils, which is what keeps the discrete energy estimate
        self.enforcer = BcEnforcer(self.spec, transform_for(cfg.p), cfg.grid,
                                   include_free_sides=False)
        self.op = DiscreteOperator(cfg.p, cfg.grid)
        self.f = cfg.p.f

    def enforce(self, W: np.ndarray, t: float) -> np.ndarray:
        return self.enforcer.apply(W, self.cfg.boundary_data, t)

    def rhs(self, W: np.ndarray, t: float) -> np.ndarray:
        R = -self.op.apply_stack(W)
        if self.f != 0.0:
            R[0] += self.f * W[1]
            R[1] -= self.f * W[0]
        if self.cfg.forcing is not None:
            R += self.cfg.forcing(t)
        return R

    def advance(self, W: np.ndarray, dt: float, t: float) -> np.ndarray:
        if self.cfg.scheme == "euler":
            return self.enforce(W + dt * self.rhs(W, t), t + dt)
        K1 = self.rhs(W, t)
        W1 = self.enforce(W + dt * K1, t + dt)
        K2 = self.rhs(W1, t + dt)
        return self.enforce(0.5 * (W + W1 + dt * K2), t + dt)


def step(state: StateField, dt: float, t: float, cfg: RunConfig) -> StateField:
    """Single step from t to t+dt; state must already satisfy the catalog
    (run() enforces the initial state before its first step)."""
    limit = cfl_dt(cfg.p, cfg.grid, cfg.cfl)
    if dt > limit * (1.0 + 1e-9):
        raise CflViolation(f"dt = {dt} exceeds cfl limit {limit}")
    out = _Stepper(cfg).advance(state.stack(), dt, t)
    return StateField.from_stack(out)


@dataclass
class RunResult:
    final: StateField
    log: EnergyLog
    snapshots: List[Tuple[float, StateField]]
    n_steps: int
    dt: float


def run(cfg: RunConfig) -> RunResult:
    """Integrate to t_end with a uniform step chosen to land exactly on t_end.

    Energy is logged every step; a NaN/Inf in any field aborts with NonFinite
    and a diagnostic naming the regime and step.
    """
    stepper = _Stepper(cfg)
    dt_max = cfl_dt(cfg.p, cfg.grid, cfg.cfl)
    n_steps = max(1, math.ceil(cfg.t_end / dt_max - 1e-12))
    dt = cfg.t_end / n_steps

    W = stepper.enforce(cfg.initial.stack(), 0.0)
    log = EnergyLog()
    snapshots: List[Tuple[float, StateField]] = []
    log.append(0.0, energy_value(StateField(*W), cfg.grid, cfg.p))
    if cfg.snapshot_cadence > 0:
        snapshots.append((0.0, StateField.from_stack(W)))

    t = 0.0
    for k in range(1, n_steps + 1):
        W = stepper.advance(W, dt, t)
        t = k * dt
        if not np.all(np.isfinite(W)):
            raise NonFinite(
                f"non-finite state at step {k} (t={t:.6g}, regime {stepper.regime})"
            )
        # advance returns a fresh W that nothing writes into later: a view will do
        log.append(t, energy_value(StateField(*W), cfg.grid, cfg.p))
        if cfg.snapshot_cadence > 0 and (k % cfg.snapshot_cadence == 0 or k == n_steps):
            snapshots.append((t, StateField.from_stack(W)))
    return RunResult(StateField.from_stack(W), log, snapshots, n_steps, dt)


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
    worst = -np.inf
    worst_idx = 0
    for k in range(len(log) - 1):
        e0, e1 = log.energies[k], log.energies[k + 1]
        if e0 > 0:
            viol = (e1 - e0) / e0
        else:
            viol = 0.0 if e1 <= 0 else np.inf
        if viol > worst:
            worst = viol
            worst_idx = k
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
    spec = bc_catalog(classify(p), p)
    data = BoundaryData.from_state_samples(spec, grid, lambda x, y, t: solution.state(x, y, t))
    cfg = RunConfig(
        p=p, grid=grid, t_end=t_end,
        initial=solution.state_field(grid, 0.0),
        cfl=cfl, scheme=scheme,
        forcing=solution.forcing_on_grid(p, grid),
        boundary_data=data,
    )
    result = run(cfg)
    exact = solution.state_field(grid, t_end)
    diff = StateField(result.final.u - exact.u, result.final.v - exact.v,
                      result.final.phi - exact.phi)
    return math.sqrt(energy_value(diff, grid, p))


def refinement_ladder(base: Grid, levels: int) -> List[Grid]:
    """Grids whose spacing halves exactly per level: n -> 2n - 1 nodes."""
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
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]
    return MmsReport([(g.nx, g.ny) for g in grids], errors, orders)
