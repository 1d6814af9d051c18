"""Boundary-condition catalogs, discrete enforcement, and lifting.

Each regime admits a specific set of constraint rows c with c . (u, v, phi) =
data on each side of the rectangle; the row count per side equals the number
of characteristics entering through that side, which is what makes the
resulting problem well posed.  In the hyperbolic regimes both catalogs follow
from that one rule (_entering_rows); the mixed subcritical rows are
closed-form.

Enforcement works in characteristic variables: at a boundary node the
constrained combinations are set from the data while the remaining
combinations are filled by first-order extrapolation from the interior, then
the node value is recovered by a single 3x3 solve.  Corner nodes take the
union of the two adjacent sides' rows (de-duplicated by rank).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .algebra import Transform, elliptic_transform, hyperbolic_transform
from .errors import RegimeMismatch, ShapeMismatch, SingularConstraintSystem
from .fields import Grid, StateField
from .regime import PhysicalConstants, Regime, classify


class Side(enum.Enum):
    WEST = "W"    # x = 0
    EAST = "E"    # x = L1
    SOUTH = "S"   # y = 0
    NORTH = "N"   # y = L2

    def __str__(self):
        return self.name.capitalize()


SIDES = (Side.WEST, Side.EAST, Side.SOUTH, Side.NORTH)


@dataclass(frozen=True)
class BoundarySpec:
    """Constraint rows per side; rows[s] has shape (k_s, 3), possibly k_s = 0."""

    regime: Regime
    adjoint: bool
    rows: Dict[Side, np.ndarray]

    def counts(self) -> Tuple[int, int, int, int]:
        return tuple(self.rows[s].shape[0] for s in SIDES)


def _rows(*rs) -> np.ndarray:
    return np.array(rs, dtype=float).reshape(-1, 3)


def _entering_rows(p: PhysicalConstants, s: float) -> Dict[Side, np.ndarray]:
    """Rows of Pinv whose characteristic enters through each side.

    With orientation s (+1 forward, -1 adjoint) West takes the rows with
    s*a > 0, East s*a < 0, South s*b > 0 and North s*b < 0.  A side that
    takes all three rows keeps the identity, so its data are plain
    Dirichlet values of (u, v, phi).
    """
    t = hyperbolic_transform(p)
    entering = {
        Side.WEST: s * t.a > 0,
        Side.EAST: s * t.a < 0,
        Side.SOUTH: s * t.b > 0,
        Side.NORTH: s * t.b < 0,
    }
    return {side: np.eye(3) if m.all() else t.Pinv[m] for side, m in entering.items()}


def bc_catalog(regime: Regime, p: PhysicalConstants) -> BoundarySpec:
    """Forward-problem constraint rows for the regime of p.

    In the hyperbolic regimes each side constrains exactly the
    characteristics entering through it (the sign law of _entering_rows);
    the mixed subcritical regime constrains the shear and energy-flux
    combinations on West/South and phi alone on East/North.
    """
    if classify(p) is not regime:
        raise RegimeMismatch(f"constants classify as {classify(p)}, not {regime}")
    if regime is not Regime.MIXED_SUBCRITICAL:
        return BoundarySpec(regime, False, _entering_rows(p, 1.0))
    u0, v0, g = p.u0, p.v0, p.g
    ws = _rows((v0, -u0, 0.0), (u0, v0, g))
    side_rows = {
        Side.WEST: ws,
        Side.SOUTH: ws.copy(),
        # the elliptic pair leaves a single Dirichlet trace; stored as
        # phi = 0 (any positive rescaling of the row is the same set)
        Side.EAST: _rows((0.0, 0.0, 1.0)),
        Side.NORTH: _rows((0.0, 0.0, 1.0)),
    }
    return BoundarySpec(regime, False, side_rows)


def adjoint_bc_catalog(regime: Regime, p: PhysicalConstants) -> BoundarySpec:
    """Adjoint-problem constraint rows (homogeneous in the adjoint variables).

    The adjoint operator transports information the opposite way, so in the
    hyperbolic regimes it is the sign law with reversed orientation: the
    W<->E, S<->N mirror of the forward catalog.  The mixed subcritical rows
    are closed-form.
    """
    if classify(p) is not regime:
        raise RegimeMismatch(f"constants classify as {classify(p)}, not {regime}")
    if regime is not Regime.MIXED_SUBCRITICAL:
        return BoundarySpec(regime, True, _entering_rows(p, -1.0))
    u0, v0, g = p.u0, p.v0, p.g
    k1 = elliptic_transform(p).kappa1
    side_rows = {
        Side.WEST: _rows((g * v0**2, -g * v0 * u0, -u0 * k1**2)),
        Side.EAST: _rows((u0 * v0, -u0**2, g * v0), (u0, v0, g)),
        Side.SOUTH: _rows((g * u0 * v0, -g * u0**2, v0 * k1**2)),
        Side.NORTH: _rows((v0**2, -v0 * u0, -g * u0), (u0, v0, g)),
    }
    return BoundarySpec(regime, True, side_rows)


@dataclass
class IncomingCountReport:
    counts: Tuple[int, int, int, int]
    expected: Tuple[int, int, int, int]

    @property
    def passed(self) -> bool:
        return self.counts == self.expected


def incoming_count_check(p: PhysicalConstants, regime: Regime) -> IncomingCountReport:
    """Row counts per side vs the entering-characteristic counts.

    West should carry one row per positive a_i, East one per negative a_i,
    South/North likewise for b.  The mixed subcritical regime has no full
    characteristic set; its counts are fixed at (2, 1, 2, 1).
    """
    spec = bc_catalog(regime, p)
    if regime is Regime.MIXED_SUBCRITICAL:
        expected = (2, 1, 2, 1)
    else:
        t = hyperbolic_transform(p)
        expected = (
            int(np.sum(t.a > 0)),
            int(np.sum(t.a < 0)),
            int(np.sum(t.b > 0)),
            int(np.sum(t.b < 0)),
        )
    return IncomingCountReport(spec.counts(), expected)


class BoundaryData:
    """Per-side time-dependent trace data for the constrained combinations.

    samplers maps Side -> callable(t) -> array (k_side, n_side) where n is ny
    for West/East and nx for South/North, ordered along the side with corner
    nodes included.  Missing sides are homogeneous (zero data).
    """

    def __init__(self, samplers: Optional[Dict[Side, Callable[[float], np.ndarray]]] = None):
        self.samplers = dict(samplers or {})

    @classmethod
    def homogeneous(cls) -> "BoundaryData":
        return cls()

    def sample(self, side: Side, t: float, k: int, n: int) -> np.ndarray:
        f = self.samplers.get(side)
        if f is None:
            return np.zeros((k, n))
        d = np.asarray(f(t), dtype=float)
        if d.shape != (k, n):
            raise ShapeMismatch(f"{side} data shape {d.shape}, expected {(k, n)}")
        return d

    @classmethod
    def from_state_samples(cls, spec: BoundarySpec, grid: Grid, state_at) -> "BoundaryData":
        """Data realizing the rows of spec on a known field.

        state_at(x, y, t) must return a (3, n) stack at the n given boundary
        nodes; used to manufacture compatible non-homogeneous data.
        """
        xs, ys = grid.x, grid.y
        side_nodes = {
            Side.WEST: (np.zeros(grid.ny), ys),
            Side.EAST: (np.full(grid.ny, grid.l1), ys),
            Side.SOUTH: (xs, np.zeros(grid.nx)),
            Side.NORTH: (xs, np.full(grid.nx, grid.l2)),
        }
        samplers = {}
        for side in SIDES:
            rows = spec.rows[side]
            if rows.shape[0] == 0:
                continue
            bx, by = side_nodes[side]

            def make(rows=rows, bx=bx, by=by):
                return lambda t: rows @ np.asarray(state_at(bx, by, t))

            samplers[side] = make()
        return cls(samplers)


# --- discrete enforcement ---------------------------------------------------


def _independent_then_complete(rows: np.ndarray, pinv: np.ndarray):
    """Greedily keep independent rows, then append transform rows to rank 3.

    Returns (keep_idx, n_kept, M) with M the (3, 3) solve matrix whose first
    n_kept rows are the kept constraints and the rest free combinations.
    """
    kept: List[int] = []
    cur = np.zeros((0, 3))
    for i in range(rows.shape[0]):
        trial = np.vstack([cur, rows[i]])
        if np.linalg.matrix_rank(trial) > cur.shape[0]:
            kept.append(i)
            cur = trial
    n_kept = cur.shape[0]
    for r in pinv:
        if cur.shape[0] == 3:
            break
        trial = np.vstack([cur, r])
        if np.linalg.matrix_rank(trial) > cur.shape[0]:
            cur = trial
    if cur.shape[0] != 3:
        raise SingularConstraintSystem("constraint rows cannot be completed to rank 3")
    return kept, n_kept, cur


@dataclass
class _Plan:
    G_data: np.ndarray   # (3, n_kept)
    G_free: np.ndarray   # (3, 3) acting on the extrapolated state; zero rows when n_kept = 3
    keep_idx: List[int]  # into the rows; at a corner, x side rows stacked over y side rows


def _make_plan(rows: np.ndarray, pinv: np.ndarray, include_free_sides: bool) -> Optional[_Plan]:
    if rows.shape[0] == 0:
        # pure extrapolation (identity on the extrapolated state), or untouched
        return _Plan(np.zeros((3, 0)), np.eye(3), []) if include_free_sides else None
    keep, n_kept, M = _independent_then_complete(rows, pinv)
    Minv = np.linalg.inv(M)
    G_free = np.zeros((3, 3)) if n_kept == 3 else Minv[:, n_kept:] @ M[n_kept:]
    return _Plan(Minv[:, :n_kept], G_free, keep)


# corner -> (x side, y side)
_CORNERS = {
    "SW": (Side.WEST, Side.SOUTH),
    "SE": (Side.EAST, Side.SOUTH),
    "NW": (Side.WEST, Side.NORTH),
    "NE": (Side.EAST, Side.NORTH),
}


class BcEnforcer:
    """Precompiled boundary projection for one (spec, transform, grid) triple.

    apply() overwrites boundary nodes of a (3, nx, ny) stack so the constraint
    rows hold exactly with the sampled data while free combinations take the
    linear extrapolation 2*U_1 - U_2 from the interior (diagonal at corners).
    Only interior values are read, so the projection is idempotent.

    include_free_sides: when True, sides without any constraint rows are also
    overwritten by pure extrapolation; the time stepper keeps them evolving
    under its one-sided stencils instead (False), which preserves the discrete
    energy estimate at outflow.
    """

    def __init__(self, spec: BoundarySpec, transform: Transform, grid: Grid,
                 include_free_sides: bool = False):
        self.spec = spec
        self.grid = grid
        self.include_free_sides = include_free_sides
        pinv = transform.Pinv
        self._side_plans: Dict[Side, Optional[_Plan]] = {
            side: _make_plan(spec.rows[side], pinv, include_free_sides) for side in SIDES
        }
        self._corner_plans: Dict[str, Optional[_Plan]] = {
            name: _make_plan(np.vstack([spec.rows[sx], spec.rows[sy]]), pinv, include_free_sides)
            for name, (sx, sy) in _CORNERS.items()
        }

    def apply(self, W: np.ndarray, data: BoundaryData, t: float = 0.0) -> np.ndarray:
        nx, ny = self.grid.nx, self.grid.ny
        out = W.copy()
        k_of = {s: self.spec.rows[s].shape[0] for s in SIDES}
        n_of = {Side.WEST: ny, Side.EAST: ny, Side.SOUTH: nx, Side.NORTH: nx}
        samples = {s: data.sample(s, t, k_of[s], n_of[s]) for s in SIDES}

        # edges (corner nodes handled below)
        extrap = {
            Side.WEST: 2.0 * W[:, 1, 1:-1] - W[:, 2, 1:-1],
            Side.EAST: 2.0 * W[:, -2, 1:-1] - W[:, -3, 1:-1],
            Side.SOUTH: 2.0 * W[:, 1:-1, 1] - W[:, 1:-1, 2],
            Side.NORTH: 2.0 * W[:, 1:-1, -2] - W[:, 1:-1, -3],
        }
        target = {
            Side.WEST: (0, slice(1, ny - 1)),
            Side.EAST: (nx - 1, slice(1, ny - 1)),
            Side.SOUTH: (slice(1, nx - 1), 0),
            Side.NORTH: (slice(1, nx - 1), ny - 1),
        }
        for side in SIDES:
            plan = self._side_plans[side]
            if plan is None:
                continue
            d = samples[side][plan.keep_idx, 1:-1]
            vals = plan.G_data @ d + plan.G_free @ extrap[side]
            ti, tj = target[side]
            out[:, ti, tj] = vals

        # corners: data gathered from both sides at the shared node
        node = {"SW": (0, 0), "SE": (nx - 1, 0), "NW": (0, ny - 1), "NE": (nx - 1, ny - 1)}
        diag = {
            "SW": 2.0 * W[:, 1, 1] - W[:, 2, 2],
            "SE": 2.0 * W[:, -2, 1] - W[:, -3, 2],
            "NW": 2.0 * W[:, 1, -2] - W[:, 2, -3],
            "NE": 2.0 * W[:, -2, -2] - W[:, -3, -3],
        }
        for name, (sx, sy) in _CORNERS.items():
            plan = self._corner_plans[name]
            if plan is None:
                continue
            i, j = node[name]
            pos_x = j   # along W/E the coordinate is y
            pos_y = i   # along S/N it is x
            stacked = np.concatenate([samples[sx][:, pos_x], samples[sy][:, pos_y]])
            d = stacked[plan.keep_idx]
            out[:, i, j] = plan.G_data @ d + plan.G_free @ diag[name]
        return out


def apply_bc(state: StateField, spec: BoundarySpec, data: BoundaryData,
             transform: Transform, t: float = 0.0) -> StateField:
    """Projection form of the boundary conditions on a single field.

    Constraint rows hold exactly (to round-off) at every boundary node after
    the call; unconstrained combinations, including whole sides without rows,
    are filled by first-order extrapolation from the interior.
    """
    nx, ny = state.u.shape
    # enforcement is purely nodal; physical lengths are irrelevant here
    enforcer = BcEnforcer(spec, transform, Grid(1.0, 1.0, nx, ny), include_free_sides=True)
    out = enforcer.apply(state.stack(), data, t)
    return StateField.from_stack(out)


# --- lifting ----------------------------------------------------------------


@dataclass
class LiftedProblem:
    """Homogeneous-BC reformulation of a non-homogeneous problem.

    Solve the homogeneous problem with forcing() and initial state
    (original initial minus shift(0)); then solution = homogeneous + shift(t).
    """

    forcing: Callable[[float], np.ndarray]
    shift: Callable[[float], StateField]


def lift_nonhomogeneous(ug, dug_dt, forcing, p: PhysicalConstants, grid: Grid) -> LiftedProblem:
    """Fold boundary data carried by a lifting field ug into the forcing.

    ug(t) and dug_dt(t) return StateFields satisfying the non-homogeneous
    boundary data; forcing(t) returns a (3, nx, ny) stack (or None for zero).
    The lifted forcing is F - d(ug)/dt - A_h ug - B ug, so the remainder
    solves the same system with homogeneous boundary data.
    """
    from .operator import DiscreteOperator, apply_B  # local import; operator imports this module
    op = DiscreteOperator(p, grid)

    def lifted(t: float) -> np.ndarray:
        base = forcing(t) if forcing is not None else None
        g = ug(t)
        if g.u.shape != (grid.nx, grid.ny):
            raise ShapeMismatch(f"field shape {g.u.shape} vs grid ({grid.nx}, {grid.ny})")
        out = -dug_dt(t).stack()
        out -= op.apply_stack(g.stack())
        out -= apply_B(g, p).stack()
        if base is not None:
            out += np.asarray(base)
        return out

    return LiftedProblem(forcing=lifted, shift=ug)
