"""Boundary-condition catalogs and discrete enforcement.

Each regime admits a specific set of constraint rows c with c . (u, v, phi) =
data on each side of the rectangle; the row count per side equals the number
of characteristics entering through that side, which is what makes the
resulting problem well posed.  In the hyperbolic regimes both catalogs follow
from that one rule (_entering_rows); the mixed subcritical forward rows
are rows of the elliptic transform, and its adjoint rows are closed-form.

Enforcement projects each constrained boundary node onto its rows' data,
orthogonally in the energy inner product (Olsson's projection method): the
node keeps the part of its own value that the rows leave free.  Corner nodes
take the union of the two adjacent sides' rows (de-duplicated by rank).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .algebra import (coefficient_matrices, elliptic_transform, hyperbolic_transform,
                      independent_rows)
from .errors import InvalidValue, RegimeMismatch, ShapeMismatch
from .fields import Grid
from .regime import PhysicalConstants, Regime


class Side(enum.Enum):
    """A side of the rectangle and where it sits in an (..., nx, ny) array.

    axis: the grid axis the side cuts (0 for West/East, 1 for South/North);
    end: the index of its node line along that axis (0 or -1);
    outward: the sign of its outward normal along that axis (-1 or +1).
    """

    WEST = "W"    # x = 0
    EAST = "E"    # x = L1
    SOUTH = "S"   # y = 0
    NORTH = "N"   # y = L2

    __hash__ = object.__hash__  # singletons compared by identity: hash in C

    def __init__(self, code: str):
        self.axis = int(code in "SN")
        self.outward = 1 if code in "EN" else -1
        self.end = -1 if self.outward > 0 else 0

    def __str__(self):
        return self.name.capitalize()

    def line(self, a: np.ndarray) -> np.ndarray:
        """View of this side's node line of an (..., nx, ny) array:
        a[..., 0, :] for West, a[..., -1] for North."""
        return a[..., self.end, :] if self.axis == 0 else a[..., self.end]


SIDES = (Side.WEST, Side.EAST, Side.SOUTH, Side.NORTH)

# the nine node classes: the interior, the four edges without their end
# nodes, then the four corners as (x side, y side)
_NODE_CLASSES = ((),) + tuple((s,) for s in SIDES) + tuple(
    (sx, sy) for sx in SIDES[:2] for sy in SIDES[2:])


def node_line(sides: Tuple[Side, ...]):
    """Index of one node class's nodes into an (..., nx, ny) array."""
    idx = [slice(1, -1), slice(1, -1)]
    for side in sides:
        idx[side.axis] = side.end
    return (Ellipsis, *idx)


@dataclass(frozen=True)
class BoundarySpec:
    """Constraint rows per side; rows[s] has shape (k_s, 3), possibly k_s = 0."""

    rows: Dict[Side, np.ndarray]

    def counts(self) -> Tuple[int, int, int, int]:
        return tuple(self.rows[s].shape[0] for s in SIDES)


def _rows(*rs) -> np.ndarray:
    return np.array(rs, dtype=float).reshape(-1, 3)


def _entering_rows(p: PhysicalConstants, s: float) -> Dict[Side, np.ndarray]:
    """Rows of Pinv whose characteristic enters through each side.

    With orientation s (+1 forward, -1 adjoint) a side takes the rows whose
    speed along its outward normal, s*a on West/East and s*b on
    South/North, is negative: West s*a > 0, East s*a < 0, South s*b > 0
    and North s*b < 0.  A side that takes all three rows keeps the
    identity, so its data are plain Dirichlet values of (u, v, phi).
    """
    t = hyperbolic_transform(p)
    speeds = (t.a.tolist(), t.b.tolist())
    out = {}
    for side in SIDES:
        keep = [i for i, c in enumerate(speeds[side.axis]) if side.outward * s * c < 0]
        out[side] = np.eye(3) if len(keep) == 3 else t.Pinv.take(keep, axis=0)
    return out


def _check_regime(p: PhysicalConstants, regime: Regime) -> None:
    if p.regime is not regime:
        raise RegimeMismatch(f"constants classify as {p.regime}, not {regime}")


def bc_catalog(p: PhysicalConstants) -> BoundarySpec:
    """Forward-problem constraint rows for the regime of p.

    In the hyperbolic regimes each side constrains exactly the
    characteristics entering through it (the sign law of _entering_rows);
    the mixed subcritical regime constrains rows 0 and 2 of the elliptic
    transform (theta1, zeta) on West/South and phi alone on East/North.
    """
    if p.regime is not Regime.MIXED_SUBCRITICAL:
        return BoundarySpec(_entering_rows(p, 1.0))
    Pinv = elliptic_transform(p).Pinv
    side_rows = {
        Side.WEST: Pinv.take([0, 2], axis=0),
        Side.SOUTH: Pinv.take([0, 2], axis=0),
        # the elliptic pair leaves a single Dirichlet trace; stored as
        # phi = 0 (any positive rescaling of the row is the same set)
        Side.EAST: _rows((0.0, 0.0, 1.0)),
        Side.NORTH: _rows((0.0, 0.0, 1.0)),
    }
    return BoundarySpec(side_rows)


def adjoint_bc_catalog(p: PhysicalConstants) -> BoundarySpec:
    """Adjoint-problem constraint rows (homogeneous in the adjoint variables).

    The adjoint operator transports information the opposite way, so in the
    hyperbolic regimes it is the sign law with reversed orientation: the
    W<->E, S<->N mirror of the forward catalog.  The mixed subcritical rows
    are closed-form.
    """
    if p.regime is not Regime.MIXED_SUBCRITICAL:
        return BoundarySpec(_entering_rows(p, -1.0))
    u0, v0, g, k1 = p.u0, p.v0, p.g, p.kappa
    side_rows = {
        Side.WEST: _rows((g * v0**2, -g * v0 * u0, -u0 * k1**2)),
        Side.EAST: _rows((u0 * v0, -u0**2, g * v0), (u0, v0, g)),
        Side.SOUTH: _rows((g * u0 * v0, -g * u0**2, v0 * k1**2)),
        Side.NORTH: _rows((v0**2, -v0 * u0, -g * u0), (u0, v0, g)),
    }
    return BoundarySpec(side_rows)


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
    characteristic set; its counts are fixed at (2, 1, 2, 1).  Raises
    RegimeMismatch when regime is not the regime of p.
    """
    _check_regime(p, regime)
    spec = bc_catalog(p)
    if regime is Regime.MIXED_SUBCRITICAL:
        expected = (2, 1, 2, 1)
    else:
        t = hyperbolic_transform(p)
        a, b = t.a.tolist(), t.b.tolist()
        expected = (
            sum(x > 0 for x in a),
            sum(x < 0 for x in a),
            sum(x > 0 for x in b),
            sum(x < 0 for x in b),
        )
    return IncomingCountReport(spec.counts(), expected)


class BoundaryData:
    """Per-side time-dependent trace data for the constrained combinations.

    samplers maps Side -> callable(t) -> array (k_side, n_side) where n is ny
    for West/East and nx for South/North, ordered along the side with corner
    nodes included.  Missing sides are homogeneous (zero data).  A sampler
    must be a function of t alone: an enforcer samples each side once per
    distinct t.
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
        samplers = {}
        for side, rows, (bx, by) in constrained_sides(spec, grid):

            def sample(t: float, rows=rows, bx=bx, by=by) -> np.ndarray:
                return rows @ np.asarray(state_at(bx, by, t))

            samplers[side] = sample
        return cls(samplers)


def constrained_sides(spec: BoundarySpec, grid: Grid):
    """(side, rows, (x, y)) for each side of spec with at least one row, in
    SIDES order; x and y are the paired coordinates of the side's nodes,
    corners included, in the order BoundaryData samplers return them."""
    xy = np.broadcast_arrays(grid.x[:, None], grid.y[None, :])
    return [(side, spec.rows[side], tuple(np.array(side.line(c)) for c in xy))
            for side in SIDES if spec.rows[side].shape[0]]


# --- discrete enforcement ---------------------------------------------------


class BcEnforcer:
    """Precompiled boundary projection for one (spec, constants, grid) triple.

    apply() moves each constrained boundary node of a (3, nx, ny) stack to the
    nearest state, in the energy weight S0 = diag(1, 1, g/phi0), at which its
    node class's independent rows R hold with the sampled data d:

        U <- U - S0^-1 R^T (R S0^-1 R^T)^-1 (R U - d) = K d + (I - K R) U.

    A node class whose rows have rank 3 is set to R^-1 d; sides without rows
    are left untouched, so outflow sides evolve under the one-sided stencils.
    The projection is orthogonal in the energy inner product, which is what
    lets a homogeneous step contract.  Each node reads only its own value,
    so the projection can run in place.  A node class whose K or I - K R is
    not finite, a singular R S0^-1 R^T included, is an InvalidValue.
    """

    def __init__(self, spec: BoundarySpec, p: PhysicalConstants, grid: Grid):
        self._shape = (3, grid.nx, grid.ny)
        # (k, n) of each side's data, in SIDES order
        self._shapes = tuple((spec.rows[s].shape[0], self._shape[2 - s.axis]) for s in SIDES)
        s_inv = 1.0 / np.diag(coefficient_matrices(p).S0)
        # one target per projected node class (edges, then corners): its K
        # and I - K R, the rows it keeps, where its nodes sit in each side's
        # data, and the nodes.  A side's data run along the other axis, so at
        # a corner the node is at the other side's end of it
        targets = []
        for sides in _NODE_CLASSES[1:]:
            rows = np.vstack([spec.rows[s] for s in sides])
            if rows.shape[0] == 0:
                continue
            keep = independent_rows(rows)
            R = rows[keep]
            try:
                with np.errstate(all="ignore"):
                    if len(keep) == 3:
                        K, Pm = np.linalg.inv(R), np.zeros((3, 3))
                    else:
                        SR = s_inv[:, None] * R.T
                        K = SR @ np.linalg.inv(R @ SR)
                        Pm = np.eye(3) - K @ R
                finite = np.isfinite(K).all() and np.isfinite(Pm).all()
            except np.linalg.LinAlgError:
                finite = False
            if not finite:
                raise InvalidValue(f"the boundary projection at the {'-'.join(map(str, sides))} "
                                   f"nodes is singular or overflows a float for this base state")
            node = node_line(sides)
            along = tuple((s, node[2 - s.axis]) for s in sides)
            targets.append((K, Pm, keep, along, node))
        self._targets = tuple(targets)
        self._t = self._data = self._data_terms = None

    def _sample(self, data: BoundaryData, t: float):
        """K times the kept data of every target at time t."""
        samples = {s: data.sample(s, t, k, n) for s, (k, n) in zip(SIDES, self._shapes)}
        return [K @ np.concatenate([samples[s][:, i] for s, i in along])[keep]
                for K, _, keep, along, _ in self._targets]

    def apply(self, W: np.ndarray, data: BoundaryData, t: float = 0.0, *,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """Project W into ``out`` (a fresh copy of W when None; W itself
        projects in place).  The data are sampled once per distinct t: a
        repeated (data, t) reuses the previous samples."""
        for a in (W, out):
            if a is not None and a.shape != self._shape:
                raise ShapeMismatch(f"stack shape {a.shape} vs {self._shape}")
        if out is None:
            out = W.copy()
        elif out is not W:
            out[...] = W
        if t != self._t or data is not self._data:
            self._data_terms = self._sample(data, t)
            self._t, self._data = t, data
        for (_, Pm, _, _, node), term in zip(self._targets, self._data_terms):
            out[node] = term + Pm @ out[node]
        return out
