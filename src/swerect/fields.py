"""Grid and state containers.

A Grid is a uniform node-centered mesh on [0, L1] x [0, L2] with nx x ny
nodes (boundary nodes included), so dx = L1/(nx-1).  StateField carries the
three prognostic fields (u, v, phi) on that mesh, each shaped (nx, ny) with
index [i, j] at node (x_i, y_j).  The numerical kernels work on (3, nx, ny)
stacks; StateField is the view runs take and return and the CSV files and
the energy quadrature read (StateField(*W) views a stack without copying).
The view is frozen, so its components keep the one shape construction
checked; dataclasses.replace makes a view with a component changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValue, NonFinite, ShapeMismatch

# numpy renamed trapz -> trapezoid in 2.0; support both without warnings
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def is_integer(value) -> bool:
    """The rule for every count, seed and digit setting: an int or a NumPy
    integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """The rule for every real-valued setting: an int, a float or a NumPy
    real, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


# A time-step stage touches about five (3, nx, ny) stacks of doubles per
# node, 5 * 24 bytes; the stepper sweeps a stage's rows in blocks whose
# stage data fit a 2 MiB L2 cache.  A grid of at most this many nodes is
# one block.
_L2_BYTES = 2 * 1024 * 1024
_BLOCK_NODES = _L2_BYTES // (5 * 24)


def row_blocks(nx: int, ny: int):
    """Row ranges (r0, r1), in order, that split nx rows of ny nodes into
    near-equal blocks of at most _BLOCK_NODES nodes (one row at least)."""
    rows = max(1, _BLOCK_NODES // ny)
    n = -(-nx // rows)
    return tuple((k * nx // n, (k + 1) * nx // n) for k in range(n))


def check_grid_settings(l1, l2, nx, ny) -> None:
    """The rules for each grid setting on its own; Grid also refuses a
    spacing that underflows to 0."""
    if not (is_real(l1) and is_real(l2)):
        raise InvalidValue(f"domain lengths must be real numbers, got ({l1!r}, {l2!r})")
    if not (0 < l1 < np.inf and 0 < l2 < np.inf):
        raise InvalidValue(f"domain lengths must be positive and finite, got ({l1}, {l2})")
    if not (is_integer(nx) and is_integer(ny)):
        raise InvalidValue(f"nx, ny must be integers, got ({nx!r}, {ny!r})")
    # 4 nodes minimum: boundary treatment reads two interior neighbors
    if nx < 4 or ny < 4:
        raise InvalidValue(f"need nx, ny >= 4, got ({nx}, {ny})")


@dataclass(frozen=True)
class Grid:
    l1: float
    l2: float
    nx: int
    ny: int

    def __post_init__(self):
        check_grid_settings(self.l1, self.l2, self.nx, self.ny)
        if self.dx == 0 or self.dy == 0:
            raise InvalidValue(f"the grid spacing (dx, dy) = ({self.dx:g}, {self.dy:g}) "
                               f"underflows to 0")

    @property
    def dx(self) -> float:
        return self.l1 / (self.nx - 1)

    @property
    def dy(self) -> float:
        return self.l2 / (self.ny - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.l1, self.nx)

    @property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, self.l2, self.ny)

    def meshgrid(self):
        """(X, Y) arrays shaped (nx, ny), x varying along axis 0."""
        return np.meshgrid(self.x, self.y, indexing="ij")


@dataclass(frozen=True)
class StateField:
    u: np.ndarray
    v: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        if not (self.u.shape == self.v.shape == self.phi.shape):
            raise ShapeMismatch("u, v, phi must share one shape")

    @classmethod
    def zeros(cls, grid: Grid) -> "StateField":
        shape = (grid.nx, grid.ny)
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(shape))

    @classmethod
    def from_stack(cls, w: np.ndarray) -> "StateField":
        return cls(w[0].copy(), w[1].copy(), w[2].copy())

    def stack(self) -> np.ndarray:
        """(3, nx, ny) copy used by the numerical kernels."""
        return np.stack([self.u, self.v, self.phi])


def inner_product(a: StateField, b: StateField, grid: Grid, g: float, phi0: float) -> float:
    """Trapezoid quadrature of a.u b.u + a.v b.v + (g/phi0) a.phi b.phi.

    This is the weighted inner product in which the evolution semigroup is
    contractive; inner_product(U, U) is the energy the run log records.
    The density is formed in two float64 buffers and rounds exactly like
    (u u' + v v') + ((g/phi0) phi) phi'.
    """
    if a.u.shape != b.u.shape:
        raise ShapeMismatch(f"operand shapes {a.u.shape} vs {b.u.shape}")
    dens = np.multiply(a.u, b.u, dtype=float)
    tmp = np.multiply(a.v, b.v, dtype=float)
    dens += tmp
    np.multiply(g / phi0, a.phi, out=tmp)
    tmp *= b.phi
    dens += tmp
    del tmp  # the quadrature's own temporaries can take its memory
    return integrate(dens, grid)


def check_field_shape(f: np.ndarray, grid: Grid) -> None:
    """A grid function must be shaped (nx, ny)."""
    if f.shape != (grid.nx, grid.ny):
        raise ShapeMismatch(f"field shape {f.shape} vs grid ({grid.nx}, {grid.ny})")


def integrate(dens: np.ndarray, grid: Grid) -> float:
    """Trapezoid rule over the grid for an (nx, ny) density: x first, then y."""
    check_field_shape(dens, grid)
    return float(trapezoid(trapezoid(dens, dx=grid.dx, axis=0), dx=grid.dy))


def convergence_order(coarse: float, fine: float) -> float:
    """The observed order log2(coarse / fine) of two errors, the finer grid
    halving the spacing: inf when only the finer error is 0, nan when both
    are."""
    if fine == 0:
        return math.nan if coarse == 0 else math.inf
    ratio = coarse / fine
    return math.log2(ratio) if ratio > 0 else -math.inf


def l2_norm(w: np.ndarray, grid: Grid) -> float:
    """Plain (unweighted) L2 norm of a (..., nx, ny) stack via trapezoid rule."""
    return float(np.sqrt(integrate(np.sum(w * w, axis=0) if w.ndim == 3 else w * w, grid)))


@dataclass
class EnergyLog:
    """Append-only (t, energy) series with strictly increasing t."""

    times: list = field(default_factory=list)
    energies: list = field(default_factory=list)

    def append(self, t: float, e: float) -> None:
        if not np.isfinite(t):
            raise NonFinite(f"non-finite time {t} in energy log")
        if self.times and t <= self.times[-1]:
            raise InvalidValue(f"energy log times must increase: {t} after {self.times[-1]}")
        if not np.isfinite(e):
            raise NonFinite(f"non-finite energy at t={t}")
        self.times.append(float(t))
        self.energies.append(float(e))

    def __len__(self) -> int:
        return len(self.times)
