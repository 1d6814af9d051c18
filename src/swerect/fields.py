"""Grid and state containers.

A Grid is a uniform node-centered mesh on [0, L1] x [0, L2] with nx x ny
nodes (boundary nodes included), so dx = L1/(nx-1).  StateField carries the
three prognostic fields (u, v, phi) on that mesh, each shaped (nx, ny) with
index [i, j] at node (x_i, y_j).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValue, NonFinite

# numpy renamed trapz -> trapezoid in 2.0; support both without warnings
trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class Grid:
    l1: float
    l2: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.l1 > 0 and self.l2 > 0):
            raise InvalidValue(f"domain lengths must be positive, got ({self.l1}, {self.l2})")
        # 4 nodes minimum: boundary treatment reads two interior neighbors
        if self.nx < 4 or self.ny < 4:
            raise InvalidValue(f"need nx, ny >= 4, got ({self.nx}, {self.ny})")

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


@dataclass
class StateField:
    u: np.ndarray
    v: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        if not (self.u.shape == self.v.shape == self.phi.shape):
            raise InvalidValue("u, v, phi must share one shape")

    @classmethod
    def zeros(cls, grid: Grid) -> "StateField":
        shape = (grid.nx, grid.ny)
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(shape))

    @classmethod
    def from_stack(cls, w: np.ndarray) -> "StateField":
        return cls(w[0].copy(), w[1].copy(), w[2].copy())

    def stack(self) -> np.ndarray:
        """(3, nx, ny) view-copy used by the numerical kernels."""
        return np.stack([self.u, self.v, self.phi])

    def copy(self) -> "StateField":
        return StateField(self.u.copy(), self.v.copy(), self.phi.copy())

    def check_finite(self) -> None:
        for name, a in (("u", self.u), ("v", self.v), ("phi", self.phi)):
            if not np.all(np.isfinite(a)):
                raise NonFinite(f"non-finite values in field '{name}'")


def inner_product(a: StateField, b: StateField, grid: Grid, g: float, phi0: float) -> float:
    """Trapezoid quadrature of a.u b.u + a.v b.v + (g/phi0) a.phi b.phi.

    This is the weighted inner product in which the evolution semigroup is
    contractive; inner_product(U, U) is the energy the run log records.
    """
    return integrate(a.u * b.u + a.v * b.v + (g / phi0) * a.phi * b.phi, grid)


def integrate(dens: np.ndarray, grid: Grid) -> float:
    """Trapezoid rule over the grid for an (nx, ny) density: x first, then y."""
    return float(trapezoid(trapezoid(dens, dx=grid.dx, axis=0), dx=grid.dy))


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
