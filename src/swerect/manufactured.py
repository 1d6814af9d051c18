"""Manufactured trigonometric solutions with analytic forcing.

The convergence harness needs a smooth exact solution U*(x, y, t) whose
residual F = dU*/dt + E1 U*_x + E2 U*_y + B U* is known in closed form; the
solver is then driven with F and boundary data sampled from U*, and the
discretization error is U - U*.  Each component is a separable product
U_c = X_c(x) Y_c(y) T_c(t) with X_c = cos(kx x + ph), Y_c = cos(ky y + ph/2)
and T_c = am cos(om t + 0.2 c), with distinct wavenumbers and phases so no
component or derivative vanishes identically.  The trig runs on the x and y
factors alone, so open-grid inputs cost O(nx + ny) cosines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import coefficient_matrices
from .fields import Grid, StateField
from .regime import PhysicalConstants

_KX = (1.3, 1.7, 0.9)
_KY = (1.1, 0.7, 1.6)
_PH = (0.3, 1.1, 2.0)
_OM = (1.2, 0.8, 1.5)
_AM = (1.0, 0.8, 1.2)
_LAG = (0.0, 0.2, 0.4)  # time phase 0.2 c of component c


@dataclass(frozen=True)
class ManufacturedSolution:
    kx: tuple = _KX
    ky: tuple = _KY
    ph: tuple = _PH
    om: tuple = _OM
    am: tuple = _AM

    def _phases(self, x, y, t: float):
        """kx, ky, om, am and the phases of X, Y and T as (3, ...) arrays; the
        X and Y phases follow x and y, the rest are (3, 1, ..., 1) columns."""
        x, y = np.asarray(x, float), np.asarray(y, float)
        kx, ky, ph, om, am, lag = np.reshape(
            (self.kx, self.ky, self.ph, self.om, self.am, _LAG),
            (6, 3) + (1,) * max(x.ndim, y.ndim))
        return kx, ky, om, am, kx * x + ph, ky * y + 0.5 * ph, om * t + lag

    def state(self, x, y, t: float) -> np.ndarray:
        """(3, ...) stack of (u, v, phi) at broadcast positions x, y."""
        _, _, _, am, ax, ay, at = self._phases(x, y, t)
        return am * np.cos(at) * np.cos(ax) * np.cos(ay)

    def dt(self, x, y, t: float) -> np.ndarray:
        _, _, om, am, ax, ay, at = self._phases(x, y, t)
        return -am * om * np.sin(at) * np.cos(ax) * np.cos(ay)

    def dx(self, x, y, t: float) -> np.ndarray:
        kx, _, _, am, ax, ay, at = self._phases(x, y, t)
        return am * np.cos(at) * (-kx * np.sin(ax)) * np.cos(ay)

    def dy(self, x, y, t: float) -> np.ndarray:
        _, ky, _, am, ax, ay, at = self._phases(x, y, t)
        return am * np.cos(at) * np.cos(ax) * (-ky * np.sin(ay))

    def forcing(self, x, y, t: float, p: PhysicalConstants) -> np.ndarray:
        """Analytic dU/dt + E1 U_x + E2 U_y + B U at the given positions: the
        (3, 9) mix [diag(T') + B T | E1 T | E2 T] of [X Y, X' Y, X Y']."""
        m = coefficient_matrices(p)
        kx, ky, om, am, ax, ay, at = self._phases(x, y, t)
        T, Tp = (am * np.cos(at)).ravel(), (-am * om * np.sin(at)).ravel()
        B = np.array([[0.0, -p.f, 0.0], [p.f, 0.0, 0.0], [0.0, 0.0, 0.0]])
        M = np.hstack([np.diag(Tp) + B * T, m.E1 * T, m.E2 * T])
        X, Y = np.cos(ax), np.cos(ay)
        shape = np.broadcast_shapes(X.shape, Y.shape)[1:]
        P = np.empty((3, 3) + shape)
        np.multiply(X, Y, out=P[0])
        np.multiply(-kx * np.sin(ax), Y, out=P[1])
        np.multiply(X, -ky * np.sin(ay), out=P[2])
        return (M @ P.reshape(9, -1)).reshape((3,) + shape)

    def state_field(self, grid: Grid, t: float) -> StateField:
        return StateField.from_stack(self.state(grid.x[:, None], grid.y[None, :], t))

    def forcing_on_grid(self, p: PhysicalConstants, grid: Grid):
        """Closure t -> (3, nx, ny) forcing stack for the time stepper."""
        x, y = grid.x[:, None], grid.y[None, :]

        def F(t: float) -> np.ndarray:
            return self.forcing(x, y, t, p)

        return F


DEFAULT_SOLUTION = ManufacturedSolution()
