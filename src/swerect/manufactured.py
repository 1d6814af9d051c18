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
from .boundary import BoundaryData, BoundarySpec, constrained_sides
from .fields import Grid, StateField
from .regime import PhysicalConstants

_KX = (1.3, 1.7, 0.9)
_KY = (1.1, 0.7, 1.6)
_PH = (0.3, 1.1, 2.0)
_OM = (1.2, 0.8, 1.5)
_AM = (1.0, 0.8, 1.2)
_LAG = (0.0, 0.2, 0.4)  # time phase 0.2 c of component c
_LAG_COLUMN = np.reshape(_LAG, (3, 1))


@dataclass(frozen=True)
class ManufacturedSolution:
    ph: tuple = _PH

    def _phases(self, x, y, t: float):
        """kx, ky, om, am and the phases of X, Y and T as (3, ...) arrays; the
        X and Y phases follow x and y, the rest are (3, 1, ..., 1) columns."""
        x, y = np.asarray(x, float), np.asarray(y, float)
        kx, ky, ph, om, am, lag = np.reshape(
            (_KX, _KY, self.ph, _OM, _AM, _LAG),
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

    def _forcing_basis(self, x, y):
        """The nine products [X Y, X' Y, X Y'] as a (9, N) matrix, with the
        broadcast shape of x and y; independent of t."""
        kx, ky, _, _, ax, ay, _ = self._phases(x, y, 0.0)
        X, Y = np.cos(ax), np.cos(ay)
        shape = np.broadcast_shapes(X.shape, Y.shape)[1:]
        P = np.empty((3, 3) + shape)
        np.multiply(X, Y, out=P[0])
        np.multiply(-kx * np.sin(ax), Y, out=P[1])
        np.multiply(X, -ky * np.sin(ay), out=P[2])
        return P.reshape(9, -1), shape

    def _time_mix(self, p: PhysicalConstants):
        """E1, E2, B and the om, am and lag vectors of the forcing's time mix."""
        m = coefficient_matrices(p)
        B = np.array([[0.0, -p.f, 0.0], [p.f, 0.0, 0.0], [0.0, 0.0, 0.0]])
        return m.E1, m.E2, B, np.asarray(_OM, float), np.asarray(_AM, float), np.asarray(_LAG)

    def forcing(self, x, y, t: float, p: PhysicalConstants, *, _bound=None) -> np.ndarray:
        """Analytic dU/dt + E1 U_x + E2 U_y + B U at the given positions: the
        (3, 9) mix [diag(T') + B T | E1 T | E2 T] of [X Y, X' Y, X Y'].

        _bound: ``(_forcing_basis(x, y), _time_mix(p))`` built once by the
        caller, who then evaluates only the time mix per call; x, y and p
        are not read.
        """
        if _bound is None:
            _bound = self._forcing_basis(x, y), self._time_mix(p)
        (P, shape), (E1, E2, B, om, am, lag) = _bound
        at = om * t + lag
        T, Tp = am * np.cos(at), -am * om * np.sin(at)
        M = np.hstack([np.diag(Tp) + B * T, E1 * T, E2 * T])
        return (M @ P).reshape((3,) + shape)

    def state_field(self, grid: Grid, t: float) -> StateField:
        return StateField.from_stack(self.state(grid.x[:, None], grid.y[None, :], t))

    def forcing_on_grid(self, p: PhysicalConstants, grid: Grid):
        """Closure t -> (3, nx, ny) forcing stack for the time stepper.

        The product basis and the time-mix constants are built once here;
        each call only mixes them for its t.  The returned stacks are
        read-only, since the stepper reuses the one for a repeated stage
        time.
        """
        bound = self._forcing_basis(grid.x[:, None], grid.y[None, :]), self._time_mix(p)

        def F(t: float) -> np.ndarray:
            out = self.forcing(None, None, t, None, _bound=bound)
            out.flags.writeable = False
            return out

        return F

    def boundary_data_on_grid(self, spec: BoundarySpec, grid: Grid) -> BoundaryData:
        """Data realizing the rows of spec on this solution, for the time
        stepper: the bits of ``BoundaryData.from_state_samples(spec, grid,
        self.state)``.  The X and Y factors of each side's nodes are built
        once here; each sample only mixes in T for its t, in the association
        of state()."""
        samplers = {}
        for side, rows, (bx, by) in constrained_sides(spec, grid):
            _, _, om, am, ax, ay, _ = self._phases(bx, by, 0.0)
            X, Y = np.cos(ax), np.cos(ay)

            def sample(t: float, rows=rows, om=om, am=am, X=X, Y=Y) -> np.ndarray:
                return rows @ (am * np.cos(om * t + _LAG_COLUMN) * X * Y)

            samplers[side] = sample
        return BoundaryData(samplers)


DEFAULT_SOLUTION = ManufacturedSolution()
