"""First-order 2x2 elliptic subsystem: operator, adjoint, solvers, identities.

The coupled pair T Theta = T1 Theta_x + T2 Theta_y with

    T1 = [[a1, b1], [b1, -a1]],   T2 = [[a2, b2], [b2, -a2]],
    a1, a2 > 0,  a2*b1 - a1*b2 != 0

is elliptic in the sense that T is positive and invertible once theta1 is
pinned on West+South and theta2 on East+North.  The adjoint T* = -T1 d/dx -
T2 d/dy carries mixed one-row conditions per side.  In the mixed subcritical
shallow water regime the first two characteristic components form exactly
such a pair (swe_elliptic_block).

Solvers assemble the first-order system directly on the grid: centered
differences inside, one-sided at the boundary; at each boundary node the
constrained combination's row is replaced by the boundary condition and the
equation is retained only along the unconstrained direction (the orthogonal
complement of the constraint row).  Constraints, free directions and
stencils depend only on a node's class -- interior, one of four edges, one
of four corners -- so assembly runs once per class over whole index arrays,
not once per node.  A sparse direct factorization does the rest.  No
second-order reformulation is used -- the first-order form is what the
positivity and duality identities are stated for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    BcViolation,
    NonConvergence,
    RegimeMismatch,
    ShapeMismatch,
    SingularSystem,
    ViolatesCondition,
)
from .fields import Grid, integrate
from .regime import PhysicalConstants, Regime, classify
from .algebra import elliptic_transform


@dataclass(frozen=True)
class EllipticCoeffs:
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    @property
    def T1(self) -> np.ndarray:
        return np.array([[self.alpha1, self.beta1], [self.beta1, -self.alpha1]])

    @property
    def T2(self) -> np.ndarray:
        return np.array([[self.alpha2, self.beta2], [self.beta2, -self.alpha2]])

    @property
    def T0(self) -> np.ndarray:
        return np.array([[self.alpha1, self.alpha2], [self.beta1, self.beta2]])

    @property
    def det(self) -> float:
        return self.alpha2 * self.beta1 - self.alpha1 * self.beta2

    @property
    def c2(self) -> float:
        """Spectral norm of T0 (upper constant in the gradient equivalence)."""
        return float(np.linalg.svd(self.T0, compute_uv=False)[0])

    @property
    def c1(self) -> float:
        """Spectral norm of T0^{-1} (reciprocal of T0's smallest singular value)."""
        return float(1.0 / np.linalg.svd(self.T0, compute_uv=False)[-1])


def build_coeffs(alpha1: float, alpha2: float, beta1: float, beta2: float) -> EllipticCoeffs:
    if not (alpha1 > 0 and alpha2 > 0):
        raise ViolatesCondition(f"need alpha1, alpha2 > 0, got ({alpha1}, {alpha2})")
    det = alpha2 * beta1 - alpha1 * beta2
    scale = max(abs(alpha1), abs(alpha2), abs(beta1), abs(beta2)) ** 2
    if abs(det) <= 1e-12 * scale:
        raise ViolatesCondition(f"alpha2*beta1 - alpha1*beta2 = {det} too close to zero")
    return EllipticCoeffs(float(alpha1), float(alpha2), float(beta1), float(beta2))


def swe_elliptic_block(p: PhysicalConstants) -> EllipticCoeffs:
    """Coefficients of the shear/pressure pair in the mixed subcritical regime.

    The determinant is g/(kappa1*(u0^2+v0^2)) > 0, so the condition holds for
    every admissible base state.
    """
    if classify(p) is not Regime.MIXED_SUBCRITICAL:
        raise RegimeMismatch("swe_elliptic_block requires the mixed subcritical regime")
    t = elliptic_transform(p)
    s = p.u0**2 + p.v0**2
    return build_coeffs(p.u0 / s, p.v0 / s, p.g * p.v0 / (t.kappa1 * s), -p.g * p.u0 / (t.kappa1 * s))


@dataclass
class ThetaField:
    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        if self.theta1.shape != self.theta2.shape:
            raise ShapeMismatch("theta1, theta2 must share one shape")

    @classmethod
    def zeros(cls, grid: Grid) -> "ThetaField":
        return cls(np.zeros((grid.nx, grid.ny)), np.zeros((grid.nx, grid.ny)))

    def copy(self) -> "ThetaField":
        return ThetaField(self.theta1.copy(), self.theta2.copy())


def theta_inner(A: ThetaField, B: ThetaField, grid: Grid) -> float:
    return integrate(A.theta1 * B.theta1 + A.theta2 * B.theta2, grid)


def theta_norm(A: ThetaField, grid: Grid) -> float:
    return float(np.sqrt(theta_inner(A, A, grid)))


def _grads(f: np.ndarray, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    return (
        np.gradient(f, grid.dx, axis=0, edge_order=1),
        np.gradient(f, grid.dy, axis=1, edge_order=1),
    )


def apply_T(theta: ThetaField, c: EllipticCoeffs, grid: Grid, sign: float = 1.0) -> ThetaField:
    """T Theta (or -T Theta = T* Theta with sign=-1); centered differences
    inside, one-sided first-order at the boundary nodes."""
    t1x, t1y = _grads(theta.theta1, grid)
    t2x, t2y = _grads(theta.theta2, grid)
    r1 = c.alpha1 * t1x + c.beta1 * t2x + c.alpha2 * t1y + c.beta2 * t2y
    r2 = c.beta1 * t1x - c.alpha1 * t2x + c.beta2 * t1y - c.alpha2 * t2y
    return ThetaField(sign * r1, sign * r2)


def apply_T_star(theta: ThetaField, c: EllipticCoeffs, grid: Grid) -> ThetaField:
    return apply_T(theta, c, grid, sign=-1.0)


def _check_in_V(theta: ThetaField) -> None:
    scale = max(np.max(np.abs(theta.theta1)), np.max(np.abs(theta.theta2)), 1e-300)
    tol = 1e-10 * scale
    t1, t2 = theta.theta1, theta.theta2
    bad = (
        np.max(np.abs(t1[0, :])) > tol or np.max(np.abs(t1[:, 0])) > tol
        or np.max(np.abs(t2[-1, :])) > tol or np.max(np.abs(t2[:, -1])) > tol
    )
    if bad:
        raise BcViolation("field is not in discrete V: theta1|W,S and theta2|E,N must vanish")


def cross_gradient_residual(theta: ThetaField, grid: Grid) -> float:
    """|integral(theta2_x * theta1_y) - integral(theta1_x * theta2_y)|.

    The two integrals agree exactly in the continuum for fields with theta1
    pinned on West+South and theta2 on East+North; discretely the residual
    decays at least at first order.  Inputs outside discrete V are rejected.
    """
    _check_in_V(theta)
    t1x, t1y = _grads(theta.theta1, grid)
    t2x, t2y = _grads(theta.theta2, grid)
    return abs(integrate(t2x * t1y - t1x * t2y, grid))


@dataclass
class AprioriReport:
    grad_norm: float
    T_norm: float
    c1: float
    c2: float
    slack: float

    @property
    def lower_ok(self) -> bool:
        return self.T_norm >= self.grad_norm / self.c1 - self.slack

    @property
    def upper_ok(self) -> bool:
        return self.T_norm <= self.c2 * self.grad_norm + self.slack

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok

    @property
    def lower_margin(self) -> float:
        return self.T_norm - (self.grad_norm / self.c1 - self.slack)

    @property
    def upper_margin(self) -> float:
        return (self.c2 * self.grad_norm + self.slack) - self.T_norm


def apriori_check(theta: ThetaField, c: EllipticCoeffs, grid: Grid) -> AprioriReport:
    """Two-sided gradient equivalence ||grad|| / c1 <= ||T Theta|| <= c2 ||grad||.

    Discretely the bound holds up to a truncation slack proportional to h and
    a curvature seminorm of the field; the slack is reported so refinement
    studies can watch it vanish relative to the norms.
    """
    _check_in_V(theta)
    t1x, t1y = _grads(theta.theta1, grid)
    t2x, t2y = _grads(theta.theta2, grid)

    def l2(*fs):
        return float(np.sqrt(integrate(sum(f * f for f in fs), grid)))

    grad_norm = l2(t1x, t1y, t2x, t2y)
    Tt = apply_T(theta, c, grid)
    T_norm = theta_norm(Tt, grid)
    # H2-like curvature proxy: second differences of both fields
    seconds = []
    for f in (theta.theta1, theta.theta2):
        fx, fy = _grads(f, grid)
        for gcomp in (fx, fy):
            gx, gy = _grads(gcomp, grid)
            seconds.extend((gx, gy))
    h = max(grid.dx, grid.dy)
    slack = 2.0 * (c.c2 + 1.0 / c.c1) * h * l2(*seconds)
    return AprioriReport(grad_norm, T_norm, c.c1, c.c2, slack)


# --- direct sparse solvers ---------------------------------------------------

# boundary rows for the forward problem: theta1 pinned on W and S, theta2 on E and N
_FORWARD_BC = {
    "W": np.array([1.0, 0.0]),
    "S": np.array([1.0, 0.0]),
    "E": np.array([0.0, 1.0]),
    "N": np.array([0.0, 1.0]),
}


def _adjoint_bc(c: EllipticCoeffs):
    return {
        "W": np.array([c.beta1, -c.alpha1]),
        "E": np.array([c.alpha1, c.beta1]),
        "S": np.array([c.beta2, -c.alpha2]),
        "N": np.array([c.alpha2, c.beta2]),
    }


def _stencil(i: int, n: int, d: float):
    if i == 0:
        return ((0, -1.0 / d), (1, 1.0 / d))
    if i == n - 1:
        return ((-1, -1.0 / d), (0, 1.0 / d))
    return ((-1, -0.5 / d), (1, 0.5 / d))


def _axis_classes(n: int, d: float, low: str, high: str):
    """(index slice, side or None, stencil) for the low edge, the inside and
    the high edge of one axis."""
    return ((slice(0, 1), low, _stencil(0, n, d)),
            (slice(1, n - 1), None, _stencil(1, n, d)),
            (slice(n - 1, n), high, _stencil(n - 1, n, d)))


def _assemble(F: ThetaField, c: EllipticCoeffs, grid: Grid, bc_rows: dict, sign: float):
    """Sparse system, right-hand side and equation-row mask for one solve.

    Node n = i*ny + j owns rows 2n and 2n+1: its kept constraint rows, then
    its free directions.  Constraints, free directions and stencils depend
    only on the node's class (interior, one of four edges, one of four
    corners), so each class contributes whole index arrays at once.  No
    (row, col) pair gets more than two entries (corner stencils meet at the
    node itself), so the summed, sorted CSR matrix does not depend on the
    order the entries come in: it equals the per-node loop's bit for bit.
    """
    nx, ny = grid.nx, grid.ny
    if F.theta1.shape != (nx, ny):
        raise ShapeMismatch(f"forcing shape {F.theta1.shape} vs grid ({nx}, {ny})")
    N = nx * ny
    T1, T2 = c.T1, c.T2
    node = np.arange(N).reshape(nx, ny)
    F1, F2 = F.theta1.ravel(), F.theta2.ravel()

    rows, cols, vals = [], [], []
    rhs = np.zeros(2 * N)
    eq_mask = np.zeros(2 * N, dtype=bool)
    for xs, xside, xst in _axis_classes(nx, grid.dx, "W", "E"):
        for ys, yside, yst in _axis_classes(ny, grid.dy, "S", "N"):
            n = node[xs, ys].ravel()
            sides = [s for s in (xside, yside) if s is not None]
            C = np.array([bc_rows[s] for s in sides]).reshape(-1, 2)
            keep = []
            for k in range(C.shape[0]):
                if np.linalg.matrix_rank(C[keep + [k]]) > len(keep):
                    keep.append(k)
            C = C[keep]
            for k, crow in enumerate(C):
                rows.append(np.repeat(2 * n + k, 2))
                cols.append(np.stack([n, N + n], axis=1).ravel())
                vals.append(np.tile(crow, n.size))  # homogeneous: rhs stays 0
            if C.shape[0] == 2:
                continue
            if C.shape[0] == 0:
                free_dirs = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            else:
                # retain the residual component orthogonal to the constraint
                cn = C[0] / np.linalg.norm(C[0])
                free_dirs = (np.array([-cn[1], cn[0]]),)
            # neighbour offsets: x stencil, then y; w below follows suit
            offs = [off * ny for off, _ in xst] + [off for off, _ in yst]
            for m, e in enumerate(free_dirs):
                cx = sign * (e @ T1)
                cy = sign * (e @ T2)
                w = [v * wt for v, st in ((cx, xst), (cy, yst)) for _, wt in st]
                r = 2 * n + C.shape[0] + m
                rows.append(np.repeat(r, 2 * len(offs)))
                nb = n[:, None] + np.array(offs)
                cols.append(np.stack([nb, N + nb], axis=2).ravel())
                vals.append(np.tile(np.ravel(w), n.size))
                rhs[r] = e[0] * F1[n] + e[1] * F2[n]
                eq_mask[r] = True

    A = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(2 * N, 2 * N))
    return A, rhs, eq_mask


def _assemble_and_solve(F: ThetaField, c: EllipticCoeffs, grid: Grid,
                        bc_rows: dict, sign: float) -> ThetaField:
    A, rhs, eq = _assemble(F, c, grid, bc_rows, sign)
    nx, ny = grid.nx, grid.ny
    N = nx * ny
    system = f"{'T' if sign > 0 else 'T*'} on {nx}x{ny} ({2 * N} unknowns)"
    with np.errstate(all="ignore"):
        sol = spla.spsolve(A, rhs)
    if not np.all(np.isfinite(sol)):
        raise SingularSystem(f"{system}: direct solve produced non-finite values")
    res = A @ sol - rhs
    scale = max(float(np.linalg.norm(rhs[eq])), 1e-300)
    rel = float(np.linalg.norm(res[eq])) / scale
    if rel > 1e-10:
        raise NonConvergence(f"{system}: equation-row residual {rel:.3e} exceeds 1e-10")
    return ThetaField(sol[:N].reshape(nx, ny), sol[N:].reshape(nx, ny))


def solve_T(F: ThetaField, c: EllipticCoeffs, grid: Grid) -> ThetaField:
    """Solve T Theta = F with theta1 = 0 on West+South, theta2 = 0 on East+North."""
    return _assemble_and_solve(F, c, grid, _FORWARD_BC, sign=1.0)


def solve_T_star(Psi: ThetaField, c: EllipticCoeffs, grid: Grid) -> ThetaField:
    """Solve T* Theta = Psi with the mixed single-row conditions per side."""
    return _assemble_and_solve(Psi, c, grid, _adjoint_bc(c), sign=-1.0)


# --- transformed coordinates (verification helpers) --------------------------


def to_transformed(x: np.ndarray, y: np.ndarray, c: EllipticCoeffs):
    """Skew coordinates (x', y') = (beta2 x - beta1 y, alpha2 x - alpha1 y) in
    which the first-order pair becomes a pure Cauchy-Riemann-type system on a
    parallelogram; exposed for cross-checks only."""
    return c.beta2 * x - c.beta1 * y, c.alpha2 * x - c.alpha1 * y


def from_transformed(xp: np.ndarray, yp: np.ndarray, c: EllipticCoeffs):
    det = c.det  # determinant of [[beta2, -beta1], [alpha2, -alpha1]]
    x = (-c.alpha1 * xp + c.beta1 * yp) / det
    y = (-c.alpha2 * xp + c.beta2 * yp) / det
    return x, y


# --- manufactured solutions for the two solvers ------------------------------


def manufactured_solution_T(c: EllipticCoeffs, grid: Grid) -> Tuple[ThetaField, ThetaField]:
    """An in-V trigonometric pair and its analytic image F = T Theta.

    theta1 vanishes on West+South and theta2 on East+North by construction,
    so solve_T(F) must reproduce the pair up to discretization error.
    """
    X, Y = grid.meshgrid()
    a = 1.2 * np.pi / grid.l1
    b = 0.9 * np.pi / grid.l2
    gg = 0.7 * np.pi / grid.l1
    d = 1.3 * np.pi / grid.l2
    t1 = np.sin(a * X) * np.sin(b * Y)
    t2 = np.sin(gg * (grid.l1 - X)) * np.sin(d * (grid.l2 - Y))
    t1x = a * np.cos(a * X) * np.sin(b * Y)
    t1y = b * np.sin(a * X) * np.cos(b * Y)
    t2x = -gg * np.cos(gg * (grid.l1 - X)) * np.sin(d * (grid.l2 - Y))
    t2y = -d * np.sin(gg * (grid.l1 - X)) * np.cos(d * (grid.l2 - Y))
    F1 = c.alpha1 * t1x + c.beta1 * t2x + c.alpha2 * t1y + c.beta2 * t2y
    F2 = c.beta1 * t1x - c.alpha1 * t2x + c.beta2 * t1y - c.alpha2 * t2y
    return ThetaField(t1, t2), ThetaField(F1, F2)


def manufactured_solution_T_star(c: EllipticCoeffs, grid: Grid) -> Tuple[ThetaField, ThetaField]:
    """A pair satisfying the adjoint side conditions and Psi = T* Theta.

    Built as a sum of four corner-compatible envelopes, each aligned with the
    direction its side's single constraint row annihilates.
    """
    X, Y = grid.meshgrid()
    pi = np.pi
    l1, l2 = grid.l1, grid.l2
    dirs = {
        "W": np.array([c.alpha1, c.beta1]),
        "E": np.array([c.beta1, -c.alpha1]),
        "S": np.array([c.alpha2, c.beta2]),
        "N": np.array([c.beta2, -c.alpha2]),
    }
    g = {
        "W": np.cos(0.5 * pi * X / l1) * np.sin(pi * Y / l2),
        "E": np.sin(0.5 * pi * X / l1) * np.sin(pi * Y / l2),
        "S": np.sin(pi * X / l1) * np.cos(0.5 * pi * Y / l2),
        "N": np.sin(pi * X / l1) * np.sin(0.5 * pi * Y / l2),
    }
    gx = {
        "W": -0.5 * pi / l1 * np.sin(0.5 * pi * X / l1) * np.sin(pi * Y / l2),
        "E": 0.5 * pi / l1 * np.cos(0.5 * pi * X / l1) * np.sin(pi * Y / l2),
        "S": pi / l1 * np.cos(pi * X / l1) * np.cos(0.5 * pi * Y / l2),
        "N": pi / l1 * np.cos(pi * X / l1) * np.sin(0.5 * pi * Y / l2),
    }
    gy = {
        "W": pi / l2 * np.cos(0.5 * pi * X / l1) * np.cos(pi * Y / l2),
        "E": pi / l2 * np.sin(0.5 * pi * X / l1) * np.cos(pi * Y / l2),
        "S": -0.5 * pi / l2 * np.sin(pi * X / l1) * np.sin(0.5 * pi * Y / l2),
        "N": 0.5 * pi / l2 * np.sin(pi * X / l1) * np.cos(0.5 * pi * Y / l2),
    }
    t1 = sum(g[s] * dirs[s][0] for s in dirs)
    t2 = sum(g[s] * dirs[s][1] for s in dirs)
    t1x = sum(gx[s] * dirs[s][0] for s in dirs)
    t2x = sum(gx[s] * dirs[s][1] for s in dirs)
    t1y = sum(gy[s] * dirs[s][0] for s in dirs)
    t2y = sum(gy[s] * dirs[s][1] for s in dirs)
    P1 = -(c.alpha1 * t1x + c.beta1 * t2x) - (c.alpha2 * t1y + c.beta2 * t2y)
    P2 = -(c.beta1 * t1x - c.alpha1 * t2x) - (c.beta2 * t1y - c.alpha2 * t2y)
    return ThetaField(t1, t2), ThetaField(P1, P2)


def manufactured_convergence_T(c: EllipticCoeffs, grid: Grid) -> Tuple[Tuple[float, float], float]:
    """Two-level check of solve_T on the manufactured pair: the errors on
    grid and on its 2x refinement (2n-1 nodes per axis), and the observed
    order log2(coarse / fine)."""
    fine = Grid(grid.l1, grid.l2, 2 * grid.nx - 1, 2 * grid.ny - 1)
    errs = []
    for g in (grid, fine):
        exact, F = manufactured_solution_T(c, g)
        theta = solve_T(F, c, g)
        diff = ThetaField(theta.theta1 - exact.theta1, theta.theta2 - exact.theta2)
        errs.append(theta_norm(diff, g))
    order = float(np.log2(errs[0] / errs[1])) if errs[1] > 0 else np.inf
    return (errs[0], errs[1]), order


def neumann_crosscheck(theta: ThetaField, c: EllipticCoeffs, grid: Grid):
    """Residuals of the no-flux relations the solution of solve_T satisfies on
    East and North in the transformed picture, evaluated in original
    coordinates.  O(h) for compactly supported forcing; returns the two
    max-abs residuals (East, North), normalized by the gradient scale."""
    t1x, t1y = _grads(theta.theta1, grid)
    gscale = max(float(np.max(np.abs(t1x))), float(np.max(np.abs(t1y))), 1e-300)
    a1, a2, b1, b2 = c.alpha1, c.alpha2, c.beta1, c.beta2
    east = (a1**2 + b1**2) * t1x[-1, :] + (a1 * a2 + b1 * b2) * t1y[-1, :]
    north = (a1 * a2 + b1 * b2) * t1x[:, -1] + (a2**2 + b2**2) * t1y[:, -1]
    return float(np.max(np.abs(east)) / gscale), float(np.max(np.abs(north)) / gscale)
