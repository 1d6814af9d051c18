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
not once per node.  A sparse direct factorization of the same system with
its nodes in nested-dissection order does the rest.  No
second-order reformulation is used -- the first-order form is what the
positivity and duality identities are stated for.

SciPy is imported by the first assembly or solve, not with the package:
nothing outside the elliptic solvers needs it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    BcViolation,
    InvalidValue,
    NonConvergence,
    NonFinite,
    RegimeMismatch,
    ShapeMismatch,
    SingularSystem,
    ViolatesCondition,
)
from .boundary import _NODE_CLASSES, SIDES, Side, node_line
from .fields import Grid, check_field_shape, integrate, l2_norm
from .regime import PhysicalConstants, Regime
from .algebra import elliptic_transform, independent_rows


@dataclass(frozen=True)
class EllipticCoeffs:
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        values = (self.alpha1, self.alpha2, self.beta1, self.beta2)
        for name, value in zip(("alpha1", "alpha2", "beta1", "beta2"), values):
            if not math.isfinite(value):
                raise ViolatesCondition(f"{name} must be finite, got {value}")
        if not (self.alpha1 > 0 and self.alpha2 > 0):
            raise ViolatesCondition(f"need alpha1, alpha2 > 0, got ({self.alpha1}, {self.alpha2})")
        with np.errstate(over="ignore"):
            try:
                scale = max(map(abs, values)) ** 2
            except OverflowError:  # a float's square raises, a NumPy float's is inf
                scale = math.inf
        if math.isinf(scale):
            raise InvalidValue(f"the largest coefficient magnitude squared overflows a float: "
                               f"max |alpha1, alpha2, beta1, beta2| = {max(map(abs, values))}")
        if abs(self.det) <= 1e-12 * scale:
            raise ViolatesCondition(f"alpha2*beta1 - alpha1*beta2 = {self.det} too close to zero")

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
    """EllipticCoeffs of the four numbers converted to float."""
    return EllipticCoeffs(float(alpha1), float(alpha2), float(beta1), float(beta2))


def swe_elliptic_block(p: PhysicalConstants) -> EllipticCoeffs:
    """Coefficients of the shear/pressure pair in the mixed subcritical
    regime, read from the blocks that verify_diagonalization certifies.

    The determinant is g/(kappa1*(u0^2+v0^2)) > 0, so the condition holds for
    every admissible base state.
    """
    if p.regime is not Regime.MIXED_SUBCRITICAL:
        raise RegimeMismatch("swe_elliptic_block requires the mixed subcritical regime")
    t = elliptic_transform(p)
    return build_coeffs(t.blockX[0, 0], t.blockY[0, 0], t.blockX[0, 1], t.blockY[0, 1])


@dataclass(frozen=True)
class ThetaField:
    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        if self.theta1.shape != self.theta2.shape:
            raise ShapeMismatch("theta1, theta2 must share one shape")

    @classmethod
    def zeros(cls, grid: Grid) -> "ThetaField":
        return cls(np.zeros((grid.nx, grid.ny)), np.zeros((grid.nx, grid.ny)))


def theta_inner(A: ThetaField, B: ThetaField, grid: Grid) -> float:
    if A.theta1.shape != B.theta1.shape:
        raise ShapeMismatch(f"operand shapes {A.theta1.shape} vs {B.theta1.shape}")
    return integrate(A.theta1 * B.theta1 + A.theta2 * B.theta2, grid)


def theta_norm(A: ThetaField, grid: Grid) -> float:
    return float(np.sqrt(theta_inner(A, A, grid)))


def _grads(f: np.ndarray, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    return (
        np.gradient(f, grid.dx, axis=0, edge_order=1),
        np.gradient(f, grid.dy, axis=1, edge_order=1),
    )


def _partials(theta: ThetaField, grid: Grid):
    """(theta1_x, theta1_y, theta2_x, theta2_y) of a field on the grid.  The
    view is frozen, so theta2 has theta1's shape and one check covers both."""
    check_field_shape(theta.theta1, grid)
    return (*_grads(theta.theta1, grid), *_grads(theta.theta2, grid))


def _T_rows(c: EllipticCoeffs, t1x, t1y, t2x, t2y) -> Tuple[np.ndarray, np.ndarray]:
    """The two rows of T Theta = T1 Theta_x + T2 Theta_y from the partials."""
    return (c.alpha1 * t1x + c.beta1 * t2x + c.alpha2 * t1y + c.beta2 * t2y,
            c.beta1 * t1x - c.alpha1 * t2x + c.beta2 * t1y - c.alpha2 * t2y)


def apply_T(theta: ThetaField, c: EllipticCoeffs, grid: Grid) -> ThetaField:
    """T Theta; centered differences inside, one-sided first-order at the
    boundary nodes."""
    return ThetaField(*_T_rows(c, *_partials(theta, grid)))


def apply_T_star(theta: ThetaField, c: EllipticCoeffs, grid: Grid) -> ThetaField:
    """T* Theta = -T Theta (negation is exact)."""
    r1, r2 = _T_rows(c, *_partials(theta, grid))
    return ThetaField(-r1, -r2)


def _check_in_V(theta: ThetaField) -> None:
    scale = max(np.max(np.abs(theta.theta1)), np.max(np.abs(theta.theta2)), 1e-300)
    tol = 1e-10 * scale
    # V is the forward problem's domain: each of its unit rows pins one component
    pair = (theta.theta1, theta.theta2)
    if any(np.max(np.abs(side.line(pair[r.argmax()]))) > tol for side, r in _FORWARD_BC.items()):
        raise BcViolation("field is not in discrete V: theta1|W,S and theta2|E,N must vanish")


def cross_gradient_residual(theta: ThetaField, grid: Grid) -> float:
    """|integral(theta2_x * theta1_y) - integral(theta1_x * theta2_y)|.

    The two integrals agree exactly in the continuum for fields with theta1
    pinned on West+South and theta2 on East+North.  Discretely they agree to
    round-off (about 1e-15 * ||theta||^2 on any grid, for any field in
    discrete V, smooth or not): np.gradient's stencils and the trapezoid
    weights telescope exactly, so there is no truncation error to decay.  A
    residual above round-off means a broken gradient or quadrature.  Inputs
    outside discrete V are rejected.
    """
    t1x, t1y, t2x, t2y = _partials(theta, grid)
    _check_in_V(theta)
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


def apriori_check(theta: ThetaField, c: EllipticCoeffs, grid: Grid) -> AprioriReport:
    """Two-sided gradient equivalence ||grad|| / c1 <= ||T Theta|| <= c2 ||grad||.

    Discretely the bound holds up to a truncation slack proportional to h and
    a curvature seminorm of the field; the slack is reported so refinement
    studies can watch it vanish relative to the norms.
    """
    partials = _partials(theta, grid)
    _check_in_V(theta)
    grad_norm = l2_norm(np.stack(partials), grid)
    T_norm = l2_norm(np.stack(_T_rows(c, *partials)), grid)
    # H2-like curvature proxy: second differences of both fields
    seconds = [d for f in partials for d in _grads(f, grid)]
    h = max(grid.dx, grid.dy)
    slack = 2.0 * (c.c2 + 1.0 / c.c1) * h * l2_norm(np.stack(seconds), grid)
    return AprioriReport(grad_norm, T_norm, c.c1, c.c2, slack)


# --- direct sparse solvers ---------------------------------------------------

# boundary rows for the forward problem: theta1 pinned on W and S, theta2 on E and N
_FORWARD_BC = {
    Side.WEST: np.array([1.0, 0.0]),
    Side.SOUTH: np.array([1.0, 0.0]),
    Side.EAST: np.array([0.0, 1.0]),
    Side.NORTH: np.array([0.0, 1.0]),
}


def _adjoint_bc(c: EllipticCoeffs):
    return {
        Side.WEST: np.array([c.beta1, -c.alpha1]),
        Side.EAST: np.array([c.alpha1, c.beta1]),
        Side.SOUTH: np.array([c.beta2, -c.alpha2]),
        Side.NORTH: np.array([c.alpha2, c.beta2]),
    }


def _stencil(side, d: float):
    """(offset, weight) pairs of the first difference along one axis:
    one-sided inward at a side, centred inside (side None)."""
    if side is None:
        return ((-1, -0.5 / d), (1, 0.5 / d))
    if side.end == 0:
        return ((0, -1.0 / d), (1, 1.0 / d))
    return ((-1, -1.0 / d), (0, 1.0 / d))


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
    check_field_shape(F.theta1, grid)  # the frozen view: theta2 matches
    nx, ny = grid.nx, grid.ny
    bad = np.argwhere(~np.isfinite(np.stack([F.theta1, F.theta2])))
    if bad.size:
        k, i, j = bad[0]
        raise NonFinite(f"non-finite forcing for {'T' if sign > 0 else 'T*'} on {nx}x{ny}: "
                        f"first in component 'theta{k + 1}' at node ({i}, {j})")
    N = nx * ny
    T1, T2 = c.T1, c.T2
    node = np.arange(N).reshape(nx, ny)
    F1, F2 = F.theta1.ravel(), F.theta2.ravel()

    rows, cols, vals = [], [], []
    rhs = np.zeros(2 * N)
    eq_mask = np.zeros(2 * N, dtype=bool)
    for sides in _NODE_CLASSES:
        n = node[node_line(sides)].ravel()
        C = np.array([bc_rows[s] for s in sides]).reshape(-1, 2)
        C = C[independent_rows(C)]
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
        at = {s.axis: s for s in sides}  # the class's side on each axis
        xst, yst = _stencil(at.get(0), grid.dx), _stencil(at.get(1), grid.dy)
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

    import scipy.sparse as sp

    A = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(2 * N, 2 * N))
    return A, rhs, eq_mask


# Nested-dissection order (George 1973) for the direct solve.  A block is
# bisected across its longer side and the separator is numbered after both
# halves.  Separators are two lines wide: partial pivoting fills within the
# pattern of the normal equations, which couples nodes two steps apart, so
# one line would not separate.  Blocks of at most _LEAF nodes are numbered
# plainly along their long axis, and so are blocks at most _THIN nodes
# across and at least _ELONGATED times as long: on 9x400 bisection measured
# slower than plain order.  The constants were chosen by timing spsolve on
# grids from 9x400 to 257^2.
_LEAF = 16
_THIN = 12
_ELONGATED = 3


@functools.lru_cache(maxsize=4)
def _node_order(nx: int, ny: int) -> np.ndarray:
    """Node numbers n = i*ny + j in nested-dissection order (read-only)."""
    parts = []

    def visit(block):
        if block.shape[0] < block.shape[1]:
            block = block.T  # long axis first
        a, b = block.shape
        if a * b <= _LEAF or (b <= _THIN and a >= _ELONGATED * b):
            parts.append(block.ravel())
            return
        m = (a - 2) // 2
        visit(block[:m])
        visit(block[m + 2:])
        parts.append(block[m:m + 2].T.ravel())

    visit(np.arange(nx * ny).reshape(nx, ny))
    order = np.concatenate(parts)
    order.setflags(write=False)
    return order


def _assemble_and_solve(F: ThetaField, c: EllipticCoeffs, grid: Grid,
                        bc_rows: dict, sign: float) -> ThetaField:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    A, rhs, eq = _assemble(F, c, grid, bc_rows, sign)
    nx, ny = grid.nx, grid.ny
    N = nx * ny
    system = f"{'T' if sign > 0 else 'T*'} on {nx}x{ny} ({2 * N} unknowns)"
    # The k-th node of the order takes positions 2k, 2k+1 for its rows
    # (2n, 2n+1) and its unknowns (n, N + n); NATURAL keeps that order.
    order = _node_order(nx, ny)
    rows = (2 * order[:, None] + np.arange(2)).ravel()
    pos = np.empty(N, dtype=np.intp)
    pos[order] = np.arange(0, 2 * N, 2)
    col_pos = np.concatenate([pos, pos + 1])
    Ap = sp.csr_matrix((A.data, col_pos[A.indices], A.indptr), shape=A.shape)[rows]
    with np.errstate(all="ignore"):
        sol = spla.spsolve(Ap, rhs[rows], permc_spec="NATURAL")[col_pos]
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
    return ThetaField(t1, t2), ThetaField(*_T_rows(c, t1x, t1y, t2x, t2y))


# each side's envelope of manufactured_solution_T_star is a product of one
# factor per axis, trig(k * pi * z / length) for z = x, y
_ENVELOPES = {
    Side.WEST: ((0.5, np.cos), (1.0, np.sin)),
    Side.EAST: ((0.5, np.sin), (1.0, np.sin)),
    Side.SOUTH: ((1.0, np.sin), (0.5, np.cos)),
    Side.NORTH: ((1.0, np.sin), (0.5, np.sin)),
}


def _envelope_factor(k: float, trig, z: np.ndarray, length: float):
    """trig(k*pi*z/length), its derivative's coefficient and the trig
    function the derivative multiplies."""
    arg = k * np.pi * z / length
    if trig is np.sin:
        return np.sin(arg), k * np.pi / length, np.cos(arg)
    return np.cos(arg), -k * np.pi / length, np.sin(arg)


def manufactured_solution_T_star(c: EllipticCoeffs, grid: Grid) -> Tuple[ThetaField, ThetaField]:
    """A pair satisfying the adjoint side conditions and Psi = T* Theta.

    Built as a sum of four corner-compatible envelopes, each aligned with the
    direction its side's single constraint row annihilates.
    """
    X, Y = grid.meshgrid()
    # each side's row r annihilates (r[1], -r[0]); orient it outward
    dirs = {side: side.outward * np.array([r[1], -r[0]]) for side, r in _adjoint_bc(c).items()}
    g, gx, gy = {}, {}, {}
    for side, ((kx, fx), (ky, fy)) in _ENVELOPES.items():
        vx, cx, ox = _envelope_factor(kx, fx, X, grid.l1)
        vy, cy, oy = _envelope_factor(ky, fy, Y, grid.l2)
        g[side], gx[side], gy[side] = vx * vy, cx * ox * vy, cy * vx * oy
    t1 = sum(g[s] * dirs[s][0] for s in SIDES)
    t2 = sum(g[s] * dirs[s][1] for s in SIDES)
    t1x = sum(gx[s] * dirs[s][0] for s in SIDES)
    t2x = sum(gx[s] * dirs[s][1] for s in SIDES)
    t1y = sum(gy[s] * dirs[s][0] for s in SIDES)
    t2y = sum(gy[s] * dirs[s][1] for s in SIDES)
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
    t1x, t1y, _, _ = _partials(theta, grid)
    gscale = max(float(np.max(np.abs(t1x))), float(np.max(np.abs(t1y))), 1e-300)
    a1, a2, b1, b2 = c.alpha1, c.alpha2, c.beta1, c.beta2
    e, n = Side.EAST, Side.NORTH
    east = (a1**2 + b1**2) * e.line(t1x) + (a1 * a2 + b1 * b2) * e.line(t1y)
    north = (a1 * a2 + b1 * b2) * n.line(t1x) + (a2**2 + b2**2) * n.line(t1y)
    return float(np.max(np.abs(east)) / gscale), float(np.max(np.abs(north)) / gscale)
