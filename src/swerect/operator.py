"""Discrete first-order operator, its adjoint, and energy instrumentation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .algebra import coefficient_matrices, transform_for
from .boundary import BcEnforcer, BoundaryData, Side, SIDES, adjoint_bc_catalog, bc_catalog
from .errors import InvalidValue, ShapeMismatch
from .fields import Grid, StateField, inner_product
from .regime import PhysicalConstants, Regime
from .rng import SplitMix64


def weighted_inner(U: StateField, V: StateField, grid: Grid, p: PhysicalConstants) -> float:
    """Trapezoidal quadrature of u*u' + v*v' + (g/phi0) phi*phi' over the grid."""
    if U.u.shape != V.u.shape or U.u.shape != (grid.nx, grid.ny):
        raise ShapeMismatch(f"field shapes {U.u.shape}, {V.u.shape} vs grid ({grid.nx}, {grid.ny})")
    return inner_product(U, V, grid, p.g, p.phi0)


def energy_value(U: StateField, grid: Grid, p: PhysicalConstants) -> float:
    """Squared weighted norm ||U||^2; the quantity the evolution contracts."""
    return weighted_inner(U, U, grid, p)


def flux_split(E: np.ndarray, S0: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split E = Ep + Em with Ep/Em having nonnegative/nonpositive spectrum.

    Built from the eigendecomposition of the symmetrized matrix
    S0^{1/2} E S0^{-1/2}, so the split parts inherit the symmetrizer: both
    S0*Ep and -S0*Em are positive semidefinite, which is what makes upwinding
    with them energy-dissipative in the weighted norm.
    """
    sh = np.sqrt(np.diag(S0))
    M = (E * sh[:, None]) / sh[None, :]
    w, Q = np.linalg.eigh(0.5 * (M + M.T))
    Ep = (Q * np.maximum(w, 0.0)) @ Q.T
    Em = (Q * np.minimum(w, 0.0)) @ Q.T
    # undo the symmetrizing similarity
    Ep = Ep / sh[:, None] * sh[None, :]
    Em = Em / sh[:, None] * sh[None, :]
    return Ep, Em


def _one_sided(W: np.ndarray, axis: int, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Backward and forward differences along axis from one np.diff; each
    repeats the nearest difference at the end that has no neighbour."""
    d = np.diff(W, axis=axis) / h
    first, last = d.take([0], axis=axis), d.take([-1], axis=axis)
    return np.concatenate((first, d), axis=axis), np.concatenate((d, last), axis=axis)


def _mul(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    return np.einsum("ab,bij->aij", M, W)


class DiscreteOperator:
    """First-order upwind discretization of E1 d/dx + E2 d/dy on one grid.

    Positive-spectrum parts differentiate from upwind (backward), negative
    parts from downwind (forward); at boundary nodes the two one-sided
    differences coincide, which amounts to a full-matrix one-sided stencil
    there.  The adjoint applies -E1 d/dx - E2 d/dy with the orientation of
    every split part mirrored.
    """

    def __init__(self, p: PhysicalConstants, grid: Grid):
        self.p = p
        self.grid = grid
        m = coefficient_matrices(p)
        self.E1, self.E2, self.S0 = m.E1, m.E2, m.S0
        self.E1p, self.E1m = flux_split(m.E1, m.S0)
        self.E2p, self.E2m = flux_split(m.E2, m.S0)

    def _upwind(self, W: np.ndarray, Exp, Exm, Eyp, Eym) -> np.ndarray:
        dxm, dxp = _one_sided(W, 1, self.grid.dx)
        dym, dyp = _one_sided(W, 2, self.grid.dy)
        return _mul(Exp, dxm) + _mul(Exm, dxp) + _mul(Eyp, dym) + _mul(Eym, dyp)

    def apply_stack(self, W: np.ndarray) -> np.ndarray:
        return self._upwind(W, self.E1p, self.E1m, self.E2p, self.E2m)

    def apply_adjoint_stack(self, V: np.ndarray) -> np.ndarray:
        # (-E1)^± = -(E1^∓): transport reverses, upwind orientation flips
        return self._upwind(V, -self.E1m, -self.E1p, -self.E2m, -self.E2p)


def apply_A(U: StateField, p: PhysicalConstants, grid: Grid) -> StateField:
    """A_h U; boundary conditions are the enforcer's business, not this one's."""
    if U.u.shape != (grid.nx, grid.ny):
        raise ShapeMismatch(f"field shape {U.u.shape} vs grid ({grid.nx}, {grid.ny})")
    return StateField.from_stack(DiscreteOperator(p, grid).apply_stack(U.stack()))


def apply_adjoint(V: StateField, p: PhysicalConstants, grid: Grid) -> StateField:
    if V.u.shape != (grid.nx, grid.ny):
        raise ShapeMismatch(f"field shape {V.u.shape} vs grid ({grid.nx}, {grid.ny})")
    return StateField.from_stack(DiscreteOperator(p, grid).apply_adjoint_stack(V.stack()))


def apply_B(U: StateField, p: PhysicalConstants) -> StateField:
    """Rotation term (-f v, f u, 0); anti-self-adjoint in the weighted inner
    product, hence exactly energy-neutral."""
    return StateField(-p.f * U.v, p.f * U.u, np.zeros_like(U.phi))


# --- probes and boundary forms ----------------------------------------------


def band_limited_fields(rng: SplitMix64, nx: int, ny: int, n_fields: int = 3) -> np.ndarray:
    """Smooth random fields: white noise truncated to the lowest quarter of
    the Fourier modes per direction, normalized to unit max amplitude."""
    kx = max(2, nx // 4)
    ky = max(2, ny // 4)
    out = np.empty((n_fields, nx, ny))
    for c in range(n_fields):
        noise = rng.doubles(nx * ny).reshape(nx, ny) - 0.5
        F = np.fft.rfft2(noise)
        keep = np.zeros_like(F)
        keep[:kx, :ky] = F[:kx, :ky]
        keep[-kx:, :ky] = F[-kx:, :ky]
        f = np.fft.irfft2(keep, s=(nx, ny))
        amp = np.max(np.abs(f))
        out[c] = f / amp if amp > 0 else f
    return out


@dataclass
class ProbeReport:
    min_quotient: float
    threshold: float
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.min_quotient >= self.threshold


def positivity_probe(p: PhysicalConstants, regime: Regime, grid: Grid,
                     n_samples: int, seed: int) -> ProbeReport:
    """Minimum of <A_h U, U> / ||U||^2 over random smooth BC-respecting fields.

    The continuous quadratic form is nonnegative on the domain of the
    operator; discretely, upwind dissipation keeps the quotient above a small
    negative floor set by the boundary extrapolation error of the samples.
    """
    if n_samples < 1:
        raise InvalidValue(f"positivity probe needs at least one sample, got {n_samples}")
    spec = bc_catalog(regime, p)
    enforcer = BcEnforcer(spec, transform_for(p), grid, include_free_sides=True)
    op = DiscreteOperator(p, grid)
    data = BoundaryData.homogeneous()
    rng = SplitMix64(seed)
    threshold = -1e-6 * (p.u0 + p.v0 + p.sound_speed) / min(grid.dx, grid.dy)

    qmin = np.inf
    for _ in range(n_samples):
        W = enforcer.apply(band_limited_fields(rng, grid.nx, grid.ny), data)
        U = StateField.from_stack(W)
        denom = weighted_inner(U, U, grid, p)
        if denom <= 1e-28:  # zero fields carry no information
            continue
        AU = StateField.from_stack(op.apply_stack(W))
        q = weighted_inner(AU, U, grid, p) / denom
        qmin = min(qmin, q)
    return ProbeReport(float(qmin), threshold, n_samples)


@dataclass
class SideForm:
    """Outward-flux quadratic form of one side, restricted to the catalog null space."""

    side: Side
    full: np.ndarray
    null_basis: np.ndarray      # orthonormal columns spanning the constraint null space
    restricted: np.ndarray      # null_basis^T (full/scale) null_basis
    eigenvalues: np.ndarray     # of the restricted, unit-max-norm-scaled form
    scale: float


def _null_basis(rows: np.ndarray) -> np.ndarray:
    if rows.shape[0] == 0:
        return np.eye(3)
    _, s, vt = np.linalg.svd(rows)
    tol = max(rows.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return vt[rank:].T


def boundary_quadratic_forms(p: PhysicalConstants, regime: Regime,
                             adjoint: bool = False) -> Dict[Side, SideForm]:
    """Per-side energy-flux forms +-(1/2) S0E1 (E/W) and +-(1/2) S0E2 (N/S),
    restricted to the null space of that side's constraint rows.

    For the forward catalog the outward orientation applies; the adjoint
    operator transports backwards, so adjoint=True flips every sign and uses
    the adjoint catalog.  All restricted eigenvalues are nonnegative for a
    regime's own catalog -- that is the discrete shadow of the energy
    inequality the catalogs were designed for.
    """
    m = coefficient_matrices(p)
    fx = 0.5 * (m.S0 @ m.E1)
    fy = 0.5 * (m.S0 @ m.E2)
    orient = -1.0 if adjoint else 1.0
    forms = {
        Side.WEST: -orient * fx,
        Side.EAST: orient * fx,
        Side.SOUTH: -orient * fy,
        Side.NORTH: orient * fy,
    }
    spec = adjoint_bc_catalog(regime, p) if adjoint else bc_catalog(regime, p)
    out = {}
    for side in SIDES:
        F = 0.5 * (forms[side] + forms[side].T)
        basis = _null_basis(spec.rows[side])
        scale = float(np.max(np.abs(F)))
        R = basis.T @ (F / scale) @ basis
        R = 0.5 * (R + R.T)
        eigs = np.linalg.eigvalsh(R) if R.size else np.empty(0)
        out[side] = SideForm(side, F, basis, R, eigs, scale)
    return out
