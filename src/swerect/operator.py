"""Discrete first-order operator, its adjoint, lifting, and energy
instrumentation.  States are (3, nx, ny) stacks of (u, v, phi)."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .algebra import coefficient_matrices, flux_forms
from .boundary import (BcEnforcer, BoundaryData, Side, SIDES, _check_regime, adjoint_bc_catalog,
                       bc_catalog)
from .errors import InvalidValue, ShapeMismatch
from .fields import Grid, StateField, inner_product, is_integer
from .regime import PhysicalConstants, Regime
from .rng import SplitMix64, check_seed


def energy_value(U: StateField, grid: Grid, p: PhysicalConstants) -> float:
    """Squared weighted norm ||U||^2; the quantity the evolution contracts."""
    return inner_product(U, U, grid, p.g, p.phi0)


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


# matmul, unlike einsum, reports the floating-point flags of its products;
# only the differences and the sums of the terms warn, as they did with einsum
@np.errstate(over="ignore", invalid="ignore")
def _gemm(M: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One 3x3 matrix applied at every node of a (3, n) view, as one GEMM."""
    return np.matmul(M, X, out=out)


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
        dx, dy = grid.dx, grid.dy
        # the split parts with 1/h folded in, in the order of the terms:
        # x backward, x forward, y backward, y forward.  In the adjoint,
        # (-E1)^± = -(E1^∓): transport reverses, upwind orientation flips
        self._forward = (self.E1p / dx, self.E1m / dx, self.E2p / dy, self.E2m / dy)
        self._adjoint = (-self.E1m / dx, -self.E1p / dx, -self.E2m / dy, -self.E2p / dy)
        nx, ny = grid.nx, grid.ny
        n = nx * ny
        # private scratch, reused by every apply (so one operator must not
        # be applied from two threads at once): the padded x differences,
        # the flat y differences q[:, k] = w[k] - w[k-1] of the flattened
        # stack w, and one product term, all unscaled.  Viewed as
        # (3, nx, ny), q[:, :n] holds the backward y differences and
        # q[:, 1:] the forward ones; the cell between two rows is a
        # row-crossing value that serves as the backward pad of one row,
        # then as the forward pad of the row before it.  Each term is one
        # GEMM on a (3, n) view of these buffers
        self._shape = (3, nx, ny)
        self._px = np.empty((3, nx + 1, ny))
        self._q = np.empty((3, n + 1))
        self._qb = self._q[:, :n].reshape(self._shape)
        self._qf = self._q[:, 1:].reshape(self._shape)
        self._flat = (self._px[:, :-1].reshape(3, n), self._px[:, 1:].reshape(3, n),
                      self._q[:, :n], self._q[:, 1:])
        self._term = np.empty((3, n))

    def _upwind(self, W: np.ndarray, out: Optional[np.ndarray], mats) -> np.ndarray:
        shape = self._shape
        for a in (W, out):
            if a is not None and a.shape != shape:
                raise ShapeMismatch(f"stack shape {a.shape} vs {shape}")
        if out is not None and not out.flags.c_contiguous:
            # the GEMMs write through a flat view of a C-ordered result
            out[...] = self._upwind(W, None, mats)
            return out
        # padded x differences: P[k] = W[k] - W[k-1] inside, the end
        # differences repeated into the pad cells, so the backward and
        # forward one-sided differences are the views P[:-1] and P[1:]
        px, q, qb, qf, term = self._px, self._q, self._qb, self._qf, self._term
        np.subtract(W[:, 1:], W[:, :-1], out=px[:, 1:-1])
        px[:, 0], px[:, -1] = px[:, 1], px[:, -2]
        # one contiguous y difference over the flattened stack.  Its
        # row-crossing values are overwritten by the pads before any read,
        # but they can overflow where no real difference does; any
        # floating-point flag therefore recomputes only the real
        # differences, under the caller's error state, so results,
        # warnings and exceptions are those of the per-row difference
        try:
            with np.errstate(all="raise"):
                Wf = W.reshape(3, -1)
                np.subtract(Wf[:, 1:], Wf[:, :-1], out=q[:, 1:-1])
        except FloatingPointError:
            np.subtract(W[:, :, 1:], W[:, :, :-1], out=qf[:, :, :-1])
        if out is None:
            out = np.empty(shape)
        o = out.reshape(term.shape)
        (Mxb, Mxf, Myb, Myf), (xb, xf, yb, yf) = mats, self._flat
        _gemm(Mxb, xb, o)
        o += _gemm(Mxf, xf, term)
        # the backward pads, read by the Myb term, then the forward pads in
        # the same cells, read by the Myf term
        qb[:, :, 0] = qb[:, :, 1]
        o += _gemm(Myb, yb, term)
        qf[:, :, -1] = qf[:, :, -2]
        o += _gemm(Myf, yf, term)
        return out

    def apply_stack(self, W: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """A_h W for a (3, nx, ny) stack, into ``out`` when given."""
        return self._upwind(W, out, self._forward)

    def apply_adjoint_stack(self, V: np.ndarray) -> np.ndarray:
        return self._upwind(V, None, self._adjoint)


def apply_B(W: np.ndarray, p: PhysicalConstants) -> np.ndarray:
    """Rotation term (-f v, f u, 0) of a stack; anti-self-adjoint in the
    weighted inner product, hence exactly energy-neutral."""
    return np.stack([-p.f * W[1], p.f * W[0], np.zeros_like(W[2])])


# --- lifting ----------------------------------------------------------------


def lift_nonhomogeneous(ug, dug_dt, forcing, p: PhysicalConstants,
                        grid: Grid) -> Callable[[float], np.ndarray]:
    """Fold boundary data carried by a lifting field ug into the forcing.

    ug(t) and dug_dt(t) return (3, nx, ny) stacks satisfying the
    non-homogeneous boundary data; forcing(t) returns a stack (or None for
    zero).  Returns the lifted forcing t -> F - d(ug)/dt - A_h ug - B ug.
    The remainder solves the same system with homogeneous boundary data:
    run it with the lifted forcing from the initial state minus ug(0),
    then solution(t) = remainder(t) + ug(t).
    """
    op = DiscreteOperator(p, grid)

    def lifted(t: float) -> np.ndarray:
        base = forcing(t) if forcing is not None else None
        g = ug(t)
        out = -dug_dt(t)
        out -= op.apply_stack(g)
        out -= apply_B(g, p)
        if base is not None:
            out += base
        return out

    return lifted


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


def positivity_probe(p: PhysicalConstants, grid: Grid, n_samples: int, seed: int) -> ProbeReport:
    """Minimum of <A_h U, U> / ||U||^2 over random smooth BC-respecting fields.

    The samples are projected onto the catalog by the stepper's own
    enforcer.  The continuous quadratic form is nonnegative on the domain of
    the operator; discretely, upwind dissipation keeps the quotient above a
    small negative floor.
    """
    if not is_integer(n_samples):
        raise InvalidValue(f"positivity probe sample count must be an integer, got {n_samples!r}")
    if n_samples < 1:
        raise InvalidValue(f"positivity probe needs at least one sample, got {n_samples}")
    check_seed(seed, "seed")
    enforcer = BcEnforcer(bc_catalog(p), p, grid)
    op = DiscreteOperator(p, grid)
    data = BoundaryData.homogeneous()
    rng = SplitMix64(seed)
    threshold = -1e-6 * (p.u0 + p.v0 + p.sound_speed) / min(grid.dx, grid.dy)

    qmin = np.inf
    for _ in range(n_samples):
        W = enforcer.apply(band_limited_fields(rng, grid.nx, grid.ny), data)
        U = StateField(*W)
        denom = inner_product(U, U, grid, p.g, p.phi0)
        if denom <= 1e-28:  # zero fields carry no information
            continue
        q = inner_product(StateField(*op.apply_stack(W)), U, grid, p.g, p.phi0) / denom
        qmin = min(qmin, q)
    return ProbeReport(float(qmin), threshold, n_samples)


@dataclass
class SideForm:
    """Outward-flux quadratic form of one side, restricted to the catalog null space."""

    side: Side
    eigenvalues: np.ndarray     # of the restricted, unit-max-norm-scaled form


_EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=64)
def _side_spectrum(p: PhysicalConstants, axis: int, sign: float,
                   shape: Tuple[int, int], data: bytes) -> np.ndarray:
    """Eigenvalues of sign * flux_forms(p)'s axis form restricted to the
    null space of the rows in ``data``; read-only, shared by every caller.
    The shortcuts are exact: with no rows the identity products only add
    0.0, and LAPACK's dsyevd returns a 1x1 form's single entry."""
    ff = flux_forms(p)
    F = sign * (ff.F1, ff.F2)[axis]
    if shape[0] == 0:
        R = F + 0.0
    else:
        _, s, vt = np.linalg.svd(np.frombuffer(data).reshape(shape))
        s = s.tolist()
        tol = max(shape) * _EPS * s[0]
        basis = vt[sum(x > tol for x in s):].T
        R = basis.T @ F @ basis
    R = 0.5 * (R + R.T)
    if R.size == 0:
        w = np.empty(0)
    elif R.size == 1:
        w = R.reshape(1)
    else:
        w = np.linalg.eigvalsh(R)
    w.flags.writeable = False
    return w


def boundary_quadratic_forms(p: PhysicalConstants, regime: Regime,
                             adjoint: bool = False) -> Dict[Side, SideForm]:
    """Per-side energy-flux forms +-(1/2) S0E1 (E/W) and +-(1/2) S0E2 (N/S),
    restricted to the null space of that side's constraint rows.

    For the forward catalog the outward orientation applies; the adjoint
    operator transports backwards, so adjoint=True flips every sign and uses
    the adjoint catalog.  All restricted eigenvalues are nonnegative for a
    regime's own catalog -- that is the discrete shadow of the energy
    inequality the catalogs were designed for.  In the hyperbolic regimes
    the adjoint catalog mirrors the forward one with the orientation, so
    both calls share each side's (read-only) eigenvalues.  Raises
    RegimeMismatch when regime is not the regime of p.
    """
    _check_regime(p, regime)
    orient = -1.0 if adjoint else 1.0
    spec = adjoint_bc_catalog(p) if adjoint else bc_catalog(p)
    out = {}
    for side in SIDES:
        rows = spec.rows[side]
        out[side] = SideForm(side, _side_spectrum(p, side.axis, side.outward * orient,
                                                  rows.shape, rows.tobytes()))
    return out
