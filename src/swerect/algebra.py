"""Coefficient matrices, characteristic transforms, diagonalization checks.

The first-order operator is A = E1 d/dx + E2 d/dy with

    E1 = [[u0, 0, g], [0, u0, 0], [phi0, 0, u0]]
    E2 = [[v0, 0, 0], [0, v0, g], [0, phi0, v0]]

and symmetrizer S0 = diag(1, 1, g/phi0):  S0*E1 and S0*E2 are symmetric.

When Delta = u0^2 + v0^2 - g*phi0 > 0, a single real change of variables
Xi = Pinv @ U simultaneously congruence-diagonalizes S0*E1 and S0*E2 and
similarity-diagonalizes E2^{-1} E1.  When Delta < 0 the first two modes stay
coupled through indefinite symmetric 2x2 blocks (an elliptic pair) while the
third mode remains a pure transport.

Everything here is closed-form, P = Pinv^-1 included, except
independent_rows' rank tests; numeric matrix products appear only in
flux_forms (S0*E1, S0*E2) and in verify_diagonalization, which checks the
closed forms against them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Union

import numpy as np

from .errors import InvalidValue, NotElliptic, NotHyperbolic
from .fields import is_real
from .regime import PhysicalConstants, Regime


def _memoized(derive):
    """Memoize a derivation of the base state: every caller of one state
    shares the same arrays, so they are made read-only.  Keying on the whole
    state is safe because f, whose -0.0 and 0.0 compare equal, is never
    read by a derivation."""

    @functools.lru_cache(maxsize=32)
    @functools.wraps(derive)
    def cached(p: PhysicalConstants):
        out = derive(p)
        for value in vars(out).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return out

    return cached


@dataclass(frozen=True)
class CoefficientMatrices:
    E1: np.ndarray
    E2: np.ndarray
    S0: np.ndarray


@_memoized
def coefficient_matrices(p: PhysicalConstants) -> CoefficientMatrices:
    E1 = np.array([[p.u0, 0.0, p.g], [0.0, p.u0, 0.0], [p.phi0, 0.0, p.u0]])
    E2 = np.array([[p.v0, 0.0, 0.0], [0.0, p.v0, p.g], [0.0, p.phi0, p.v0]])
    S0 = np.diag([1.0, 1.0, p.g / p.phi0])
    return CoefficientMatrices(E1, E2, S0)


@dataclass(frozen=True)
class FluxForms:
    """The symmetrized products S0*E1, S0*E2 and the boundary flux forms
    F1, F2: the symmetric part of (1/2) S0*E along each axis, scaled to unit
    max norm.  A side's outward form is exactly +-F1 or +-F2, since a sign
    flip commutes with every rounding."""

    S0E1: np.ndarray
    S0E2: np.ndarray
    F1: np.ndarray
    F2: np.ndarray


def _scaled_form(S0E: np.ndarray) -> np.ndarray:
    half = 0.5 * S0E
    F = 0.5 * (half + half.T)
    return F / float(np.abs(F).max())


@_memoized
def flux_forms(p: PhysicalConstants) -> FluxForms:
    m = coefficient_matrices(p)
    S0E1, S0E2 = m.S0 @ m.E1, m.S0 @ m.E2
    return FluxForms(S0E1, S0E2, _scaled_form(S0E1), _scaled_form(S0E2))


@dataclass(frozen=True)
class CharTransform:
    """Hyperbolic-case diagonalizing transform Xi = Pinv @ U.

    a, b are the diagonals of P^T S0 E1 P and P^T S0 E2 P; lam the eigenvalues
    of E2^{-1} E1.  Sign structure: a[0], a[2], b[1], b[2] > 0 always,
    sign(a[1]) = sign(u0^2 - g*phi0), sign(b[0]) = sign(v0^2 - g*phi0).
    """

    Pinv: np.ndarray
    P: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lam: np.ndarray


@_memoized
def hyperbolic_transform(p: PhysicalConstants) -> CharTransform:
    if p.delta <= 0:
        raise NotHyperbolic(f"characteristic transform requires Delta > 0, got Delta = {p.delta}")
    u0, v0, g, k0 = p.u0, p.v0, p.g, p.kappa
    s = u0**2 + v0**2
    Pinv = np.array(
        [
            [v0, -u0, k0],
            [v0, -u0, -k0],
            [u0, v0, g],
        ]
    )
    # P = Pinv^-1 in closed form; with e = (v0, -u0, 0), f = (u0, v0, 0)
    # and z = (0, 0, 1) its columns are e/2s -+ g f/(2 k0 s) +- z/(2 k0)
    # and f/s.  det Pinv = 2 k0 s, which validation keeps from underflowing
    # to 0.  Each entry divides its whole numerator, so a tiny s cannot
    # overflow a shared factor like g/(k0 s)
    h, q = 2.0 * s, 2.0 * k0 * s
    P = np.array([[v0 / h - g * u0 / q, v0 / h + g * u0 / q, u0 / s],
                  [-u0 / h - g * v0 / q, -u0 / h + g * v0 / q, v0 / s],
                  [0.5 / k0, -0.5 / k0, 0.0]])
    a = np.array([u0 * k0 + g * v0, u0 * k0 - g * v0, 2.0 * k0 * u0]) / (2.0 * s * k0)
    b = np.array([v0 * k0 - g * u0, v0 * k0 + g * u0, 2.0 * k0 * v0]) / (2.0 * s * k0)
    if not (a.all() and b.all()):  # a speed of 0 would enter through no side
        raise InvalidValue("a characteristic speed underflows to 0 for this base state")
    # lam needs v0^2 != g*phi0, which genericity already guarantees
    den = v0**2 - g * p.phi0
    lam = np.array(
        [
            (u0 * v0 + p.phi0 * k0) / den,
            (u0 * v0 - p.phi0 * k0) / den,
            u0 / v0,
        ]
    )
    return CharTransform(Pinv, P, a, b, lam)


@dataclass(frozen=True)
class EllipticTransform:
    """Delta < 0 transform: modes 0-1 form an indefinite symmetric pair,
    blockX = [[a1, b1], [b1, -a1]] and blockY = [[a2, b2], [b2, -a2]] (the
    pair the elliptic solvers take), and mode 2 is transported with
    velocity zeta_speed = (a1, a2)."""

    Pinv: np.ndarray
    P: np.ndarray
    blockX: np.ndarray
    blockY: np.ndarray
    zeta_speed: np.ndarray


@_memoized
def elliptic_transform(p: PhysicalConstants) -> EllipticTransform:
    if p.delta >= 0:
        raise NotElliptic(f"elliptic transform requires Delta < 0, got Delta = {p.delta}")
    u0, v0, g, k1 = p.u0, p.v0, p.g, p.kappa
    s = u0**2 + v0**2
    Pinv = np.array(
        [
            [v0, -u0, 0.0],
            [0.0, 0.0, k1],
            [u0, v0, g],
        ]
    )
    # P = Pinv^-1 in closed form: columns e/s, -g f/(k1 s) + z/k1 and f/s
    # in the notation of hyperbolic_transform (det Pinv = -k1 s, kept nonzero
    # by validation)
    q = k1 * s
    P = np.array([[v0 / s, -g * u0 / q, u0 / s],
                  [-u0 / s, -g * v0 / q, v0 / s],
                  [0.0, 1.0 / k1, 0.0]])
    a1, a2, b1, b2 = u0 / s, v0 / s, g * v0 / q, -g * u0 / q
    blockX = np.array([[a1, b1], [b1, -a1]])
    blockY = np.array([[a2, b2], [b2, -a2]])
    return EllipticTransform(Pinv, P, blockX, blockY, np.array([a1, a2]))


Transform = Union[CharTransform, EllipticTransform]


def independent_rows(rows: np.ndarray) -> List[int]:
    """Indices of the rows that, in order, raise the rank of the rows kept
    before them.  The rank is tested on each row scaled to max-abs 1, since
    the rank tolerance grows with the largest row: a row small next to the
    others is kept for its direction, and a zero row is never kept."""
    stack = np.zeros((0, rows.shape[1]))
    kept: List[int] = []
    for i in range(rows.shape[0]):
        if stack.shape[0] == rows.shape[1]:
            break  # square: no further row can raise the rank
        scale = np.abs(rows[i]).max()
        if scale == 0.0:
            continue
        trial = np.vstack([stack, rows[i] / scale])
        if np.linalg.matrix_rank(trial) > stack.shape[0]:
            kept.append(i)
            stack = trial
    return kept


def to_characteristic(U: np.ndarray, t: Transform) -> np.ndarray:
    """Xi = Pinv @ U; works on 3-vectors and (3, ...) field stacks alike."""
    return np.einsum("ij,j...->i...", t.Pinv, np.asarray(U))


def from_characteristic(Xi: np.ndarray, t: Transform) -> np.ndarray:
    return np.einsum("ij,j...->i...", t.P, np.asarray(Xi))


@dataclass
class DiagnosticReport:
    regime: Regime
    tol: float
    residuals: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _rel_residual(product: np.ndarray, target: np.ndarray) -> float:
    return float(np.abs(product - target).max() / np.abs(product).max())


def verify_diagonalization(p: PhysicalConstants, tol: float = 1e-10) -> DiagnosticReport:
    """Check the closed-form transforms against explicit matrix products.

    Hyperbolic case: P^T S0E1 P vs diag(a), P^T S0E2 P vs diag(b), and the
    similarity E2^{-1}E1 = P diag(lam) P^{-1} as E1 P vs E2 P diag(lam),
    which needs no solve with E2 (whose entries can span hundreds of
    decades) and holds for any column scaling of P.

    Elliptic case: the same congruences against the 2x2-block targets.
    All residuals are max-norm, relative to the product's own magnitude.
    Raises InvalidValue unless tol is a finite nonnegative real number.
    """
    if not is_real(tol):
        raise InvalidValue(f"tol must be a real number, got {tol!r}")
    if not 0.0 <= tol < np.inf:
        raise InvalidValue(f"tol must be nonnegative and finite, got {tol}")
    m, ff = coefficient_matrices(p), flux_forms(p)
    rep = DiagnosticReport(regime=p.regime, tol=tol)
    if p.regime is Regime.MIXED_SUBCRITICAL:
        t = elliptic_transform(p)
        tx = np.zeros((3, 3))
        tx[:2, :2] = t.blockX
        tx[2, 2] = t.zeta_speed[0]
        ty = np.zeros((3, 3))
        ty[:2, :2] = t.blockY
        ty[2, 2] = t.zeta_speed[1]
        rep.residuals["congruence_x"] = _rel_residual(t.P.T @ ff.S0E1 @ t.P, tx)
        rep.residuals["congruence_y"] = _rel_residual(t.P.T @ ff.S0E2 @ t.P, ty)
    else:
        t = hyperbolic_transform(p)
        rep.residuals["congruence_x"] = _rel_residual(t.P.T @ ff.S0E1 @ t.P, np.diag(t.a))
        rep.residuals["congruence_y"] = _rel_residual(t.P.T @ ff.S0E2 @ t.P, np.diag(t.b))
        rep.residuals["similarity"] = _rel_residual(m.E1 @ t.P, (m.E2 @ t.P) * t.lam)
    return rep
