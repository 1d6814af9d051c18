"""Shared fixtures: reference states, seeded parameter draws, and smooth
fields satisfying the boundary catalogs analytically (used by the duality
and enforcement tests)."""

import numpy as np

import swerect as sw
from swerect.boundary import Side
from swerect.rng import SplitMix64

W, E, S, N = Side.WEST, Side.EAST, Side.SOUTH, Side.NORTH

# one generic representative per regime: (u0, v0, phi0, g)
REGIME_CASES = {
    "super": (4.0, 4.0, 1.0, 9.81),
    "mix1": (2.0, 4.0, 1.0, 9.81),
    "mix2": (4.0, 2.0, 1.0, 9.81),
    "fhs": (2.5, 2.5, 1.0, 9.81),
    "msub": (1.0, 1.0, 1.0, 9.81),
}

REGIME_NAMES = {
    "super": "Supercritical",
    "mix1": "MixedHyperbolicI",
    "mix2": "MixedHyperbolicII",
    "fhs": "FullyHyperbolicSubcritical",
    "msub": "MixedSubcritical",
}


def params(kind):
    return sw.validate_params(*REGIME_CASES[kind])


def draw_params(kind, rng: SplitMix64):
    """One random valid state of the requested regime.

    Speeds are placed relative to c = sqrt(g*phi0) with margins far above
    the genericity tolerance, so every draw classifies deterministically.
    """
    phi0 = 0.5 + 1.5 * rng.next_double()
    g = 5.0 + 10.0 * rng.next_double()
    c = np.sqrt(g * phi0)
    r = rng.next_double
    if kind == "super":
        u, v = c * (1.05 + 1.45 * r()), c * (1.05 + 1.45 * r())
    elif kind == "mix1":
        u, v = c * (0.2 + 0.7 * r()), c * (1.05 + 1.45 * r())
    elif kind == "mix2":
        u, v = c * (1.05 + 1.45 * r()), c * (0.2 + 0.7 * r())
    elif kind == "fhs":
        u, v = c * (0.75 + 0.24 * r()), c * (0.75 + 0.24 * r())
    elif kind == "msub":
        u, v = c * (0.2 + 0.45 * r()), c * (0.2 + 0.45 * r())
    else:
        raise ValueError(kind)
    return sw.validate_params(u, v, phi0, g)


# which sides each characteristic component must vanish on, so that the
# resulting state satisfies the catalog rows identically
OP_CHAR_SIDES = {
    "super": {0: (W, S), 1: (W, S), 2: (W, S)},
    "mix1": {0: (W, S), 1: (E, S), 2: (W, S)},
    "mix2": {0: (W, N), 1: (W, S), 2: (W, S)},
    "fhs": {0: (W, N), 1: (E, S), 2: (W, S)},
    "msub": {0: (W, S), 1: (E, N), 2: (W, S)},
}
ADJ_CHAR_SIDES = {
    "super": {0: (E, N), 1: (E, N), 2: (E, N)},
    "mix1": {0: (E, N), 1: (W, N), 2: (E, N)},
    "mix2": {0: (E, S), 1: (E, N), 2: (E, N)},
    "fhs": {0: (E, S), 1: (W, N), 2: (E, N)},
}


def vanish(side, X, Y, grid):
    if side is W:
        return np.sin(0.5 * np.pi * X / grid.l1)
    if side is E:
        return np.cos(0.5 * np.pi * X / grid.l1)
    if side is S:
        return np.sin(0.5 * np.pi * Y / grid.l2)
    return np.cos(0.5 * np.pi * Y / grid.l2)


_BASES = (
    lambda X, Y: np.sin(1.9 * X + 0.3) * np.cos(1.1 * Y + 0.7) + 1.5,
    lambda X, Y: np.cos(0.8 * X - 0.2) * np.sin(1.4 * Y + 0.1) + 1.2,
    lambda X, Y: np.sin(1.2 * X + 1.0) * np.sin(0.9 * Y + 0.4) + 1.1,
)


def _char_field(sides_map, transform, grid):
    X, Y = grid.meshgrid()
    Xi = np.empty((3, grid.nx, grid.ny))
    for i in range(3):
        f = _BASES[i](X, Y)
        for s in sides_map[i]:
            f = f * vanish(s, X, Y, grid)
        Xi[i] = f
    return sw.from_characteristic(Xi, transform)


def msub_compatible_pair(p, grid):
    """Forward/adjoint in-catalog states for the mixed subcritical regime.

    Forward: the shear and potential combinations vanish on W+S, phi on E+N.
    Adjoint: near each side the (xi, eta) pair is forced parallel to the
    one-dimensional subspace the adjoint rows leave free there; the four
    envelope functions each survive on exactly one side.
    """
    t = sw.elliptic_transform(p)
    X, Y = grid.meshgrid()
    u0, v0, g, k1 = p.u0, p.v0, p.g, t.kappa1
    ws = vanish(W, X, Y, grid) * vanish(S, X, Y, grid)
    en = vanish(E, X, Y, grid) * vanish(N, X, Y, grid)
    Xi = np.stack([_BASES[0](X, Y) * ws, _BASES[1](X, Y) * en, _BASES[2](X, Y) * ws])
    U = sw.from_characteristic(Xi, t)

    gW = np.cos(0.5 * np.pi * X / grid.l1) * np.sin(np.pi * Y / grid.l2)
    gE = np.sin(0.5 * np.pi * X / grid.l1) * np.sin(np.pi * Y / grid.l2)
    gS = np.sin(np.pi * X / grid.l1) * np.cos(0.5 * np.pi * Y / grid.l2)
    gN = np.sin(np.pi * X / grid.l1) * np.sin(0.5 * np.pi * Y / grid.l2)
    xi1 = gW * u0 * k1 + gE * g * v0 / k1 + gS * v0 * k1 + gN * g * u0 / k1
    xi2 = gW * g * v0 - gE * u0 - gS * g * u0 + gN * v0
    xi3 = _BASES[2](X, Y) * en
    V = sw.from_characteristic(np.stack([xi1, xi2, xi3]), t)
    return U, V


def compatible_pair(kind, p, grid):
    """(U, V) stacks satisfying the forward resp. adjoint catalog exactly."""
    if kind == "msub":
        return msub_compatible_pair(p, grid)
    t = sw.hyperbolic_transform(p)
    return (_char_field(OP_CHAR_SIDES[kind], t, grid),
            _char_field(ADJ_CHAR_SIDES[kind], t, grid))


def boundary_row_residual(U, spec, grid):
    """Worst |rows . U| over the four sides (0 for catalog-satisfying U)."""
    sel = {W: (0, slice(None)), E: (-1, slice(None)),
           S: (slice(None), 0), N: (slice(None), -1)}
    worst = 0.0
    for side, rows in spec.rows.items():
        if rows.shape[0] == 0:
            continue
        vals = np.einsum("kc,cn->kn", rows, U[(slice(None),) + sel[side]])
        worst = max(worst, float(np.max(np.abs(vals))))
    return worst


def duality_residual(p, grid, U, V):
    """|<A_h U, V> - <U, A*_h V>| / (|U| |V|), all in the energy product."""
    from swerect.fields import StateField, inner_product
    from swerect.operator import DiscreteOperator

    op = DiscreteOperator(p, grid)
    sU, sV = StateField.from_stack(U), StateField.from_stack(V)
    lhs = inner_product(StateField.from_stack(op.apply_stack(U)), sV, grid, p.g, p.phi0)
    rhs = inner_product(sU, StateField.from_stack(op.apply_adjoint_stack(V)), grid, p.g, p.phi0)
    nU = np.sqrt(inner_product(sU, sU, grid, p.g, p.phi0))
    nV = np.sqrt(inner_product(sV, sV, grid, p.g, p.phi0))
    return abs(lhs - rhs) / (nU * nV)


def state_error(a, b, grid, p):
    from swerect.fields import StateField

    d = StateField(a.u - b.u, a.v - b.v, a.phi - b.phi)
    return float(np.sqrt(sw.energy_value(d, grid, p)))


def boundary_flat_theta(grid, scale=400.0):
    """theta1 = theta2 = psi with psi, grad psi = 0 on East+North and
    psi = 0 on West+South; used where the cross-derivative identities need
    data that is flat at the outflow boundary."""
    from swerect.elliptic import ThetaField

    X, Y = grid.meshgrid()
    l1, l2 = grid.l1, grid.l2
    s = scale / (l1**5 * l2**5)
    psi = s * X**2 * (l1 - X) ** 3 * Y**2 * (l2 - Y) ** 3
    return ThetaField(psi.copy(), psi.copy())


def _reference_stencil(i, n, d):
    if i == 0:
        return ((0, -1.0 / d), (1, 1.0 / d))
    if i == n - 1:
        return ((-1, -1.0 / d), (0, 1.0 / d))
    return ((-1, -0.5 / d), (1, 0.5 / d))


def reference_assemble(F, c, grid, bc_rows, sign):
    """The per-node assembly loop the vectorized `elliptic._assemble` must
    reproduce bit for bit: (A as CSR, rhs, boolean equation-row mask)."""
    import scipy.sparse as sp

    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    N = nx * ny
    T1, T2 = c.T1, c.T2

    rows, cols, vals = [], [], []
    rhs = np.zeros(2 * N)
    eq_rows = []  # indices of retained equation rows, for the residual check

    def idx(comp, i, j):
        return comp * N + i * ny + j

    r = 0
    for i in range(nx):
        for j in range(ny):
            sides = []
            if i == 0:
                sides.append("W")
            if i == nx - 1:
                sides.append("E")
            if j == 0:
                sides.append("S")
            if j == ny - 1:
                sides.append("N")
            C = np.array([bc_rows[s] for s in sides]).reshape(-1, 2)
            keep = []
            for k in range(C.shape[0]):
                if np.linalg.matrix_rank(C[keep + [k]]) > len(keep):
                    keep.append(k)
            C = C[keep]
            for crow in C:
                rows.extend((r, r))
                cols.extend((idx(0, i, j), idx(1, i, j)))
                vals.extend((crow[0], crow[1]))
                r += 1  # homogeneous: rhs stays 0
            n_free = 2 - C.shape[0]
            if n_free == 0:
                continue
            if C.shape[0] == 0:
                free_dirs = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            else:
                # retain the residual component orthogonal to the constraint
                cn = C[0] / np.linalg.norm(C[0])
                free_dirs = (np.array([-cn[1], cn[0]]),)
            for e in free_dirs:
                cx = sign * (e @ T1)
                cy = sign * (e @ T2)
                for off, w in _reference_stencil(i, nx, dx):
                    rows.extend((r, r))
                    cols.extend((idx(0, i + off, j), idx(1, i + off, j)))
                    vals.extend((cx[0] * w, cx[1] * w))
                for off, w in _reference_stencil(j, ny, dy):
                    rows.extend((r, r))
                    cols.extend((idx(0, i, j + off), idx(1, i, j + off)))
                    vals.extend((cy[0] * w, cy[1] * w))
                rhs[r] = e[0] * F.theta1[i, j] + e[1] * F.theta2[i, j]
                eq_rows.append(r)
                r += 1

    A = sp.csr_matrix((vals, (rows, cols)), shape=(2 * N, 2 * N))
    eq_mask = np.zeros(2 * N, dtype=bool)
    eq_mask[eq_rows] = True
    return A, rhs, eq_mask


# The two one-sided differences and the two upwind bodies the shared kernel
# of `operator.DiscreteOperator` must reproduce bit for bit.


def _dminus(W: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Backward difference, one-sided (forward) at the low end."""
    d = np.empty_like(W)
    lo = [slice(None)] * W.ndim
    hi = [slice(None)] * W.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    diff = (W[tuple(hi)] - W[tuple(lo)]) / h
    tgt = [slice(None)] * W.ndim
    tgt[axis] = slice(1, None)
    d[tuple(tgt)] = diff
    tgt[axis] = slice(0, 1)
    src = [slice(None)] * W.ndim
    src[axis] = slice(0, 1)
    d[tuple(tgt)] = diff[tuple(src)]
    return d


def _dplus(W: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Forward difference, one-sided (backward) at the high end."""
    d = np.empty_like(W)
    lo = [slice(None)] * W.ndim
    hi = [slice(None)] * W.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    diff = (W[tuple(hi)] - W[tuple(lo)]) / h
    tgt = [slice(None)] * W.ndim
    tgt[axis] = slice(None, -1)
    d[tuple(tgt)] = diff
    tgt[axis] = slice(-1, None)
    src = [slice(None)] * W.ndim
    src[axis] = slice(-1, None)
    d[tuple(tgt)] = diff[tuple(src)]
    return d


def _mul(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    return np.einsum("ab,bij->aij", M, W)


def reference_apply_stack(op, W):
    g = op.grid
    dxm = _dminus(W, 1, g.dx)
    dxp = _dplus(W, 1, g.dx)
    dym = _dminus(W, 2, g.dy)
    dyp = _dplus(W, 2, g.dy)
    return (
        _mul(op.E1p, dxm) + _mul(op.E1m, dxp)
        + _mul(op.E2p, dym) + _mul(op.E2m, dyp)
    )


def reference_apply_adjoint_stack(op, V):
    g = op.grid
    dxm = _dminus(V, 1, g.dx)
    dxp = _dplus(V, 1, g.dx)
    dym = _dminus(V, 2, g.dy)
    dyp = _dplus(V, 2, g.dy)
    # (-E1)^± = -(E1^∓): transport reverses, upwind orientation flips
    return (
        _mul(-op.E1m, dxm) + _mul(-op.E1p, dxp)
        + _mul(-op.E2m, dym) + _mul(-op.E2p, dyp)
    )
