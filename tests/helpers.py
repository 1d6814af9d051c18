"""Shared fixtures: reference states, seeded parameter draws, smooth fields
satisfying the boundary catalogs analytically (used by the duality and
enforcement tests), and reference implementations of the kernels, the
stepper and the field CSV I/O that the package must reproduce exactly."""

import math
from dataclasses import replace

import numpy as np

import swerect as sw
from swerect.algebra import coefficient_matrices
from swerect.boundary import Side
from swerect.errors import InvalidValue, IoError
from swerect.fields import StateField
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
    u0, v0, g, k1 = p.u0, p.v0, p.g, p.kappa
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


# the regime, Delta and kappa as the package computed them before validation
# kept its own results: one function each, recomputing from (u0, v0, phi0, g)
def reference_delta(p):
    """Discriminant u0^2 + v0^2 - g*phi0; its sign separates the transforms."""
    return p.u0**2 + p.v0**2 - p.g * p.phi0


def reference_classify(p):
    """Unique regime of a validated base state (no errors: boundaries already excluded)."""
    gp = p.g * p.phi0
    x_sup = p.u0**2 > gp
    y_sup = p.v0**2 > gp
    if x_sup and y_sup:
        return sw.Regime.SUPERCRITICAL
    if (not x_sup) and y_sup:
        return sw.Regime.MIXED_HYPERBOLIC_I
    if x_sup and not y_sup:
        return sw.Regime.MIXED_HYPERBOLIC_II
    if reference_delta(p) > 0:
        return sw.Regime.FULLY_HYPERBOLIC_SUBCRITICAL
    return sw.Regime.MIXED_SUBCRITICAL


def reference_kappa0(p):
    """sqrt(g*Delta/phi0), defined only for Delta > 0."""
    d = reference_delta(p)
    if d <= 0:
        raise sw.NotHyperbolic(f"kappa0 requires Delta > 0, got Delta = {d}")
    return math.sqrt(p.g * d / p.phi0)


def reference_kappa1(p):
    """sqrt(-g*Delta/phi0), defined only for Delta < 0."""
    d = reference_delta(p)
    if d >= 0:
        raise sw.NotElliptic(f"kappa1 requires Delta < 0, got Delta = {d}")
    return math.sqrt(-p.g * d / p.phi0)


def reference_independent_rows(rows):
    """The enforcement row rule as written before the enforcement plans and
    the elliptic assembly shared `algebra.independent_rows`: the indices of
    the rows that, in order, raise the rank of the rows kept before them."""
    kept = []
    cur = np.zeros((0, 3))
    for i in range(rows.shape[0]):
        trial = np.vstack([cur, rows[i]])
        if np.linalg.matrix_rank(trial) > cur.shape[0]:
            kept.append(i)
            cur = trial
    return kept


def reference_entering_rows(p, s):
    """`boundary._entering_rows` as written before its sign law read
    `tolist()` floats; the catalogs must keep these rows bit for bit."""
    t = sw.hyperbolic_transform(p)
    speeds = (t.a, t.b)
    out = {}
    for side in sw.boundary.SIDES:
        m = side.outward * s * speeds[side.axis] < 0
        out[side] = np.eye(3) if m.all() else t.Pinv[m]
    return out


def _reference_null_basis(rows):
    if rows.shape[0] == 0:
        return np.eye(3)
    _, s, vt = np.linalg.svd(rows)
    tol = max(rows.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int((s > tol).sum())
    return vt[rank:].T


def reference_boundary_quadratic_forms(p, regime, adjoint=False):
    """`operator.boundary_quadratic_forms` as written before it shared the
    per-state flux forms and each side's spectrum: {side: eigenvalues},
    with the hyperbolic catalogs built by `reference_entering_rows`."""
    m = coefficient_matrices(p)
    flux = (0.5 * (m.S0 @ m.E1), 0.5 * (m.S0 @ m.E2))
    orient = -1.0 if adjoint else 1.0
    if regime is sw.Regime.MIXED_SUBCRITICAL:
        rows = (sw.adjoint_bc_catalog if adjoint else sw.bc_catalog)(p).rows
    else:
        rows = reference_entering_rows(p, orient)
    out = {}
    for side in sw.boundary.SIDES:
        form = side.outward * orient * flux[side.axis]
        F = 0.5 * (form + form.T)
        basis = _reference_null_basis(rows[side])
        R = basis.T @ (F / float(np.abs(F).max())) @ basis
        R = 0.5 * (R + R.T)
        out[side] = np.linalg.eigvalsh(R) if R.size else np.empty(0)
    return out


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
                sides.append(Side.WEST)
            if i == nx - 1:
                sides.append(Side.EAST)
            if j == 0:
                sides.append(Side.SOUTH)
            if j == ny - 1:
                sides.append(Side.NORTH)
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


def reference_solve(F, c, grid, bc_rows, sign):
    """The elliptic solve before the nested-dissection order: `spsolve` with
    its default COLAMD order on `elliptic._assemble`'s system, as assembled."""
    import scipy.sparse.linalg as spla

    from swerect.elliptic import _assemble

    A, rhs, _ = _assemble(F, c, grid, bc_rows, sign)
    sol = spla.spsolve(A, rhs)
    N = grid.nx * grid.ny
    return sw.ThetaField(sol[:N].reshape(grid.nx, grid.ny), sol[N:].reshape(grid.nx, grid.ny))


# The two one-sided differences and the two upwind bodies the shared kernel
# of `operator.DiscreteOperator` must reproduce bit for bit: unscaled
# differences, the split parts divided by the grid spacing, and one
# (3, 3) x (3, nx*ny) matrix product per term.  `former_apply_stack` is the
# formula before 1/h moved into the matrices, which the kernel must match
# to round-off.


def _dminus(W: np.ndarray, axis: int, h: float = 1.0) -> np.ndarray:
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


def _dplus(W: np.ndarray, axis: int, h: float = 1.0) -> np.ndarray:
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
    # matmul reports the flags of its products; the kernel ignores them too
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(M, W.reshape(3, -1)).reshape(W.shape)


def _upwind_sum(mats, W):
    Mxb, Mxf, Myb, Myf = mats
    return (
        _mul(Mxb, _dminus(W, 1)) + _mul(Mxf, _dplus(W, 1))
        + _mul(Myb, _dminus(W, 2)) + _mul(Myf, _dplus(W, 2))
    )


def reference_apply_stack(op, W):
    dx, dy = op.grid.dx, op.grid.dy
    return _upwind_sum((op.E1p / dx, op.E1m / dx, op.E2p / dy, op.E2m / dy), W)


def reference_apply_adjoint_stack(op, V):
    dx, dy = op.grid.dx, op.grid.dy
    # (-E1)^± = -(E1^∓): transport reverses, upwind orientation flips
    return _upwind_sum((-op.E1m / dx, -op.E1p / dx, -op.E2m / dy, -op.E2p / dy), V)


def _einsum(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    return np.einsum("ab,bij->aij", M, W)


def former_apply_stack(op, W, adjoint=False):
    """A_h W (or A*_h W) as differences divided by h, then one einsum per term."""
    g = op.grid
    if adjoint:
        Mxb, Mxf, Myb, Myf = -op.E1m, -op.E1p, -op.E2m, -op.E2p
    else:
        Mxb, Mxf, Myb, Myf = op.E1p, op.E1m, op.E2p, op.E2m
    return (
        _einsum(Mxb, _dminus(W, 1, g.dx)) + _einsum(Mxf, _dplus(W, 1, g.dx))
        + _einsum(Myb, _dminus(W, 2, g.dy)) + _einsum(Myf, _dplus(W, 2, g.dy))
    )


def run_with_snapshots(cfg):
    """sw.run(cfg) and the (t, state) pairs it hands to on_snapshot, in order."""
    snapshots = []
    return sw.run(replace(cfg, on_snapshot=lambda t, s: snapshots.append((t, s)))), snapshots


# The stepper stage arithmetic, CSV writer and CSV reader as they were before
# the stepper and the field files switched to reused buffers and streaming:
# the current code must reproduce them bit for bit and byte for byte.


def reference_rhs(stepper, W, t):
    R = -reference_apply_stack(stepper.op, W)
    if stepper.f != 0.0:
        R[0] += stepper.f * W[1]
        R[1] -= stepper.f * W[0]
    if stepper.cfg.forcing is not None:
        R += stepper.cfg.forcing(t)
    return R


def reference_advance(stepper, W, dt, t):
    """One step of `evolve._Stepper` with a fresh array for every stage."""
    if stepper.cfg.scheme == "euler":
        return stepper.enforce(W + dt * reference_rhs(stepper, W, t), t + dt)
    K1 = reference_rhs(stepper, W, t)
    W1 = stepper.enforce(W + dt * K1, t + dt)
    K2 = reference_rhs(stepper, W1, t + dt)
    return stepper.enforce(0.5 * (W + W1 + dt * K2), t + dt)


FIELD_HEADER = "x,y,u,v,phi"


def _fmt(value, precision):
    return f"{value:.{precision}g}"


def reference_write_field_csv(x, y, state, path, precision=17):
    """Write a state on the tensor grid ``x`` (outer) by ``y`` (inner)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if state.u.shape != (x.size, y.size):
        raise InvalidValue(
            f"field shape {state.u.shape} does not match grid ({x.size}, {y.size})"
        )
    lines = [FIELD_HEADER]
    for i in range(x.size):
        xi = _fmt(x[i], precision)
        for j in range(y.size):
            lines.append(
                ",".join(
                    (
                        xi,
                        _fmt(y[j], precision),
                        _fmt(state.u[i, j], precision),
                        _fmt(state.v[i, j], precision),
                        _fmt(state.phi[i, j], precision),
                    )
                )
            )
    _write_text(path, "\n".join(lines) + "\n")


def reference_read_field_csv(path):
    text = _read_text(path)
    lines = text.splitlines()
    if not lines or lines[0].strip() != FIELD_HEADER:
        raise IoError(f"'{path}': expected header '{FIELD_HEADER}'")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise IoError(f"'{path}' line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise IoError(f"'{path}' line {lineno}: malformed number") from None
        if not all(map(math.isfinite, row)):
            raise IoError(f"'{path}' line {lineno}: non-finite value")
        rows.append(row)
    if not rows:
        raise IoError(f"'{path}': no data rows")
    data = np.array(rows, dtype=float)
    x, x_first = np.unique(data[:, 0], return_index=True)
    x = data[np.sort(x_first), 0]  # preserve file order
    y, y_first = np.unique(data[:, 1], return_index=True)
    y = data[np.sort(y_first), 1]
    nx, ny = x.size, y.size
    if nx * ny != data.shape[0]:
        raise IoError(f"'{path}': {data.shape[0]} rows do not fill a {nx}x{ny} grid")
    if not (np.array_equal(data[:, 0], np.repeat(x, ny))
            and np.array_equal(data[:, 1], np.tile(y, nx))):
        raise IoError(f"'{path}': rows are not in x-major order (all y for each x)")
    u = data[:, 2].reshape(nx, ny)
    v = data[:, 3].reshape(nx, ny)
    phi = data[:, 4].reshape(nx, ny)
    return x, y, StateField(u, v, phi)


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write '{path}': {exc}") from None


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read '{path}': {exc}") from None
