"""The four benchmark workloads: seeded inputs, timed ops and their oracles.

Each workload is a closed loop with one caller.  A run is made of whole
rounds; a round is a fixed list of ops, so the mix of op kinds, and with it
the median op latency, does not depend on how many rounds fit in a run.  An
op's ``run`` is timed; its ``check`` is the oracle and is not timed.  Checks
raise ``CheckFailed`` (or any exception) on a wrong answer.

Only public ``swerect`` names are used.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

import swerect as sw
from swerect import cli

MASK64 = 0xFFFFFFFFFFFFFFFF


class CheckFailed(AssertionError):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def derive_seed(seed: int, *salt: int) -> int:
    """Independent SplitMix64 seed for (workload seed, salt...)."""
    s = seed & MASK64
    for v in salt:
        s = sw.SplitMix64((s ^ (v * 0x9E3779B97F4A7C15)) & MASK64).next_uint64()
    return s


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    work: float


@dataclass
class Workload:
    """Base: subclasses fill in setup(), ops() and the class constants."""

    seed: int
    workdir: str
    inputs: Dict[str, object] = field(default_factory=dict)

    name = ""
    work_unit = ""          # what one unit of `work` is, for the throughput metric
    trace_rounds = 1        # fixed amount of work for the traced run
    trace_blocks = 1        # traced and untraced blocks alternate

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, r: int) -> List[Op]:
        raise NotImplementedError

    def traced_counters(self, rounds: int) -> Dict[str, float]:
        return {}


# --- run_cli ---------------------------------------------------------------

FHS = (2.5, 2.5, 1.0, 9.81)
MSUB = (1.0, 1.0, 1.0, 9.81)


class RunCli(Workload):
    """`swerect run` on a generated config, then reading its CSVs back."""

    name = "run_cli"
    work_unit = "node_steps"
    n = 257
    steps = 200
    cadence = 100
    pool = 4
    trace_rounds = 2
    trace_blocks = 2

    def setup(self) -> None:
        p = sw.validate_params(*FHS)
        grid = sw.Grid(1.0, 1.0, self.n, self.n)
        dt_max = sw.cfl_dt(p, grid, 0.45)
        # just under steps * dt_max, so run() takes exactly `steps` steps
        t_end = (self.steps - 0.5) * dt_max
        configs = []
        for k in range(self.pool):
            path = os.path.join(self.workdir, f"run_cli_{k}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_config_text(FHS, self.n, t_end, derive_seed(self.seed, k),
                                      f"out{k}", self.cadence))
            configs.append((path, os.path.join(self.workdir, f"out{k}")))
        self.inputs = {"p": p, "grid": grid, "configs": configs}

    def ops(self, r: int) -> List[Op]:
        cfg, outdir = self.inputs["configs"][r % self.pool]
        p, grid = self.inputs["p"], self.inputs["grid"]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--config", cfg, "--out", self.workdir])
            x, y, state = sw.read_field_csv(os.path.join(outdir, "field_final.csv"))
            log = sw.read_energy_csv(os.path.join(outdir, "energy.csv"))
            return code, state, log

        def check(result):
            code, state, log = result
            require(code == 0, f"swerect run exited {code}")
            require(len(log) == self.steps + 1, f"{len(log)} energy rows, want {self.steps + 1}")
            rep = sw.contraction_check(log, tol=1e-12)
            require(rep.passed, f"energy grew by {rep.max_violation:.3e} at step {rep.worst_index}")
            e = sw.energy_value(state, grid, p)
            rel = abs(e - log.energies[-1]) / max(abs(log.energies[-1]), 1e-300)
            require(rel <= 1e-12, f"final-field energy differs from the log by {rel:.3e}")

        return [Op("run", run, check, float(self.n * self.n * self.steps))]


def _config_text(state, n, t_end, seed, outdir, cadence) -> str:
    u0, v0, phi0, g = state
    return (
        f"[physics]\nu0 = {u0!r}\nv0 = {v0!r}\nphi0 = {phi0!r}\ng = {g!r}\n"
        f"[grid]\nL1 = 1.0\nL2 = 1.0\nnx = {n}\nny = {n}\n"
        f"[run]\nt_end = {t_end!r}\ncfl = 0.45\nseed = {seed}\n"
        f"[output]\ndir = {outdir}\ncadence = {cadence}\n"
    )


# --- mms_ladder ------------------------------------------------------------


class MmsLadder(Workload):
    """mms_convergence on 33/65/129 in the fhs and msub regimes."""

    name = "mms_ladder"
    work_unit = "node_steps"
    base = 33
    levels = 3
    t_end = 0.25
    pool = 4

    def setup(self) -> None:
        grids = sw.refinement_ladder(sw.Grid(1.0, 1.0, self.base, self.base), self.levels)
        states = {"fhs": sw.validate_params(*FHS), "msub": sw.validate_params(*MSUB)}
        work = {}
        for kind, p in states.items():
            steps = [max(1, math.ceil(self.t_end / sw.cfl_dt(p, g, 0.45) - 1e-12)) for g in grids]
            work[kind] = float(sum(g.nx * g.ny * s for g, s in zip(grids, steps)))
        solutions = []
        for k in range(self.pool):
            rng = sw.SplitMix64(derive_seed(self.seed, k))
            phases = tuple(2.0 * math.pi * rng.next_double() for _ in range(3))
            solutions.append(sw.ManufacturedSolution(ph=phases))
        self.inputs = {"grids": grids, "states": states, "work": work, "solutions": solutions}

    def ops(self, r: int) -> List[Op]:
        sol = self.inputs["solutions"][r % self.pool]
        grids = self.inputs["grids"]
        out = []
        for kind, p in self.inputs["states"].items():
            def run(p=p):
                return sw.mms_convergence(p, grids, t_end=self.t_end, cfl=0.45, solution=sol)

            def check(rep, kind=kind):
                require(rep.passed(0.8, 1.3), f"{kind} orders {rep.orders} outside [0.8, 1.3]")
                require(rep.errors[-1] <= rep.errors[0] / 3.0,
                        f"{kind} finest error {rep.errors[-1]:.3e} > coarsest/3")

            out.append(Op(kind, run, check, self.inputs["work"][kind]))
        return out


# --- elliptic_sweep --------------------------------------------------------


class EllipticSweep(Workload):
    """Solves of T and T* on the msub elliptic pair at 65^2 and 129^2."""

    name = "elliptic_sweep"
    work_unit = "solves"
    sizes = (65, 129)
    pool = 3
    trace_rounds = 2
    trace_blocks = 2

    def setup(self) -> None:
        c = sw.swe_elliptic_block(sw.validate_params(*MSUB))
        per_grid = {}
        for n in self.sizes:
            seeded = []
            for k in range(self.pool):
                rng = sw.SplitMix64(derive_seed(self.seed, n, k))
                f = sw.band_limited_fields(rng, n, n, n_fields=4)
                seeded.append((sw.ThetaField(f[0], f[1]), sw.ThetaField(f[2], f[3])))
            per_grid[n] = (sw.Grid(1.0, 1.0, n, n), seeded)
        self.inputs = {"c": c, "per_grid": per_grid}

    def ops(self, r: int) -> List[Op]:
        """One op: on each grid, solve_T and solve_T_star on the manufactured
        forcing and on a seeded one, plus zero forcing on the coarse grid.
        A per-solve or per-grid median would sit on the edge between the two
        grid sizes, so the whole sweep is one op."""
        c = self.inputs["c"]
        coarse = self.sizes[0]

        def run():
            out = {}
            for n in self.sizes:
                grid, seeded = self.inputs["per_grid"][n]
                F_seed, Psi_seed = seeded[r % self.pool]
                res = out[n] = {}
                exact, F = sw.manufactured_solution_T(c, grid)
                theta = sw.solve_T(F, c, grid)
                # cross_gradient_residual is part of the op: users run it to
                # verify a solution, and it is one of the elliptic layer's spans
                res["T"] = (exact, theta, sw.cross_gradient_residual(theta, grid))
                exact, Psi = sw.manufactured_solution_T_star(c, grid)
                res["T*"] = (exact, sw.solve_T_star(Psi, c, grid))
                theta = sw.solve_T(F_seed, c, grid)
                res["T seeded"] = (theta, sw.cross_gradient_residual(theta, grid))
                res["T* seeded"] = sw.solve_T_star(Psi_seed, c, grid)
                if n == coarse:
                    zero = sw.ThetaField.zeros(grid)
                    res["zero"] = (sw.solve_T(zero, c, grid), sw.solve_T_star(zero, c, grid))
            return out

        def check(out):
            errors = {}
            for n in self.sizes:
                grid, res = self.inputs["per_grid"][n][0], out[n]
                for theta, residual in (res["T"][1:], res["T seeded"]):
                    scale = max(sw.theta_norm(theta, grid) ** 2, 1.0)
                    require(residual <= 1e-12 * scale,
                            f"cross-gradient residual {residual:.3e} at {n}")
                for key in ("T", "T*"):
                    exact, got = res[key][:2]
                    d = sw.ThetaField(got.theta1 - exact.theta1, got.theta2 - exact.theta2)
                    errors[key, n] = sw.theta_norm(d, grid)
                    if n != coarse:
                        order = math.log2(errors[key, coarse] / errors[key, n])
                        require(order >= 1.0, f"solve_{key} manufactured order {order:.3f} < 1")
                # discrete duality <T theta, psi> = <theta, T* psi> holds exactly
                # for theta in V and psi in the adjoint domain
                theta, psi = res["T seeded"][0], res["T* seeded"]
                lhs = sw.theta_inner(sw.apply_T(theta, c, grid), psi, grid)
                rhs = sw.theta_inner(theta, sw.apply_T_star(psi, c, grid), grid)
                require(abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0),
                        f"duality defect {abs(lhs - rhs):.3e} at {n}")
                for got in res.get("zero", ()):
                    worst = max(np.max(np.abs(got.theta1)), np.max(np.abs(got.theta2)))
                    require(worst <= 1e-12, f"zero forcing gave |theta| = {worst:.3e}")

        return [Op("sweep", run, check, 4.0 * len(self.sizes) + 2.0)]


# --- verify_draws ----------------------------------------------------------

REGIMES = {
    "super": sw.Regime.SUPERCRITICAL,
    "mix1": sw.Regime.MIXED_HYPERBOLIC_I,
    "mix2": sw.Regime.MIXED_HYPERBOLIC_II,
    "fhs": sw.Regime.FULLY_HYPERBOLIC_SUBCRITICAL,
    "msub": sw.Regime.MIXED_SUBCRITICAL,
}


def draw_state(kind: str, rng: sw.SplitMix64):
    """Raw (u0, v0, phi0, g) of the requested regime, with speeds placed
    relative to c = sqrt(g*phi0) far outside the genericity tolerance."""
    phi0 = 0.5 + 1.5 * rng.next_double()
    g = 5.0 + 10.0 * rng.next_double()
    c = math.sqrt(g * phi0)
    sup = lambda: c * (1.05 + 1.45 * rng.next_double())  # noqa: E731
    sub = lambda: c * (0.2 + 0.7 * rng.next_double())    # noqa: E731
    if kind == "super":
        u, v = sup(), sup()
    elif kind == "mix1":
        u, v = sub(), sup()
    elif kind == "mix2":
        u, v = sup(), sub()
    elif kind == "fhs":
        u, v = c * (0.75 + 0.24 * rng.next_double()), c * (0.75 + 0.24 * rng.next_double())
    else:
        u, v = c * (0.2 + 0.45 * rng.next_double()), c * (0.2 + 0.45 * rng.next_double())
    return u, v, phi0, g


class VerifyDraws(Workload):
    """Per-draw regime, algebra and boundary-catalog checks in all regimes.

    An op checks a batch of `batch` seeded draws in each regime, as the
    acceptance checks do over their thousands of draws.  A single draw is
    under a millisecond, and the host's speed changes in states that last
    seconds; an op of about two seconds averages over them, so the median
    op of a run stays near its mean."""

    name = "verify_draws"
    work_unit = "draws"
    batch = 500
    trace_rounds = 2
    trace_blocks = 2

    def setup(self) -> None:
        pass  # each round draws its states from (seed, round)

    def ops(self, r: int) -> List[Op]:
        rng = sw.SplitMix64(derive_seed(self.seed, r))
        raws = [(kind, draw_state(kind, rng)) for _ in range(self.batch) for kind in REGIMES]

        def run():
            return [(kind, _verify(raw)) for kind, raw in raws]

        def check(results):
            for kind, result in results:
                _check_draw(kind, result)

        return [Op("batch", run, check, float(len(raws)))]

    def traced_counters(self, rounds: int) -> Dict[str, float]:
        return {"verify.draws_per_regime": rounds * self.batch}


def _verify(raw):
    p = sw.validate_params(*raw)
    regime = sw.classify(p)
    diag = sw.verify_diagonalization(p)
    t = sw.hyperbolic_transform(p) if regime is not sw.Regime.MIXED_SUBCRITICAL else None
    counts = sw.incoming_count_check(p, regime)
    forms = [sw.boundary_quadratic_forms(p, regime, adjoint=adj) for adj in (False, True)]
    return p, regime, diag, t, counts, forms


def _check_draw(kind, result) -> None:
    p, regime, diag, t, counts, forms = result
    require(regime is REGIMES[kind], f"{kind} draw classified as {regime}")
    require(diag.max_residual <= 1e-10, f"diagonalization residual {diag.max_residual:.3e}")
    if t is not None:
        a, b = t.a, t.b
        require(a[0] > 0 and a[2] > 0 and b[1] > 0 and b[2] > 0
                and np.sign(a[1]) == np.sign(p.u0**2 - p.g * p.phi0)
                and np.sign(b[0]) == np.sign(p.v0**2 - p.g * p.phi0),
                f"{kind} sign laws fail for {p}")
    require(counts.passed, f"incoming counts {counts.counts} vs {counts.expected}")
    worst = min((float(f.eigenvalues.min()) for fs in forms for f in fs.values()
                 if f.eigenvalues.size), default=0.0)
    require(worst >= -1e-12, f"restricted boundary form eigenvalue {worst:.3e}")


WORKLOADS = {w.name: w for w in (RunCli, MmsLadder, EllipticSweep, VerifyDraws)}
