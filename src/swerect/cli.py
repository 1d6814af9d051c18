"""Command-line driver.

Exit codes: 0 success / verification passed, 1 verification failed or the
computation broke down, 2 usage or configuration error.  Diagnostics go to
stderr; results to stdout.  A nonzero exit's first stderr line is
"error: ..." or "<name>: FAIL".  All output paths resolve relative to --out.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
from typing import List, Optional

import numpy as np

from . import elliptic
from .algebra import verify_diagonalization
from .boundary import SIDES, adjoint_bc_catalog, bc_catalog, incoming_count_check
from .config import build_run_config, load_config
from .errors import (
    DegenerateCase,
    InvalidValue,
    IoError,
    MissingKey,
    NotElliptic,
    NotHyperbolic,
    ParseError,
    RegimeMismatch,
    ShapeMismatch,
    SweRectError,
    UnknownKey,
)
from .evolve import mms_convergence, refinement_ladder, run
from .fields import StateField
from .io_csv import write_energy_csv, write_field_csv
from .operator import positivity_probe
from .regime import validate_params
from .rng import check_seed

_USAGE_ERRORS = (
    ParseError,
    MissingKey,
    UnknownKey,
    InvalidValue,
    DegenerateCase,
    RegimeMismatch,
    NotHyperbolic,
    NotElliptic,
    ShapeMismatch,
    IoError,
)


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _make_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create directory '{path}': {exc}") from None
    return path


def _check_out_dir(path: str) -> str:
    """Refuse, creating nothing, a directory whose deepest existing ancestor is not one."""
    parent = os.path.abspath(path)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise IoError(f"cannot create directory '{path}': Not a directory: '{parent}'")
    return path


def _verdict(name: str, passed: bool) -> int:
    if passed:
        print(f"{name}: PASS")
        return 0
    print(f"{name}: FAIL", file=sys.stderr)
    return 1


def _cmd_classify(args) -> int:
    p = validate_params(args.u0, args.v0, args.phi0, args.g, args.f)
    print(p.regime)
    print(f"kappa{'1' if p.delta < 0 else '0'} = {p.kappa:.12g}")
    for title, spec in (("forward", bc_catalog(p)), ("adjoint", adjoint_bc_catalog(p))):
        print(f"boundary rows ({title}):")
        for side in SIDES:
            txt = "; ".join("[" + ", ".join(f"{v:.6g}" for v in r) + "]" for r in spec.rows[side])
            print(f"  {side.value}: {txt or '(none)'}")
    return 0


def _cmd_verify_algebra(args) -> int:
    doc = load_config(args.config)
    p = doc.constants()
    report = verify_diagonalization(p, tol=args.tol)
    counts = incoming_count_check(p, p.regime)
    for name, res in sorted(report.residuals.items()):
        print(f"{name}: {res:.3e}")
    print(f"incoming counts (W,E,S,N): {counts.counts} expected {counts.expected}")
    return _verdict("verify-algebra", report.passed and counts.passed)


def _cmd_probe_positivity(args) -> int:
    check_seed(args.seed, "--seed")
    doc = load_config(args.config)
    p = doc.constants()
    report = positivity_probe(p, doc.make_grid(), args.samples, args.seed)
    print(f"min quotient {report.min_quotient:.6e} over {report.n_samples} samples "
          f"(threshold {report.threshold:.6e})")
    return _verdict("probe-positivity", report.passed)


def _cmd_solve_elliptic(args) -> int:
    doc = load_config(args.config)
    p = doc.constants()
    c = elliptic.swe_elliptic_block(p)
    if args.mms:
        errs, order = elliptic.manufactured_convergence_T(c, doc.make_grid())
        print(f"errors: {errs[0]:.6e} -> {errs[1]:.6e}, order {order:.3f}")
        return _verdict("solve-elliptic --mms", order >= 1.0)
    grid = doc.make_grid()
    if args.out is not None:
        _check_out_dir(os.path.join(args.out, doc.output_dir))
    exact, F = elliptic.manufactured_solution_T(c, grid)
    theta = elliptic.solve_T(F, c, grid)
    apr = elliptic.apriori_check(theta, c, grid)
    print(f"solved {grid.nx}x{grid.ny}; |grad| {apr.grad_norm:.6e}, "
          f"|T theta| {apr.T_norm:.6e}, bounds ok: {apr.passed}")
    if args.out is not None:
        outdir = _make_dir(os.path.join(args.out, doc.output_dir))
        as_state = StateField(theta.theta1, theta.theta2, np.zeros_like(theta.theta1))
        write_field_csv(grid.x, grid.y, as_state, os.path.join(outdir, "theta.csv"),
                        precision=doc.precision)
    return _verdict("solve-elliptic", apr.passed)


def _cmd_run(args) -> int:
    doc = load_config(args.config)
    cfg = build_run_config(doc)
    outdir = _check_out_dir(os.path.join(args.out, doc.output_dir))
    grid = cfg.grid
    names: List[str] = []

    def write_snapshot(t: float, state: StateField) -> None:
        # the directory comes with the first snapshot: a run refused at
        # set-up creates nothing
        if not names:
            _make_dir(outdir)
        names.append(os.path.join(outdir, f"field_{len(names):06d}.csv"))
        write_field_csv(grid.x, grid.y, state, names[-1], precision=doc.precision)

    cfg.on_snapshot = write_snapshot
    result = run(cfg)
    _make_dir(outdir)
    final = os.path.join(outdir, "field_final.csv")
    if names:
        # run() always snapshots the last step: the final field is its copy
        try:
            shutil.copyfile(names[-1], final)
        except OSError as exc:
            raise IoError(f"cannot write '{final}': {exc}") from None
    else:
        write_field_csv(grid.x, grid.y, result.final, final, precision=doc.precision)
    write_energy_csv(result.log, os.path.join(outdir, "energy.csv"),
                     precision=doc.precision)
    print(f"ran {result.n_steps} steps (dt={result.dt:.6g}); "
          f"final energy {result.log.energies[-1]:.12g}")
    return 0


def _cmd_mms_convergence(args) -> int:
    doc = load_config(args.config)
    p = doc.constants()
    grids = refinement_ladder(doc.make_grid(), args.levels)
    report = mms_convergence(p, grids, t_end=doc.t_end, cfl=doc.cfl,
                             scheme=doc.scheme)
    for (nx, ny), err in zip(report.nodes, report.errors):
        print(f"{nx}x{ny}: error {err:.6e}")
    print("orders: " + ", ".join(f"{o:.3f}" for o in report.orders))
    return _verdict("mms-convergence", report.passed())


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="swerect")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="regime, kappa, and boundary tables for a state")
    c.add_argument("--u0", type=float, required=True)
    c.add_argument("--v0", type=float, required=True)
    c.add_argument("--phi0", type=float, required=True)
    c.add_argument("--g", type=float, required=True)
    c.add_argument("--f", type=float, default=0.0)
    c.set_defaults(handler=_cmd_classify)

    va = sub.add_parser("verify-algebra", help="check transforms and row counts")
    va.add_argument("--config", required=True)
    va.add_argument("--tol", type=float, default=1e-10)
    va.set_defaults(handler=_cmd_verify_algebra)

    pp = sub.add_parser("probe-positivity", help="sampled boundary-form nonnegativity")
    pp.add_argument("--config", required=True)
    pp.add_argument("--samples", type=int, default=200)
    pp.add_argument("--seed", type=int, default=0)
    pp.set_defaults(handler=_cmd_probe_positivity)

    se = sub.add_parser("solve-elliptic", help="first-order elliptic solve (mixed subcritical)")
    se.add_argument("--config", required=True)
    se.add_argument("--mms", action="store_true", help="two-level convergence check")
    se.add_argument("--out", default=None)
    se.set_defaults(handler=_cmd_solve_elliptic)

    r = sub.add_parser("run", help="time integration; writes field and energy CSVs")
    r.add_argument("--config", required=True)
    r.add_argument("--out", default=".")
    r.set_defaults(handler=_cmd_run)

    mc = sub.add_parser("mms-convergence", help="manufactured-solution grid ladder")
    mc.add_argument("--config", required=True)
    mc.add_argument("--levels", type=int, default=3)
    mc.set_defaults(handler=_cmd_mms_convergence)

    return ap


# a negative number in any float syntax; argparse 3.11 reads one with an
# exponent or a word (-1e-3, -inf) as an option, not as the value before it
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.I)


def _join_negative_values(argv: List[str]) -> List[str]:
    """Attach each negative number that follows a --flag to it as
    --flag=VALUE, so that it reaches the option's own validation."""
    joined: List[str] = []
    for arg in argv:
        prev = joined[-1] if joined else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_NUMBER.match(arg):
            joined[-1] = f"{prev}={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; preserve both
        return int(exc.code) if exc.code is not None else 0
    try:
        # NumPy's floating-point warnings stay off stderr: a failure's first
        # stderr line is its "error:" or "<name>: FAIL" line
        with np.errstate(all="ignore"):
            return args.handler(args)
    except MissingKey as exc:
        return _fail(f"missing required key {exc}", 2)
    except _USAGE_ERRORS as exc:
        return _fail(str(exc), 2)
    except SweRectError as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
