"""The CLI's error contract as a property over commands, values and configs.

`swerect` exits 0, 1 or 2 and never prints a traceback or a warning; a
nonzero exit writes exactly one stderr line, `error: ...` or `<name>:
FAIL`.  The property calls `cli.main` in process on drawn subcommands,
option values and config documents.  Reals are log-uniform over 1e+-1,
1e+-3 or 1e+-300, or edge floats; grids are 4-12 nodes a side; t_end is a
small multiple of the CFL step, so that no run takes more than about 50
steps.

The example budget is a settings profile: tier-1 runs `tier1`, and CI runs
the property again with `SWERECT_CLI_CONTRACT_PROFILE=ci`.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import swerect as sw
from swerect import cli

settings.register_profile("cli-contract-tier1", max_examples=150, derandomize=True,
                          database=None, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("cli-contract-ci", settings.get_profile("cli-contract-tier1"),
                          max_examples=2000)
PROFILE = settings.get_profile(
    "cli-contract-" + os.environ.get("SWERECT_CLI_CONTRACT_PROFILE", "tier1"))

EDGE_FLOATS = [0.0, 5e-324, 2.2250738585072014e-308, 1e-160, 1e160,
               1.7976931348623157e308, math.inf, math.nan]


def _log_uniform(decades):
    return st.floats(-decades, decades).map(lambda e: 10.0 ** e)


# A document sets a dozen values, and one value out of range ends the
# command at set-up.  So half the cases are near: every real from NEAR and
# every count in range, which set-up mostly accepts.  The others draw reals
# from WIDE, weighted by repetition, and counts with their invalid values.
WIDE = st.one_of(*[_log_uniform(3)] * 7, _log_uniform(300), _log_uniform(300),
                 st.sampled_from(EDGE_FLOATS), _log_uniform(300).map(lambda v: -v))
NEAR = _log_uniform(1)


def _cfl_step(u0, v0, phi0, g, f, L1, L2, nx, ny, cfl):
    """The run's step for these settings, or None if set-up refuses them."""
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dt = sw.cfl_dt(sw.validate_params(u0, v0, phi0, g, f), sw.Grid(L1, L2, nx, ny), cfl)
    except (sw.SweRectError, ValueError, OverflowError, ZeroDivisionError):
        return None
    return dt if math.isfinite(dt) and dt > 0 else None


def document(draw, near):
    """Config text whose run, when set-up accepts it, takes a few steps."""
    real = NEAR if near else WIDE
    u0, v0, phi0, g, L1, L2 = (draw(real) for _ in range(6))
    f = draw(st.one_of(st.just(0.0), real))
    nx, ny = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    cfl = draw(st.floats(0.05, 0.9) if near else st.one_of(st.floats(0.05, 0.9), WIDE))
    dt = _cfl_step(u0, v0, phi0, g, f, L1, L2, nx, ny, cfl)
    t_end = draw(WIDE) if dt is None else draw(st.floats(0.5, 6.0)) * dt
    lines = ["[physics]", f"u0 = {u0!r}", f"v0 = {v0!r}", f"phi0 = {phi0!r}", f"g = {g!r}",
             f"f = {f!r}", "[grid]", f"L1 = {L1!r}", f"L2 = {L2!r}", f"nx = {nx}", f"ny = {ny}",
             "[run]", f"t_end = {t_end!r}", f"cfl = {cfl!r}",
             f"scheme = {draw(st.sampled_from(['ssprk2', 'euler']))}"]
    for section, kinds in (("forcing", ["none", "manufactured", "file"]),
                           ("boundary", ["homogeneous", "manufactured", "file"])):
        kind = draw(st.sampled_from(kinds))
        lines += [f"[{section}]", f"kind = {kind}"]
        if kind == "file":
            lines.append("file = missing.csv")
    lines += ["[output]", f"dir = {draw(st.sampled_from(['.', 'out', 'a/b']))}",
              f"cadence = {draw(st.integers(0 if near else -1, 3))}",
              f"precision = {draw(st.integers(1, 17) if near else st.integers(0, 18))}"]
    return "\n".join(lines) + "\n"


@st.composite
def commands(draw):
    """(argv with {cfg} and {tmp} placeholders, config text or None)."""
    near = draw(st.booleans())
    name = draw(st.sampled_from(["classify", "verify-algebra", "probe-positivity",
                                 "solve-elliptic", "run", "mms-convergence"]))
    if name == "classify":
        argv = [name]
        for flag in ("--u0", "--v0", "--phi0", "--g", "--f"):
            argv += [flag, repr(draw(NEAR if near else WIDE))]
        return argv, None
    argv = [name, "--config", "{cfg}"]
    out = draw(st.sampled_from(["{tmp}", "{tmp}/afile"]))
    if name == "verify-algebra" and draw(st.booleans()):
        argv += ["--tol", repr(draw(NEAR if near else WIDE))]
    elif name == "probe-positivity":
        seeds = st.integers(0, 2**64 - 1) if near else st.integers(-1, 2**64)
        argv += ["--samples", str(draw(st.integers(1 if near else -1, 4))),
                 "--seed", str(draw(seeds))]
    elif name == "solve-elliptic":
        argv += draw(st.sampled_from([[], ["--mms"], ["--out", out]]))
    elif name == "run":
        argv += ["--out", out]
    elif name == "mms-convergence":
        argv += ["--levels", str(draw(st.integers(2 if near else 0, 3)))]
    return argv, document(draw, near)


@settings(PROFILE)
@given(commands())
def test_cli_keeps_its_error_contract(command):
    argv, text = command
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "case.cfg")
        if text is not None:
            with open(cfg, "w") as fh:
                fh.write(text)
        open(os.path.join(tmp, "afile"), "w").close()
        argv = [a.format(cfg=cfg, tmp=tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert not any("Traceback" in line for line in lines), lines
    assert not caught, [str(w.message) for w in caught]
    if code:
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: ") or lines[0].endswith(": FAIL"), lines
