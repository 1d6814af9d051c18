import dataclasses
import hashlib
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import swerect as sw
from swerect import cli
from swerect.errors import InvalidValue, IoError, MissingKey, NonFinite, ParseError, UnknownKey

from helpers import REGIME_CASES

MINIMAL = """\
[physics]
u0 = 4.0
v0 = 4.0
phi0 = 1.0
g = 9.81

[grid]
L1 = 1.0
L2 = 1.0
nx = 16
ny = 16

[run]
t_end = 0.05
cfl = 0.45
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- csv ----------------------------------------------------------------------


def test_field_csv_round_trip_exact(tmp_path):
    grid = sw.Grid(2.0, 0.7, 5, 4)
    rng = sw.SplitMix64(3)
    state = sw.StateField.from_stack(sw.band_limited_fields(rng, grid.nx, grid.ny))
    path = tmp_path / "f.csv"
    sw.write_field_csv(grid.x, grid.y, state, path)
    x, y, back = sw.read_field_csv(path)
    assert np.array_equal(x, grid.x) and np.array_equal(y, grid.y)
    assert np.array_equal(back.u, state.u)
    assert np.array_equal(back.v, state.v)
    assert np.array_equal(back.phi, state.phi)


def test_field_csv_layout_two_by_two(tmp_path):
    x = np.array([0.0, 1.0])
    y = np.array([0.0, 1.0])
    zero = sw.StateField(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    path = tmp_path / "z.csv"
    sw.write_field_csv(x, y, zero, path)
    text = path.read_text()
    assert text.endswith("\n") and "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "x,y,u,v,phi"
    assert len(lines) == 5
    for row in lines[1:]:
        assert row.endswith(",0,0,0")
    # x-major: all y for the first x, then the next x
    assert [r.split(",")[:2] for r in lines[1:]] == [
        ["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]


def test_field_csv_shape_and_header_errors(tmp_path):
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0.0, 1.0])
    with pytest.raises(InvalidValue):
        sw.write_field_csv(x, y, sw.StateField.zeros(sw.Grid(1, 1, 4, 4)), tmp_path / "bad.csv")
    p = tmp_path / "h.csv"
    p.write_text("x,y,u,v\n0,0,0,0\n")
    with pytest.raises(IoError):
        sw.read_field_csv(p)
    p2 = tmp_path / "r.csv"
    p2.write_text("x,y,u,v,phi\n0,0,0,0,0\n0,1,0,0,0\n1,0,0,0,0\n")
    with pytest.raises(IoError, match="rows"):
        sw.read_field_csv(p2)


def _field_table(grid, seed=3):
    """(nx, ny, 5) table of x, y, u, v, phi on the grid."""
    state = sw.band_limited_fields(sw.SplitMix64(seed), grid.nx, grid.ny)
    return np.concatenate([np.stack(grid.meshgrid()), state]).transpose(1, 2, 0)


def _write_rows(path, rows):
    body = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    path.write_text("x,y,u,v,phi\n" + body)


def test_field_csv_rejects_rows_out_of_x_major_order(tmp_path):
    grid = sw.Grid(1.0, 1.0, 6, 6)
    table = _field_table(grid)
    rows = table.reshape(-1, 5)
    _write_rows(tmp_path / "x.csv", rows)
    assert np.array_equal(sw.read_field_csv(tmp_path / "x.csv")[2].u, table[:, :, 2])
    # y-major files used to come back silently transposed when nx = ny
    _write_rows(tmp_path / "y.csv", table.transpose(1, 0, 2).reshape(-1, 5))
    with pytest.raises(IoError, match="y.csv.*x-major"):
        sw.read_field_csv(tmp_path / "y.csv")
    order = np.argsort(sw.SplitMix64(9).doubles(rows.shape[0]))
    _write_rows(tmp_path / "s.csv", rows[order])
    with pytest.raises(IoError, match="s.csv.*x-major"):
        sw.read_field_csv(tmp_path / "s.csv")


def test_boundary_file_rejects_y_major_trace(tmp_path):
    grid = sw.Grid(1.0, 1.0, 16, 16)
    _write_rows(tmp_path / "trace.csv", _field_table(grid).transpose(1, 0, 2).reshape(-1, 5))
    cfg = write_cfg(tmp_path, MINIMAL + "\n[boundary]\nkind = file\nfile = trace.csv\n")
    doc = sw.load_config(cfg)
    with pytest.raises(IoError, match="trace.csv.*x-major"):
        sw.build_run_config(doc)


@pytest.mark.parametrize("section", ["forcing", "boundary"])
@pytest.mark.parametrize("axes, message", [
    (lambda g: (7.0 * g.x, 3.0 * g.y), r"has x\[1\] = 0\.4666"),
    (lambda g: (g.x[::-1], g.y), r"has x\[0\] = 1\.0, run grid has 0\.0"),
], ids=["scaled", "reversed"])
def test_field_file_off_the_run_grid_is_rejected(section, axes, message, tmp_path, capsys):
    """A file with the run's node counts but other coordinates (written on
    [0, 7] x [0, 3], or with its x column reversed) is rejected, naming the
    file and the first coordinate off the grid."""
    grid = sw.Grid(1.0, 1.0, 16, 16)
    x, y = axes(grid)
    sw.write_field_csv(x, y, sw.StateField.zeros(grid), tmp_path / "f.csv")
    cfg = write_cfg(tmp_path, MINIMAL + f"\n[{section}]\nkind = file\nfile = f.csv\n")
    with pytest.raises(InvalidValue, match="field file '.*f.csv' " + message):
        sw.build_run_config(sw.load_config(cfg))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "f.csv' has x[" in capsys.readouterr().err


def test_field_file_written_at_ten_digits_is_on_the_grid(tmp_path):
    """What swerect writes at precision 10, on lengths whose nodes %.10g
    rounds, is read as the run grid."""
    grid = sw.Grid(7.123456789123, 0.0031415926535, 37, 23)
    sw.write_field_csv(grid.x, grid.y, sw.StateField.zeros(grid), tmp_path / "f.csv",
                       precision=10)
    assert not np.array_equal(sw.read_field_csv(tmp_path / "f.csv")[0], grid.x)
    text = (MINIMAL.replace("L1 = 1.0", f"L1 = {grid.l1!r}")
            .replace("L2 = 1.0", f"L2 = {grid.l2!r}")
            .replace("nx = 16\nny = 16", "nx = 37\nny = 23")
            + "\n[forcing]\nkind = file\nfile = f.csv\n")
    sw.build_run_config(sw.load_config(write_cfg(tmp_path, text)))


# the constrained sides of a file-backed run on 13x9 over [0, 1] x [0, 1.3],
# and the sha256 of the supercritical run's final stack (re-recorded when
# each upwind term became one matrix product with 1/h in the matrix)
FILE_TRACE_SIDES = {
    "super": ["WEST", "SOUTH"],
    "fhs": ["WEST", "EAST", "SOUTH", "NORTH"],
    "msub": ["WEST", "EAST", "SOUTH", "NORTH"],
}
FILE_TRACE_FINAL_SHA256 = "1993a5f250d514cbfb9f7121bf32ce54657675a50fb5c517169787eebadd8895"


@pytest.mark.parametrize("kind", sorted(FILE_TRACE_SIDES))
def test_boundary_file_trace_holds_on_every_side_node(kind, tmp_path):
    """A run with boundary.kind = file carries rows @ trace on every node of
    each constrained side, corners included: each side reads its own line of
    the trace file."""
    grid = sw.Grid(1.0, 1.3, 13, 9)
    trace = sw.band_limited_fields(sw.SplitMix64(23), grid.nx, grid.ny)
    sw.write_field_csv(grid.x, grid.y, sw.StateField(*trace), tmp_path / "trace.csv")
    u0, v0, phi0, g = REGIME_CASES[kind]
    text = (MINIMAL.replace("u0 = 4.0", f"u0 = {u0}").replace("v0 = 4.0", f"v0 = {v0}")
            .replace("nx = 16\nny = 16", "nx = 13\nny = 9").replace("L2 = 1.0", "L2 = 1.3")
            + "\n[boundary]\nkind = file\nfile = trace.csv\n")
    doc = sw.load_config(write_cfg(tmp_path, text))
    assert (doc.phi0, doc.g) == (phi0, g)
    cfg = sw.build_run_config(doc)
    final = sw.run(cfg).final.stack()
    spec = sw.bc_catalog(cfg.p)
    lines = {sw.Side.WEST: (0, slice(None)), sw.Side.EAST: (-1, slice(None)),
             sw.Side.SOUTH: (slice(None), 0), sw.Side.NORTH: (slice(None), -1)}
    seen = []
    for side in sw.SIDES:
        rows = spec.rows[side]
        if rows.shape[0] == 0:
            continue
        seen.append(side.name)
        at = (slice(None),) + lines[side]
        want = rows @ trace[at]
        assert np.array_equal(cfg.boundary_data.sample(side, 0.0, *want.shape), want)
        resid = np.max(np.abs(rows @ final[at] - want)) / np.max(np.abs(want))
        assert resid <= 2e-15, (side, resid)
    assert seen == FILE_TRACE_SIDES[kind]
    if kind == "super":
        digest = hashlib.sha256(np.ascontiguousarray(final).tobytes()).hexdigest()
        assert digest == FILE_TRACE_FINAL_SHA256


def test_energy_csv_round_trip(tmp_path):
    log = sw.EnergyLog()
    log.append(0.0, 1.2345678901234567)
    log.append(0.1, 1.1)
    log.append(0.2, 0.7)
    path = tmp_path / "e.csv"
    sw.write_energy_csv(log, path)
    back = sw.read_energy_csv(path)
    assert back.times == log.times
    assert back.energies == log.energies


def test_energy_csv_empty_log_is_header_only(tmp_path):
    path = tmp_path / "e0.csv"
    sw.write_energy_csv(sw.EnergyLog(), path)
    assert path.read_text() == "t,energy\n"
    assert len(sw.read_energy_csv(path)) == 0


def test_field_csv_rejects_non_finite_entries(tmp_path):
    rows = _field_table(sw.Grid(1.0, 1.0, 4, 5)).reshape(-1, 5)
    for bad in ("nan", "inf", "-inf"):
        body = [",".join(repr(float(v)) for v in row) for row in rows]
        body[6] = body[6].rsplit(",", 1)[0] + "," + bad
        path = tmp_path / f"{bad}.csv"
        path.write_text("x,y,u,v,phi\n" + "\n".join(body) + "\n")
        with pytest.raises(IoError, match=rf"{bad}.csv' line 8: non-finite"):
            sw.read_field_csv(path)


def test_energy_csv_rejects_non_finite_time(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("t,energy\nnan,1.0\n0.5,0.9\n")
    with pytest.raises(IoError, match=r"e.csv' line 2: non-finite time"):
        sw.read_energy_csv(path)


def test_read_missing_file(tmp_path):
    with pytest.raises(IoError):
        sw.read_field_csv(tmp_path / "nope.csv")


# one byte that is not UTF-8 is a read error naming the file, not a bare
# UnicodeDecodeError


def test_field_csv_rejects_non_utf8_byte(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(b"x,y,u,v,phi\n0,0,0,0,\xff\n")
    with pytest.raises(IoError, match="f.csv': not UTF-8"):
        sw.read_field_csv(path)


def test_energy_csv_rejects_non_utf8_byte(tmp_path):
    path = tmp_path / "e.csv"
    path.write_bytes(b"t,energy\n0.0,1.0\n0.5,\xff\n")
    with pytest.raises(IoError, match="e.csv': not UTF-8"):
        sw.read_energy_csv(path)


def test_config_rejects_non_utf8_byte(tmp_path, capsys):
    path = tmp_path / "case.cfg"
    path.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
    with pytest.raises(IoError, match="case.cfg': not UTF-8"):
        sw.load_config(path)
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "case.cfg': not UTF-8" in capsys.readouterr().err


def test_cli_run_boundary_file_with_non_utf8_byte_exits_2(tmp_path, capsys):
    (tmp_path / "trace.csv").write_bytes(b"x,y,u,v,phi\n0,0,0,0,\xff\n")
    cfg = write_cfg(tmp_path, MINIMAL + "\n[boundary]\nkind = file\nfile = trace.csv\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "trace.csv': not UTF-8" in capsys.readouterr().err


# --- config -------------------------------------------------------------------


def test_minimal_config_defaults():
    doc = sw.parse_config(MINIMAL)
    assert doc.f == 0.0
    assert doc.scheme == "ssprk2"
    assert doc.seed == 0
    assert doc.forcing_kind == "none"
    assert doc.boundary_kind == "homogeneous"
    assert doc.output_dir == "."
    assert doc.cadence == 0
    assert doc.precision == 17
    grid = doc.make_grid()
    assert (grid.nx, grid.ny) == (16, 16)
    assert str(sw.classify(doc.constants())) == "Supercritical"


FULL = MINIMAL.replace("g = 9.81\n", "g = 9.81\nf = -2.5\n") + """\
scheme = euler
seed = 42

[forcing]
kind = file
file = forcing.csv

[boundary]
kind = manufactured
file = trace.csv

[output]
dir = results
cadence = 5
precision = 12
"""

# every ConfigDocument field after parsing MINIMAL and FULL, recorded before
# parse_config built the document from the schema
PARSED_CONFIGS = {
    "minimal": {
        "u0": 4.0, "v0": 4.0, "phi0": 1.0, "g": 9.81, "f": 0.0,
        "L1": 1.0, "L2": 1.0, "nx": 16, "ny": 16,
        "t_end": 0.05, "cfl": 0.45, "scheme": "ssprk2", "seed": 0,
        "forcing_kind": "none", "forcing_file": "",
        "boundary_kind": "homogeneous", "boundary_file": "",
        "output_dir": ".", "cadence": 0, "precision": 17, "source": "minimal.cfg",
    },
    "full": {
        "u0": 4.0, "v0": 4.0, "phi0": 1.0, "g": 9.81, "f": -2.5,
        "L1": 1.0, "L2": 1.0, "nx": 16, "ny": 16,
        "t_end": 0.05, "cfl": 0.45, "scheme": "euler", "seed": 42,
        "forcing_kind": "file", "forcing_file": "forcing.csv",
        "boundary_kind": "manufactured", "boundary_file": "trace.csv",
        "output_dir": "results", "cadence": 5, "precision": 12, "source": "full.cfg",
    },
}


@pytest.mark.parametrize("name", sorted(PARSED_CONFIGS))
def test_parsed_config_golden(name):
    text = MINIMAL if name == "minimal" else FULL
    doc = sw.parse_config(text, source=f"{name}.cfg")
    assert dataclasses.asdict(doc) == PARSED_CONFIGS[name]


def test_config_document_fields_come_from_schema():
    from swerect.config import _FIELD_NAMES, _SCHEMA, ConfigDocument

    names = [f.name for f in dataclasses.fields(ConfigDocument) if f.name != "source"]
    schema = [_FIELD_NAMES.get((sec, key), key) for sec, keys in _SCHEMA.items() for key in keys]
    assert names == schema
    assert len(names) == 20


def test_missing_required_key():
    broken = MINIMAL.replace("g = 9.81\n", "")
    with pytest.raises(MissingKey) as exc:
        sw.parse_config(broken)
    assert str(exc.value) == "physics.g"


def test_unknown_key_and_section():
    with pytest.raises(UnknownKey, match="physics.gg"):
        sw.parse_config(MINIMAL.replace("g = 9.81", "gg = 9.81"))
    with pytest.raises(UnknownKey, match="wind"):
        sw.parse_config(MINIMAL + "\n[wind]\nspeed = 1\n")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        sw.parse_config(MINIMAL + "\nnot a key value line\n")
    assert exc.value.line == len(MINIMAL.splitlines()) + 2
    with pytest.raises(ParseError, match="duplicate"):
        sw.parse_config(MINIMAL + "\n[physics]\nu0 = 5.0\n")
    with pytest.raises(ParseError, match="outside"):
        sw.parse_config("u0 = 1\n" + MINIMAL)


def test_semantic_validation():
    with pytest.raises(InvalidValue):
        sw.parse_config(MINIMAL.replace("nx = 16", "nx = 2"))
    with pytest.raises(InvalidValue):
        sw.parse_config(MINIMAL.replace("cfl = 0.45", "cfl = 1.2"))
    with pytest.raises(MissingKey, match="forcing.file"):
        sw.parse_config(MINIMAL + "\n[forcing]\nkind = file\n")


def test_comments_and_whitespace_tolerated():
    text = MINIMAL.replace("u0 = 4.0", "  u0 = 4.0   # base flow")
    doc = sw.parse_config(text)
    assert doc.u0 == 4.0


# --- cli ----------------------------------------------------------------------


def test_cli_classify_supercritical(capsys):
    code = cli.main(["classify", "--u0", "4", "--v0", "4", "--phi0", "1", "--g", "9.81"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "Supercritical"
    assert out[1].startswith("kappa0 = ")
    assert "boundary rows (forward):" in out
    assert "boundary rows (adjoint):" in out


def test_cli_classify_takes_a_negative_value_in_exponent_form(capsys):
    """argparse read -1e-3 as an option: 'expected one argument', exit 2."""
    state = ["--u0", "4", "--v0", "4", "--phi0", "1", "--g", "9.81"]
    assert cli.main(["classify", *state, "--f", "-1e-3"]) == 0
    assert capsys.readouterr().out.startswith("Supercritical\n")
    assert cli.main(["classify", *state[2:], "--u0", "-1e-3"]) == 2
    assert capsys.readouterr() == ("", "error: u0 must be finite and > 0, got -0.001\n")


def test_cli_classify_degenerate_exit_2(capsys):
    code = cli.main(["classify", "--u0", "3.132091952673165", "--v0", "1",
                     "--phi0", "1", "--g", "9.81"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_classify_overflowing_base_state_exit_2(capsys):
    code = cli.main(["classify", "--u0", "1e200", "--v0", "1", "--phi0", "1", "--g", "9.81"])
    assert code == 2
    assert capsys.readouterr().err == "error: u0^2 overflows a float: u0 = 1e+200\n"


def test_cli_classify_underflowing_speed_exit_2(capsys):
    # validates as Supercritical, but a[2] = u0/(u0^2 + v0^2) ~ 1e-340
    code = cli.main(["classify", "--u0", "1e-100", "--v0", "1e120", "--phi0", "1",
                     "--g", "1e-300"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: a characteristic speed underflows to 0 for this base state\n")


def test_cli_run_overflowing_base_state_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL.replace("u0 = 4.0", "u0 = 1e200"))
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: u0^2 overflows a float: u0 = 1e+200\n"


def test_cli_verify_algebra(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    code = cli.main(["verify-algebra", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "verify-algebra: PASS" in out
    assert "incoming counts (W,E,S,N): (3, 0, 3, 0) expected (3, 0, 3, 0)" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "True"])
def test_cli_verify_algebra_rejects_a_bad_tolerance(tmp_path, capsys, tol):
    """--tol nan and -1 failed every state (exit 1) and inf passed every
    state; like every other bad setting, they exit 2 before any check."""
    cfg = write_cfg(tmp_path, MINIMAL)
    assert cli.main(["verify-algebra", "--config", cfg, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if tol != "True":  # not a float at all: argparse's usage error
        assert captured.err == f"error: tol must be nonnegative and finite, got {float(tol)}\n"


def test_cli_missing_key_message(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL.replace("g = 9.81\n", ""))
    code = cli.main(["verify-algebra", "--config", cfg])
    assert code == 2
    assert "missing required key physics.g" in capsys.readouterr().err


def test_cli_usage_errors(capsys):
    assert cli.main(["classify", "--u0", "4"]) == 2          # missing required flags
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_cli_run_energy_nonincreasing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert "final energy" in capsys.readouterr().out
    e = sw.read_energy_csv(out / "energy.csv")
    drops = np.diff(np.array(e.energies))
    assert np.all(drops <= 1e-12 * np.array(e.energies[:-1]))
    x, y, final = sw.read_field_csv(out / "field_final.csv")
    assert final.u.shape == (16, 16)


def test_cli_run_over_the_step_cap_exits_2_and_creates_nothing(tmp_path, capsys):
    """Supercritical (100, 100, 1, 9.81) over dx = 1e-306 asks for about
    1.1e307 steps; `swerect run` on it never returned, and now it is
    refused at set-up, before the output directory exists."""
    text = (MINIMAL.replace("= 4.0", "= 100.0").replace("L1 = 1.0", "L1 = 7e-306")
            .replace("= 16", "= 8") + "\n[output]\ncadence = 1\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: the step count t_end / dt = 0.05 / 4.36334e-309 "
                                       "= 1.14591213e+307 exceeds the cap of 100000000 steps\n")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_failed_run_leaves_the_snapshots_it_took(tmp_path, capsys):
    """A constant forcing file of 3e155 makes the energy overflow at step 5:
    `swerect run` at cadence 1 exits 1 and leaves the snapshots of steps
    0-4, the library's states byte for byte, and no field_final.csv or
    energy.csv."""
    grid = sw.Grid(1.0, 1.0, 16, 16)
    sw.write_field_csv(grid.x, grid.y, sw.StateField(*np.full((3, 16, 16), 3e155)),
                       tmp_path / "forcing.csv")
    text = MINIMAL + "[forcing]\nkind = file\nfile = forcing.csv\n[output]\ndir = run\ncadence = 1\n"
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: non-finite energy at t=")
    names = sorted(os.listdir(tmp_path / "run"))
    assert names == [f"field_{k:06d}.csv" for k in range(5)]
    snapshots = []
    run_cfg = sw.build_run_config(sw.load_config(cfg))
    with pytest.raises(NonFinite):
        sw.run(dataclasses.replace(run_cfg, on_snapshot=lambda t, s: snapshots.append(s)))
    assert len(snapshots) == len(names)
    for name, snap in zip(names, snapshots):
        assert np.array_equal(sw.read_field_csv(tmp_path / "run" / name)[2].stack(),
                              snap.stack())


@pytest.mark.parametrize("command", ["run", "solve-elliptic"])
def test_cli_out_naming_a_file_exits_2(command, tmp_path, capsys):
    """--out naming an existing file ended in a NotADirectoryError traceback."""
    text = MINIMAL if command == "run" else MSUB_TEXT
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = write_cfg(tmp_path, text)
    assert cli.main([command, "--config", cfg, "--out", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create directory '{afile}")
    assert err.count("\n") == 1 and "Not a directory" in err


# a run whose energy overflows (a constant forcing file of 3e155) and a grid
# spacing of 0 printed NumPy's RuntimeWarning before their "error:" line
NUMPY_WARNING_CASES = {
    "energy overflow": ("[forcing]\nkind = file\nfile = forcing.csv\n", "1.0", "16", 1,
                        "error: non-finite energy at t="),
    "zero spacing": ("", "5e-324", "5", 2,
                     "error: the grid spacing (dx, dy) = (0, 0.25) underflows to 0\n"),
}


@pytest.mark.parametrize("case", sorted(NUMPY_WARNING_CASES))
def test_cli_failure_prints_no_numpy_warning(case, tmp_path, capsys):
    extra, l1, n, code, first = NUMPY_WARNING_CASES[case]
    grid = sw.Grid(1.0, 1.0, 16, 16)
    sw.write_field_csv(grid.x, grid.y, sw.StateField(*np.full((3, 16, 16), 3e155)),
                       tmp_path / "forcing.csv")
    text = MINIMAL.replace("L1 = 1.0", f"L1 = {l1}").replace("= 16", f"= {n}") + extra
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        assert cli.main(["run", "--config", write_cfg(tmp_path, text),
                         "--out", str(tmp_path / "out")]) == code
    assert [str(w.message) for w in got] == []
    assert capsys.readouterr().err.startswith(first)


def test_cli_probe_positivity(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    code = cli.main(["probe-positivity", "--config", cfg, "--samples", "10"])
    assert code == 0
    assert "probe-positivity: PASS" in capsys.readouterr().out


def test_cli_solve_elliptic_mms(tmp_path, capsys):
    text = MINIMAL.replace("u0 = 4.0", "u0 = 1.0").replace("v0 = 4.0", "v0 = 1.0")
    cfg = write_cfg(tmp_path, text)
    code = cli.main(["solve-elliptic", "--config", cfg, "--mms"])
    out = capsys.readouterr().out
    assert code == 0
    assert "solve-elliptic --mms: PASS" in out


def test_cli_solve_elliptic_wrong_regime(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)  # supercritical state
    code = cli.main(["solve-elliptic", "--config", cfg, "--mms"])
    assert code == 2
    capsys.readouterr()


MSUB_TEXT = MINIMAL.replace("u0 = 4.0", "u0 = 1.0").replace("v0 = 4.0", "v0 = 1.0")

# (config text, exit code, stdout, stderr) of `solve-elliptic --mms`, captured
# before the two-level check moved into elliptic.manufactured_convergence_T
SOLVE_ELLIPTIC_MMS_OUTPUT = {
    "square": (MSUB_TEXT, 0,
               "errors: 9.620146e-03 -> 2.176197e-03, order 2.144\n"
               "solve-elliptic --mms: PASS\n", ""),
    "rect": (MSUB_TEXT.replace("v0 = 1.0", "v0 = 1.7").replace("L2 = 1.0", "L2 = 1.5")
             .replace("ny = 16", "ny = 23"), 0,
             "errors: 7.455025e-03 -> 1.739975e-03, order 2.099\n"
             "solve-elliptic --mms: PASS\n", ""),
    "wrong-regime": (MINIMAL, 2, "",
                     "error: swe_elliptic_block requires the mixed subcritical regime\n"),
}


@pytest.mark.parametrize("case", sorted(SOLVE_ELLIPTIC_MMS_OUTPUT))
def test_cli_solve_elliptic_mms_output_pinned(case, tmp_path, capsys):
    text, code, out, err = SOLVE_ELLIPTIC_MMS_OUTPUT[case]
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["solve-elliptic", "--config", cfg, "--mms"]) == code
    assert capsys.readouterr() == (out, err)


def test_cli_mms_convergence(tmp_path, capsys):
    text = (MINIMAL.replace("u0 = 4.0", "u0 = 2.5").replace("v0 = 4.0", "v0 = 2.5")
            .replace("nx = 16", "nx = 17").replace("ny = 16", "ny = 17")
            .replace("t_end = 0.05", "t_end = 0.1"))
    cfg = write_cfg(tmp_path, text)
    code = cli.main(["mms-convergence", "--config", cfg, "--levels", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mms-convergence: PASS" in out
    assert "17x17: error" in out


def test_cli_mms_convergence_fails_when_the_errors_vanish(tmp_path, capsys):
    """At t_end = 1e-160 both errors are 0; the order formula raised
    ZeroDivisionError, and the order is now undefined (nan), a FAIL."""
    cfg = write_cfg(tmp_path, MINIMAL.replace("= 16", "= 5").replace("0.05", "1e-160"))
    assert cli.main(["mms-convergence", "--config", cfg, "--levels", "2"]) == 1
    assert capsys.readouterr() == ("5x5: error 0.000000e+00\n9x9: error 0.000000e+00\n"
                                   "orders: nan\n", "mms-convergence: FAIL\n")


@pytest.mark.parametrize("levels", ["1", "0", "-3"])
def test_cli_mms_convergence_needs_two_levels(levels, tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert cli.main(["mms-convergence", "--config", cfg, "--levels", levels]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: a refinement ladder needs at least two levels, got {levels}\n"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cli_probe_positivity_needs_a_sample(samples, tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert cli.main(["probe-positivity", "--config", cfg, "--samples", samples]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: positivity probe needs at least one sample, got {samples}\n"


# --- seeds ----------------------------------------------------------------------
# SplitMix64 masks its seed to 64 bits, so a wider seed would silently alias
# a narrower one (2^64 ran seed 0's field, byte for byte); the entry points
# reject it instead


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, -(2**64)])
def test_config_seed_outside_64_bits_rejected(seed, tmp_path, capsys):
    text = MINIMAL + f"seed = {seed}\n"
    with pytest.raises(InvalidValue, match=r"run.seed must be in \[0, 2\^64\)"):
        sw.parse_config(text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert f"run.seed must be in [0, 2^64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_config_seed_edges_accepted():
    assert sw.parse_config(MINIMAL + "seed = 0\n").seed == 0
    assert sw.parse_config(MINIMAL + f"seed = {2**64 - 1}\n").seed == 2**64 - 1


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_probe_positivity_seed_outside_64_bits_exits_2(seed, tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert cli.main(["probe-positivity", "--config", cfg, "--samples", "1", "--seed", seed]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --seed must be in [0, 2^64), got {seed}\n"


def test_cli_probe_positivity_largest_seed_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    args = ["probe-positivity", "--config", cfg, "--samples", "2", "--seed", str(2**64 - 1)]
    assert cli.main(args) == 0
    assert "probe-positivity: PASS" in capsys.readouterr().out


def _patched_verdicts(monkeypatch, passed):
    """Replace each checking command's report by one that passes or fails;
    returns (command args, config text, stdout before the verdict line)."""
    monkeypatch.setattr(cli, "verify_diagonalization",
                        lambda p, tol: SimpleNamespace(residuals={"P": 1e-16}, passed=passed))
    monkeypatch.setattr(cli, "positivity_probe", lambda *a: SimpleNamespace(
        min_quotient=1.0, n_samples=3, threshold=0.5, passed=passed))
    monkeypatch.setattr(sw.elliptic, "manufactured_convergence_T",
                        lambda c, grid: ((1.0, 0.25), 2.0 if passed else 0.5))
    monkeypatch.setattr(cli, "mms_convergence", lambda *a, **kw: SimpleNamespace(
        nodes=[(17, 17), (33, 33)], errors=[1.0, 0.5], orders=[1.0], passed=lambda: passed))
    # a failed a-priori bound exited 1 with nothing on stderr
    monkeypatch.setattr(sw.elliptic, "apriori_check", lambda theta, c, grid: SimpleNamespace(
        grad_norm=1.0, T_norm=2.0, passed=passed))
    counts = "incoming counts (W,E,S,N): (3, 0, 3, 0) expected (3, 0, 3, 0)\n"
    return [
        (["verify-algebra"], MINIMAL, "P: 1.000e-16\n" + counts),
        (["probe-positivity"], MINIMAL,
         "min quotient 1.000000e+00 over 3 samples (threshold 5.000000e-01)\n"),
        (["solve-elliptic", "--mms"], MSUB_TEXT,
         f"errors: 1.000000e+00 -> 2.500000e-01, order {2.0 if passed else 0.5:.3f}\n"),
        (["mms-convergence"], MINIMAL,
         "17x17: error 1.000000e+00\n33x33: error 5.000000e-01\norders: 1.000\n"),
        (["solve-elliptic"], MSUB_TEXT,
         f"solved 16x16; |grad| 1.000000e+00, |T theta| 2.000000e+00, bounds ok: {passed}\n"),
    ]


@pytest.mark.parametrize("passed", [True, False])
def test_cli_verdict_lines_and_exit_codes(passed, monkeypatch, tmp_path, capsys):
    """PASS goes to stdout with exit 0, FAIL to stderr with exit 1, for all
    five checking commands."""
    for args, text, out in _patched_verdicts(monkeypatch, passed):
        cfg = write_cfg(tmp_path, text)
        code = cli.main([args[0], "--config", cfg, *args[1:]])
        verdict = f"{' '.join(args)}: {'PASS' if passed else 'FAIL'}\n"
        assert (code, *capsys.readouterr()) == ((0, out + verdict, "") if passed
                                                 else (1, out, verdict)), args


def _physics_cfg(tmp_path, u0, v0, phi0, g, l1="1.0", n="8"):
    text = (MINIMAL.replace("u0 = 4.0", f"u0 = {u0}").replace("v0 = 4.0", f"v0 = {v0}")
            .replace("phi0 = 1.0", f"phi0 = {phi0}").replace("g = 9.81", f"g = {g}")
            .replace("L1 = 1.0", f"L1 = {l1}").replace("= 16", f"= {n}"))
    return write_cfg(tmp_path, text)


# configs the parser accepts that set-up must reject (exit 2), with the
# first line each command prints: an energy weight that underflows, split
# matrices that overflow over the grid spacing, and a boundary projection
# with no finite inverse
SETUP_REJECTED = {
    "energy weight": (("1e153", "1e153", "1e300", "1e-290"), "1.0", "8",
                      "g/phi0 underflows to 0 for this base state"),
    "grid spacing": (("2.5", "2.5", "1.0", "9.81"), "1e-320", "8",
                     "the split matrices over the grid spacing (dx, dy)"),
    "projection": (("1e-155", "1e-155", "1.0", "9.81"), "1.0", "9",
                   "the boundary projection at the West nodes"),
}


@pytest.mark.parametrize("command", ["run", "probe-positivity"])
@pytest.mark.parametrize("case", sorted(SETUP_REJECTED))
def test_cli_rejects_a_config_set_up_cannot_represent(case, command, tmp_path, capsys):
    """These ended in a LAPACK LinAlgError, a ZeroDivisionError or a NaN
    projection (stopping the run at step 0, or a probe PASS on inf)."""
    physics, l1, n, message = SETUP_REJECTED[case]
    cfg = _physics_cfg(tmp_path, *physics, l1=l1, n=n)
    args = ["--out", str(tmp_path / "out")] if command == "run" else ["--samples", "2"]
    code = cli.main([command, "--config", cfg, *args])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: " + message)


def test_cli_solve_elliptic_rejects_coefficients_whose_square_overflows(tmp_path, capsys):
    cfg = _physics_cfg(tmp_path, "1e-155", "1e-155", "1.0", "9.81", n="9")
    code = cli.main(["solve-elliptic", "--config", cfg])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: the largest coefficient magnitude squared overflows a float")


def test_cli_probe_positivity_fails_on_a_non_finite_quotient(tmp_path, capsys):
    """It printed 'min quotient inf over 2 samples' and PASS."""
    cfg = _physics_cfg(tmp_path, "100.0", "100.0", "1.0", "9.81", l1="7e-306")
    code = cli.main(["probe-positivity", "--config", cfg, "--samples", "2"])
    captured = capsys.readouterr()
    assert code == 1 and "PASS" not in captured.out
    assert captured.err == "error: positivity probe sample 0: the quotient is nan\n"
