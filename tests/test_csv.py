"""Field and energy CSV files: byte identity with the reference writer,
reader parity with the reference reader, round trips, and the sha256 of
every file two seeded `swerect run` configs and `solve-elliptic --out`
write.

The reference writer and reader in helpers.py hold the whole file as text
and one Python list per row; the package streams.  The two must agree byte
for byte on output and message for message on rejected input.
"""

import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swerect as sw
from swerect import cli
from swerect.errors import InvalidValue, IoError

from helpers import reference_read_field_csv, reference_write_field_csv

SPECIAL = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-300, -1e-300,
           1e300, -1e300, 1.7976931348623157e308, 1e16, -1e16, 1e17, 3.0, -7.0,
           123456789012345678.0, 0.1, 1 / 3, math.pi, -1e-5, 1e-4, 9.999999999999999e22]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True),
                   st.integers(-10**6, 10**6).map(float))


def _state(values, nx, ny):
    w = np.array(values, dtype=float).reshape(3, nx, ny)
    return sw.StateField(w[0], w[1], w[2])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), nx=st.integers(1, 6), ny=st.integers(1, 6),
       precision=st.integers(1, 17))
def test_field_csv_bytes_match_reference(data, nx, ny, precision, tmp_path_factory):
    x = data.draw(st.lists(VALUES, min_size=nx, max_size=nx))
    y = data.draw(st.lists(VALUES, min_size=ny, max_size=ny))
    state = _state(data.draw(st.lists(VALUES, min_size=3 * nx * ny, max_size=3 * nx * ny)),
                   nx, ny)
    d = tmp_path_factory.mktemp("bytes")
    sw.write_field_csv(x, y, state, d / "new.csv", precision=precision)
    reference_write_field_csv(x, y, state, d / "ref.csv", precision=precision)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


FINITE = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), nx=st.integers(1, 6), ny=st.integers(1, 6))
def test_field_csv_round_trip_property(data, nx, ny, tmp_path_factory):
    x = data.draw(st.lists(FINITE, min_size=nx, max_size=nx, unique=True))
    y = data.draw(st.lists(FINITE, min_size=ny, max_size=ny, unique=True))
    state = _state(data.draw(st.lists(FINITE, min_size=3 * nx * ny, max_size=3 * nx * ny)),
                   nx, ny)
    path = tmp_path_factory.mktemp("trip") / "f.csv"
    sw.write_field_csv(x, y, state, path)
    bx, by, back = sw.read_field_csv(path)
    assert _bits(bx) == _bits(x) and _bits(by) == _bits(y)
    assert _bits(back.stack()) == _bits(state.stack())
    rx, ry, ref = reference_read_field_csv(path)
    assert _bits(rx) == _bits(bx) and _bits(ry) == _bits(by)
    assert _bits(ref.stack()) == _bits(back.stack())


@settings(max_examples=100, deadline=None)
@given(times=st.lists(FINITE, max_size=12, unique=True), data=st.data())
def test_energy_csv_round_trip_property(times, data, tmp_path_factory):
    times = sorted(times)
    energies = data.draw(st.lists(FINITE, min_size=len(times), max_size=len(times)))
    log = sw.EnergyLog()
    for t, e in zip(times, energies):
        log.append(t, e)
    path = tmp_path_factory.mktemp("energy") / "e.csv"
    sw.write_energy_csv(log, path)
    back = sw.read_energy_csv(path)
    assert _bits(back.times) == _bits(log.times)
    assert _bits(back.energies) == _bits(log.energies)


# --- reader parity ----------------------------------------------------------


def _valid_lines(nx=3, ny=4, seed=5):
    grid = sw.Grid(1.0, 2.0, max(nx, 4), max(ny, 4))
    w = sw.band_limited_fields(sw.SplitMix64(seed), grid.nx, grid.ny)
    X, Y = grid.meshgrid()
    rows = np.stack([X, Y, *w], axis=-1).reshape(-1, 5)
    return ["x,y,u,v,phi"] + [",".join(repr(float(v)) for v in r) for r in rows]


def _corrupt(lines, kind, k, token):
    """Apply one corruption to data line k (1-based after the header)."""
    lines = list(lines)
    k = 1 + k % (len(lines) - 1)
    parts = lines[k].split(",")
    if kind == "fields-short":
        lines[k] = ",".join(parts[:-1])
    elif kind == "fields-long":
        lines[k] = lines[k] + ",0"
    elif kind == "token":
        parts[k % 5] = token
        lines[k] = ",".join(parts)
    elif kind == "blank":
        lines.insert(k, token if not token.strip() else "")
    elif kind == "header":
        lines[0] = "x,y,u,v"
    elif kind == "no-header":
        lines = lines[1:]
    elif kind == "header-only":
        lines = lines[:1]
    elif kind == "empty":
        lines = []
    elif kind == "swap":
        j = 1 + (k + 2) % (len(lines) - 1)
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == "drop":
        del lines[k]
    elif kind == "separator":
        cut = len(lines[k]) // 2
        lines[k] = lines[k][:cut] + token + lines[k][cut:]
    return lines


KINDS = ["none", "fields-short", "fields-long", "token", "blank", "header", "no-header",
         "header-only", "empty", "swap", "drop", "separator"]
TOKENS = ["nan", "inf", "-inf", "abc", "1.2.3", "", " ", "1e999", "\t", " 0.5 ", "1_0",
          "\x0c", "\x0b", "\x1c", "\x85", " ",
          # read differently by NumPy's tokenizer and float(), or breaking a
          # line only for str.splitlines: the reader must fall back on them
          "#", "\u2028", "\u2029", "\x1d", "\x1e", "0x1p3", "\uff11", "1e-400"]
ENDINGS = {"LF": "\n", "CRLF": "\r\n", "CR": "\r"}


def _outcome(reader, path):
    try:
        x, y, s = reader(path)
    except IoError as exc:
        return ("IoError", str(exc))
    return ("ok", _bits(x), _bits(y), _bits(s.stack()))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(KINDS), k=st.integers(0, 40), token=st.sampled_from(TOKENS),
       ending=st.sampled_from(sorted(ENDINGS)), trailing=st.booleans(),
       blanks=st.lists(st.integers(0, 20), max_size=3))
def test_field_reader_matches_reference(kind, k, token, ending, trailing, blanks,
                                        tmp_path_factory):
    lines = _valid_lines()
    if kind != "none":
        lines = _corrupt(lines, kind, k, token)
    for b in blanks:
        lines.insert(min(1 + b, len(lines)), "")
    eol = ENDINGS[ending]
    text = eol.join(lines) + (eol if trailing and lines else "")
    path = tmp_path_factory.mktemp("parity") / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(sw.read_field_csv, path) == _outcome(reference_read_field_csv, path)


def test_field_reader_line_numbers_count_blank_and_crlf_lines(tmp_path):
    lines = _valid_lines()
    lines[3] = lines[3].replace(",", ",nan,", 1).rsplit(",", 1)[0]
    path = tmp_path / "c.csv"
    path.write_bytes(("\r\n".join(lines[:2] + ["", "  "] + lines[2:]) + "\r\n").encode())
    with pytest.raises(IoError, match=r"c.csv' line 6: non-finite value"):
        sw.read_field_csv(path)


# --- energy reader ----------------------------------------------------------


@pytest.mark.parametrize("body, message", [
    ("0.0,1.0\n0.5,0.9\n0.5,0.8\n", "line 4: energy log times must increase: 0.5 after 0.5"),
    ("0.0,1.0\n\n0.5,0.9\n0.25,0.8\n", "line 5: energy log times must increase"),
    ("0.0,1.0\n0.5,inf\n", "line 3: non-finite energy at t=0.5"),
    ("0.0,1.0\r\n0.5\r\n", "line 3: expected 2 fields, got 1"),
    ("0.0,x\n", "line 2: malformed number"),
])
def test_energy_csv_rejections_name_file_and_line(tmp_path, body, message):
    path = tmp_path / "e.csv"
    path.write_text("t,energy\n" + body)
    with pytest.raises(IoError, match="e.csv' " + message):
        sw.read_energy_csv(path)


# --- pinned output files ----------------------------------------------------

RUN_A = """\
[physics]
u0 = 2.5
v0 = 2.5
phi0 = 1.0
g = 9.81
f = 3.0
[grid]
L1 = 1.0
L2 = 1.3
nx = 13
ny = 11
[run]
t_end = 0.05
cfl = 0.45
seed = 5
[forcing]
kind = manufactured
[boundary]
kind = manufactured
[output]
dir = a
cadence = 3
precision = 17
"""

RUN_B = """\
[physics]
u0 = 1.0
v0 = 1.0
phi0 = 1.0
g = 9.81
[grid]
L1 = 1.5
L2 = 1.0
nx = 10
ny = 7
[run]
t_end = 0.04
cfl = 0.45
seed = 11
[output]
dir = b
cadence = 4
precision = 9
"""

ELLIPTIC = """\
[physics]
u0 = 1.0
v0 = 1.0
phi0 = 1.0
g = 9.81
[grid]
L1 = 1.0
L2 = 1.3
nx = 12
ny = 9
[run]
t_end = 0.05
cfl = 0.45
[output]
dir = e
"""

# sha256 of every file each command writes, recorded before the field files
# were streamed: run A is a rotating fhs run with manufactured forcing and
# boundary data (13 steps, cadence 3), run B a homogeneous msub run at
# precision 9 (5 steps, cadence 4); in both the last snapshot is the final
# field, so the two files are equal.  Run A's files after the initial one
# were re-recorded when each upwind term became one matrix product with 1/h
# in the matrix; at 9 digits run B's did not move
PINNED_FILES = {
    "run-a": (RUN_A, "run", {
        "energy.csv": "eddac7e13ae8bb0dcef0682803f71a37d1a01892ca52d6a941c7729ab1843d20",
        "field_000000.csv": "fc41efec2e744dfa2e6d8441fca6433f3376425a889c93f67d07d3f48b9dee8d",
        "field_000001.csv": "e6c5388193d03458dd07b6971d507b1d3d30640bbc1d83d8b4e3d50e7bbb09b2",
        "field_000002.csv": "058a85422d9fa077bb4891fe6e2326141c46ddf30ab5ec41246532228228d643",
        "field_000003.csv": "b56873b396dee1ddcbcad9d39efa5ed748de38845a6a68e01be307d3148df074",
        "field_000004.csv": "ca3f77202fd056f54d0abee41e190e35357fc7da2a1f6247f80441525925136d",
        "field_000005.csv": "6c7ebb4f64710df86aba0f57aa18657ca47d36c9ec6e722a5c2a62cfc23239c3",
        "field_final.csv": "6c7ebb4f64710df86aba0f57aa18657ca47d36c9ec6e722a5c2a62cfc23239c3",
    }),
    "run-b": (RUN_B, "run", {
        "energy.csv": "ed28702d3a1d96de3410c3bc8c48536e116c85c3486836c753858566d5b75d28",
        "field_000000.csv": "bc793dca51c00df22abecf67fee7a642fa5a8bfb3b3e1310d8357e416849f047",
        "field_000001.csv": "60343858dca24c3af3e40bd3dcf89f231bb28397cf00698bc4456928f926936a",
        "field_000002.csv": "2e45f5436b421d2d4520f0d8ef5237c6bce397c19cba44bdd7e193cd0c051fc7",
        "field_final.csv": "2e45f5436b421d2d4520f0d8ef5237c6bce397c19cba44bdd7e193cd0c051fc7",
    }),
    "solve-elliptic": (ELLIPTIC, "solve-elliptic", {
        "theta.csv": "f3e2f902a6ee16d23c7085f3e4355c4b257931b1f92c47c14a74905d77dec94c",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_FILES))
def test_output_files_pinned(name, tmp_path, capsys):
    text, command, want = PINNED_FILES[name]
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    outdir = tmp_path / text.split("dir = ")[1].split("\n")[0]
    got = {fn: hashlib.sha256((outdir / fn).read_bytes()).hexdigest()
           for fn in sorted(os.listdir(outdir))}
    assert got == want


@pytest.mark.parametrize("precision", [-1, 0, 18])
def test_writers_reject_precision_outside_1_to_17(precision, tmp_path):
    grid = sw.Grid(1.0, 1.0, 4, 4)
    want = f"precision must be in 1..17, got {precision}"
    with pytest.raises(InvalidValue) as info:
        sw.write_field_csv(grid.x, grid.y, sw.StateField.zeros(grid), tmp_path / "f.csv",
                           precision=precision)
    assert str(info.value) == want
    log = sw.EnergyLog()
    log.append(0.0, 1.0)
    with pytest.raises(InvalidValue) as info:
        sw.write_energy_csv(log, tmp_path / "e.csv", precision=precision)
    assert str(info.value) == want
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("precision", [5.0, True, np.float64(5.0), "5"])
def test_writers_reject_precision_that_is_not_an_integer(precision, tmp_path):
    grid = sw.Grid(1.0, 1.0, 4, 4)
    want = f"precision must be an integer, got {precision!r}"
    with pytest.raises(InvalidValue) as info:
        sw.write_field_csv(grid.x, grid.y, sw.StateField.zeros(grid), tmp_path / "f.csv",
                           precision=precision)
    assert str(info.value) == want
    log = sw.EnergyLog()
    log.append(0.0, 1.0)
    with pytest.raises(InvalidValue) as info:
        sw.write_energy_csv(log, tmp_path / "e.csv", precision=precision)
    assert str(info.value) == want
    assert list(tmp_path.iterdir()) == []
    # a NumPy integer is an integer
    sw.write_energy_csv(log, tmp_path / "e.csv", precision=np.int64(5))
    assert (tmp_path / "e.csv").read_text().splitlines()[1] == "0,1"
