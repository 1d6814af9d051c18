"""Property tests for config parsing: generated documents round-trip exactly.

Documents list the schema's keys in random order (a section header is
repeated whenever the next key belongs to another section), with full-line
and trailing comments, blank lines, random indentation and floats written
with repr, so float(text) gives the generated value back bit for bit.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import swerect as sw
from swerect.config import _FIELD_NAMES, _SCHEMA
from swerect.errors import InvalidValue, ParseError, UnknownKey

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
COUNT = st.integers(min_value=0, max_value=10**12)
WORD = st.text("abcdefghijklmnopqrstuvwxyzABCXYZ0123456789._/-", min_size=1, max_size=12)
# interior blanks survive: the parser strips only the ends of a value
PATH = st.builds(lambda a, b: f"{a} {b}" if b else a, WORD, st.one_of(st.just(""), WORD))

VALUES = {
    ("physics", "u0"): FINITE,
    ("physics", "v0"): FINITE,
    ("physics", "phi0"): FINITE,
    ("physics", "g"): FINITE,
    ("physics", "f"): FINITE,
    ("grid", "L1"): POSITIVE,
    ("grid", "L2"): POSITIVE,
    ("grid", "nx"): st.integers(min_value=4, max_value=10**6),
    ("grid", "ny"): st.integers(min_value=4, max_value=10**6),
    ("run", "t_end"): POSITIVE,
    ("run", "cfl"): st.floats(min_value=0.0, max_value=0.9, exclude_min=True),
    ("run", "scheme"): st.sampled_from(["ssprk2", "euler"]),
    ("run", "seed"): COUNT,
    ("forcing", "kind"): st.sampled_from(["none", "manufactured", "file"]),
    ("forcing", "file"): PATH,
    ("boundary", "kind"): st.sampled_from(["homogeneous", "manufactured", "file"]),
    ("boundary", "file"): PATH,
    ("output", "dir"): PATH,
    ("output", "cadence"): COUNT,
    ("output", "precision"): st.integers(min_value=1, max_value=17),
}

# comments hold look-alikes of every directive, so a comment the parser
# failed to drop would change the result; nothing splitlines() breaks on
COMMENT = ["", " note", "#", " u0 = 5.0", " [grid]", "nx=4 # again", "=", "]["]
BLANKS = ["", " ", "\t", "  \t "]
COMMENT_LINE = st.sampled_from([pad + "#" + c for pad in ("", "  ") for c in COMMENT])
BLANK_LINE = st.sampled_from(BLANKS)
TRAIL = st.sampled_from(BLANKS + [pad + "#" + c for pad in BLANKS for c in COMMENT])
PADS = st.tuples(*[st.sampled_from(BLANKS)] * 4)
FEW = st.integers(0, 2)
# even the smallest document has the ten required keys, each a few draws
SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.large_base_example])


def test_value_strategies_cover_the_schema():
    assert sorted(VALUES) == sorted((s, k) for s, keys in _SCHEMA.items() for k in keys)


def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def documents(draw):
    """(lines, entries): entries[(section, key)] = (value, index of its line)."""
    values = {}
    for (section, key), strategy in VALUES.items():
        if _SCHEMA[section][key][1] or draw(st.booleans()):
            values[(section, key)] = draw(strategy)
    # a 'file' kind needs its file key
    for section in ("forcing", "boundary"):
        if values.get((section, "kind")) == "file" and (section, "file") not in values:
            values[(section, "file")] = draw(PATH)
    lines, entries, current = [], {}, None
    for section, key in draw(st.permutations(sorted(values))):
        lines += [draw(COMMENT_LINE) for _ in range(draw(FEW))]
        if section != current or draw(FEW) == 0:
            a, b, c, d = draw(PADS)
            lines.append(f"{a}[{b}{section}{c}]{d}")
            current = section
        lines += [draw(BLANK_LINE) for _ in range(draw(FEW))]
        a, b, c, d = draw(PADS)
        entries[(section, key)] = (values[(section, key)], len(lines))
        lines.append(f"{a}{key}{b}={c}{_text(values[(section, key)])}{d}{draw(TRAIL)}")
    return lines, entries


def _same(got, want) -> bool:
    if isinstance(want, float):
        return type(got) is float and math.copysign(1.0, got) == math.copysign(1.0, want) \
            and got == want
    return type(got) is type(want) and got == want


@settings(max_examples=150, **SETTINGS)
@given(documents(), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_generated_document_round_trips(doc, newline, final_newline):
    lines, entries = doc
    text = newline.join(lines) + (newline if final_newline else "")
    parsed = sw.parse_config(text, source="gen.cfg")
    for section, key in VALUES:
        default = _SCHEMA[section][key][2]
        want = entries[(section, key)][0] if (section, key) in entries else default
        got = getattr(parsed, _FIELD_NAMES.get((section, key), key))
        assert _same(got, want), (section, key, got, want)
    assert parsed.source == "gen.cfg"


@settings(max_examples=60, **SETTINGS)
@given(documents(), st.data())
def test_duplicate_key_names_its_line(doc, data):
    lines, entries = doc
    section, key = data.draw(st.sampled_from(sorted(entries)))
    value, first = entries[(section, key)]
    at = data.draw(st.integers(first + 1, len(lines)))
    lines = lines[:at] + [f"[{section}]", f"{key} = {_text(value)}"] + lines[at:]
    with pytest.raises(ParseError) as info:
        sw.parse_config("\n".join(lines))
    assert info.value.line == at + 2
    assert f"duplicate key '{section}.{key}'" in str(info.value)


@settings(max_examples=60, **SETTINGS)
@given(documents(), st.data())
def test_unknown_key_names_its_line(doc, data):
    lines, _ = doc
    section = data.draw(st.sampled_from(sorted(_SCHEMA)))
    key = data.draw(st.text("abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8)
                    .filter(lambda k: k not in _SCHEMA[section]))
    at = data.draw(st.integers(0, len(lines)))
    lines = lines[:at] + [f"[{section}]", f"{key} = 1.0"] + lines[at:]
    with pytest.raises(UnknownKey) as info:
        sw.parse_config("\n".join(lines))
    assert str(info.value) == f"unknown key '{section}.{key}' (line {at + 2})"


def test_readme_config_example_parses():
    """The README's example config is a valid document that shows every
    schema key, set or as a comment."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    doc = sw.parse_config(block, source="README.md")
    assert (doc.nx, doc.ny, doc.forcing_kind, doc.boundary_kind) == (64, 64, "none", "homogeneous")
    sections = re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", block, re.M | re.S)
    shown = {(section, key) for section, body in sections
             for key in re.findall(r"^(?:# )?(\w+) =", body, re.M)}
    assert shown == {(section, key) for section, keys in _SCHEMA.items() for key in keys}


# ten required keys with valid values; a test overrides one of them
BASE = {"physics.u0": "4.0", "physics.v0": "4.0", "physics.phi0": "1.0", "physics.g": "9.81",
        "grid.L1": "1.0", "grid.L2": "1.0", "grid.nx": "16", "grid.ny": "16",
        "run.t_end": "0.05", "run.cfl": "0.45"}


def _document(**values):
    """A config with each 'section.key' in its own (reopened) section."""
    return "".join(f"[{k.split('.')[0]}]\n{k.split('.')[1]} = {v}\n"
                   for k, v in {**BASE, **values}.items())


def _run_config(**kw):
    grid = sw.Grid(1.0, 1.0, 16, 16)
    return sw.RunConfig(**{"p": sw.validate_params(4.0, 4.0, 1.0, 9.81), "grid": grid,
                           "t_end": 0.05, "initial": sw.StateField.zeros(grid), **kw})


def _write_field(path, precision):
    grid = sw.Grid(1.0, 1.0, 4, 4)
    sw.write_field_csv(grid.x, grid.y, sw.StateField.zeros(grid), path / "f.csv",
                       precision=precision)


# (config key, bad text, the same bad value through the Python API owner)
SAME_RULE = [
    ("grid.nx", "3", lambda path: sw.Grid(1.0, 1.0, 3, 16)),
    ("grid.ny", "-2", lambda path: sw.Grid(1.0, 1.0, 16, -2)),
    ("grid.L1", "0.0", lambda path: sw.Grid(0.0, 1.0, 16, 16)),
    ("grid.L2", "-1.5", lambda path: sw.Grid(1.0, -1.5, 16, 16)),
    ("run.t_end", "0.0", lambda path: _run_config(t_end=0.0)),
    ("run.t_end", "-1.0", lambda path: _run_config(t_end=-1.0)),
    ("run.cfl", "0.95", lambda path: _run_config(cfl=0.95)),
    ("run.cfl", "0.0", lambda path: _run_config(cfl=0.0)),
    ("run.scheme", "rk4", lambda path: _run_config(scheme="rk4")),
    ("output.cadence", "-3", lambda path: _run_config(snapshot_cadence=-3)),
    ("output.precision", "0", lambda path: _write_field(path, 0)),
    ("output.precision", "18", lambda path: sw.write_energy_csv(sw.EnergyLog(), path / "e.csv",
                                                                precision=18)),
    # values that are not real numbers: the parser's number syntax and the
    # owners' type checks reject them alike
    ("run.cfl", '"0.45"', lambda path: _run_config(cfl="0.45")),
    ("run.t_end", "True", lambda path: _run_config(t_end=True)),
    ("grid.L1", '"1.0"', lambda path: dataclasses.replace(sw.parse_config(_document()), L1="1.0")),
    ("grid.L1", "True", lambda path: sw.Grid(True, 1.0, 16, 16)),
    ("physics.u0", '"4.0"', lambda path: sw.validate_params("4.0", 4.0, 1.0, 9.81)),
]


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("key, text, api", SAME_RULE,
                         ids=[f"{key}={text}" for key, text, _ in SAME_RULE])
def test_config_and_api_reject_the_same_value(key, text, api, tmp_path):
    """Each rule has one owner, so a config file and the Python API reject a
    bad value alike: same class, and the owner's message in both."""
    with pytest.raises(sw.SweRectError) as from_config:
        sw.parse_config(_document(**{key: text}))
    with pytest.raises(sw.SweRectError) as from_api:
        api(tmp_path)
    assert type(from_config.value) is type(from_api.value) is InvalidValue
    # the parser's own checks, of a choice or of the number syntax, name the key
    if key != "run.scheme" and _is_number(text):
        assert str(from_config.value) == str(from_api.value)
    assert list(tmp_path.iterdir()) == []


# (config key, bad text, document field, the same bad value built in Python)
SAME_DOCUMENT = [
    ("forcing.kind", "foo", "forcing_kind", "foo"),
    ("boundary.kind", "Manufactured", "boundary_kind", "Manufactured"),
    ("run.scheme", "rk4", "scheme", "rk4"),
    ("run.seed", str(2**64), "seed", 2**64),
    ("run.seed", "-1", "seed", -1),
    ("output.precision", "40", "precision", 40),
    ("output.cadence", "-3", "cadence", -3),
    ("grid.nx", "3", "nx", 3),
    ("forcing.kind", "file", "forcing_kind", "file"),
    ("boundary.kind", "file", "boundary_kind", "file"),
    ("physics.f", "nan", "f", math.nan),
    ("physics.u0", "inf", "u0", math.inf),
    ("grid.L1", "-inf", "L1", -math.inf),
    ("run.cfl", "nan", "cfl", math.nan),
]


@pytest.mark.parametrize("key, text, name, value", SAME_DOCUMENT,
                         ids=[f"{key}={text}" for key, text, _, _ in SAME_DOCUMENT])
def test_document_built_in_python_is_checked_like_config_text(key, text, name, value):
    """A ConfigDocument checks itself when it is constructed, so one made by
    dataclasses.replace on a parsed document raises what the same value
    raises in config text: same class, same message."""
    with pytest.raises(sw.SweRectError) as from_text:
        sw.parse_config(_document(**{key: text}))
    valid = sw.parse_config(_document())
    with pytest.raises(sw.SweRectError) as from_python:
        dataclasses.replace(valid, **{name: value})
    assert type(from_python.value) is type(from_text.value)
    assert str(from_python.value) == str(from_text.value)


# (document field, value that is not an integer, the owner's message)
NOT_INTEGERS = [
    ("cadence", 2.5, "snapshot cadence must be an integer, got 2.5"),
    ("cadence", True, "snapshot cadence must be an integer, got True"),
    ("seed", 2.5, "run.seed must be an integer, got 2.5"),
    ("seed", False, "run.seed must be an integer, got False"),
    ("precision", 5.0, "precision must be an integer, got 5.0"),
    ("nx", 16.0, "nx, ny must be integers, got (16.0, 16)"),
]


@pytest.mark.parametrize("name, value, message", NOT_INTEGERS,
                         ids=[f"{name}={value!r}" for name, value, _ in NOT_INTEGERS])
def test_document_rejects_integer_settings_that_are_not_integers(name, value, message):
    valid = sw.parse_config(_document())
    with pytest.raises(InvalidValue) as info:
        dataclasses.replace(valid, **{name: value})
    assert str(info.value) == message
    # NumPy integers are integers
    assert getattr(dataclasses.replace(valid, **{name: np.int64(17)}), name) == 17


def test_config_document_requires_its_required_keys_by_name():
    valid = dataclasses.asdict(sw.parse_config(_document()))
    for section, keys in _SCHEMA.items():
        for key, (_, required, _, _) in keys.items():
            if required:
                name = _FIELD_NAMES[(section, key)]
                with pytest.raises(TypeError, match=f"argument: '{name}'"):
                    sw.ConfigDocument(**{k: v for k, v in valid.items() if k != name})
    with pytest.raises(TypeError):
        sw.ConfigDocument(*valid.values())
    assert sw.ConfigDocument(**valid) == sw.parse_config(_document())


# (owner, value that is not a real number, the owner's message)
NOT_REALS = [
    (lambda v: sw.Grid(v, 1.0, 16, 16), True, "domain lengths must be real numbers, got (True, 1.0)"),
    (lambda v: sw.Grid(1.0, v, 16, 16), "1.0", "domain lengths must be real numbers, got (1.0, '1.0')"),
    (lambda v: _run_config(t_end=v), True, "t_end must be a real number, got True"),
    (lambda v: _run_config(cfl=v), "0.45", "cfl must be a real number, got '0.45'"),
    (lambda v: sw.validate_params(v, 4.0, 1.0, 9.81), "4.0", "u0 must be a real number, got '4.0'"),
    (lambda v: sw.validate_params(4.0, 4.0, 1.0, 9.81, v), False, "f must be a real number, got False"),
]


@pytest.mark.parametrize("owner, value, message", NOT_REALS, ids=[m for _, _, m in NOT_REALS])
def test_real_settings_reject_values_that_are_not_real(owner, value, message):
    with pytest.raises(InvalidValue) as info:
        owner(value)
    assert type(info.value) is InvalidValue and str(info.value) == message
    # ints and NumPy reals are real numbers; bools and text are not
    assert [sw.fields.is_real(v) for v in (1, 0.5, np.float32(0.5), np.int8(2))] == [True] * 4
    assert [sw.fields.is_real(v) for v in (True, np.bool_(True), "1.0", None)] == [False] * 4


@pytest.mark.parametrize("output_dir", [None, "", 3])
def test_document_output_dir_is_a_non_empty_string(output_dir):
    valid = sw.parse_config(_document())
    with pytest.raises(InvalidValue) as info:
        dataclasses.replace(valid, output_dir=output_dir)
    assert str(info.value) == f"output.dir: must be a non-empty path, got {output_dir!r}"
