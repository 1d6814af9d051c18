"""Strict sectioned key=value configuration files.

Grammar (one directive per line):

    # comment to end of line
    [section]
    key = value

Sections and keys come from a fixed schema, the fields of ConfigDocument;
unknown sections or keys are errors, as are duplicates -- a typo never
silently picks up a default.
Values are decimal numbers or plain words; '#' starts a comment anywhere.

Required keys: physics.{u0,v0,phi0,g}, grid.{L1,L2,nx,ny}, run.{t_end,cfl}.
Everything else has a documented default.
"""

from __future__ import annotations

import math
import os.path
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Tuple

import numpy as np

from .boundary import BoundaryData, bc_catalog
from .errors import InvalidValue, IoError, MissingKey, ParseError, UnknownKey
from .evolve import SCHEMES, RunConfig, check_run_settings
from .fields import Grid, StateField, check_grid_settings, is_real
from .io_csv import check_precision, read_field_csv
from .manufactured import DEFAULT_SOLUTION
from .operator import band_limited_fields
from .regime import PhysicalConstants, validate_params
from .rng import SplitMix64, check_seed


def _key(section: str, key: str = "", default=MISSING, choices: Tuple[str, ...] = ()):
    """A schema entry: its section, its name in the file when that differs from
    the field's, its default when the key is optional, and its allowed words."""
    return field(default=default, metadata={"section": section, "key": key, "choices": choices})


@dataclass(kw_only=True)
class ConfigDocument:
    """A config document. Its fields are the schema, in file order; parsed or
    built in Python, a document gets the same checks when it is constructed."""

    u0: float = _key("physics")
    v0: float = _key("physics")
    phi0: float = _key("physics")
    g: float = _key("physics")
    f: float = _key("physics", default=0.0)
    L1: float = _key("grid")
    L2: float = _key("grid")
    nx: int = _key("grid")
    ny: int = _key("grid")
    t_end: float = _key("run")
    cfl: float = _key("run")
    scheme: str = _key("run", default="ssprk2", choices=SCHEMES)
    seed: int = _key("run", default=0)
    forcing_kind: str = _key("forcing", "kind", default="none",
                             choices=("none", "manufactured", "file"))
    forcing_file: str = _key("forcing", "file", default="")
    boundary_kind: str = _key("boundary", "kind", default="homogeneous",
                              choices=("homogeneous", "manufactured", "file"))
    boundary_file: str = _key("boundary", "file", default="")
    output_dir: str = _key("output", "dir", default=".")
    cadence: int = _key("output", default=0)
    precision: int = _key("output", default=17)
    source: str = ""

    def __post_init__(self):
        for (section, key), name in _FIELD_NAMES.items():
            value, (tag, _, _, choices) = getattr(self, name), _SCHEMA[section][key]
            if choices and value not in choices:
                raise InvalidValue(f"{section}.{key}: must be one of {choices}, got '{value}'")
            if tag == "float" and is_real(value) and not math.isfinite(value):
                raise InvalidValue(f"{section}.{key}: must be finite, got '{value}'")
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise InvalidValue(f"output.dir: must be a non-empty path, got {self.output_dir!r}")
        # like the base state, the spacing L/(n - 1) is checked when a run
        # is set up, not per key
        check_grid_settings(self.L1, self.L2, self.nx, self.ny)
        check_run_settings(self.t_end, self.cfl, self.scheme, self.cadence)
        check_seed(self.seed, "run.seed")
        check_precision(self.precision)
        if self.forcing_kind == "file" and not self.forcing_file:
            raise MissingKey("forcing.file")
        if self.boundary_kind == "file" and not self.boundary_file:
            raise MissingKey("boundary.file")

    def constants(self) -> PhysicalConstants:
        return validate_params(self.u0, self.v0, self.phi0, self.g, self.f)

    def make_grid(self) -> Grid:
        return Grid(self.L1, self.L2, self.nx, self.ny)


def _views():
    """The parser's views of the fields: section -> key -> (type name, required,
    default, choices) in file order, and (section, key) -> field name."""
    schema, names = {}, {}
    for f in fields(ConfigDocument):
        if f.metadata:
            section, key = f.metadata["section"], f.metadata["key"] or f.name
            required = f.default is MISSING
            schema.setdefault(section, {})[key] = (
                f.type, required, None if required else f.default, f.metadata["choices"])
            names[(section, key)] = f.name
    return schema, names


_SCHEMA, _FIELD_NAMES = _views()


def _parse_lines(text: str):
    """Raw (section, key, value, line, col) tuples, strictly validated."""
    section: Optional[str] = None
    seen = set()
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = line.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                raise ParseError("malformed section header", lineno, col)
            name = stripped[1:-1].strip()
            if name not in _SCHEMA:
                raise UnknownKey(f"unknown section '{name}' (line {lineno})")
            section = name
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value' or '[section]'", lineno, col)
        if section is None:
            raise ParseError("key outside any [section]", lineno, col)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError("empty key", lineno, col)
        if key not in _SCHEMA[section]:
            raise UnknownKey(f"unknown key '{section}.{key}' (line {lineno})")
        if (section, key) in seen:
            raise ParseError(f"duplicate key '{section}.{key}'", lineno, col)
        if not value:
            raise ParseError(f"empty value for '{section}.{key}'", lineno, col)
        seen.add((section, key))
        out[(section, key)] = value
    return out


def _convert(dotted: str, tag: str, raw: str):
    if tag == "float":
        try:
            return float(raw)
        except ValueError:
            raise InvalidValue(f"{dotted}: not a number: '{raw}'") from None
    if tag == "int":
        try:
            return int(raw)
        except ValueError:
            raise InvalidValue(f"{dotted}: not an integer: '{raw}'") from None
    return raw


def parse_config(text: str, source: str = "<string>") -> ConfigDocument:
    """Split the lines, convert the values' text and construct the document."""
    raw = _parse_lines(text)
    values = {}
    for section, keys in _SCHEMA.items():
        for key, (tag, required, _, _) in keys.items():
            if (section, key) in raw:
                values[_FIELD_NAMES[(section, key)]] = _convert(f"{section}.{key}", tag,
                                                                raw[(section, key)])
            elif required:
                raise MissingKey(f"{section}.{key}")
    return ConfigDocument(**values, source=source)


def load_config(path) -> ConfigDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config '{path}': {exc}") from None
    except UnicodeDecodeError as exc:
        raise IoError(f"cannot read config '{path}': not UTF-8 text ({exc.reason})") from None
    return parse_config(text, source=str(path))


def _resolve(doc: ConfigDocument, name: str) -> str:
    if os.path.isabs(name):
        return name
    base_dir = os.path.dirname(doc.source) if doc.source not in ("", "<string>") else "."
    return os.path.join(base_dir, name)


def _field_on_grid(path, grid: Grid):
    """The state of a field file on the run grid: each x (y) within 1e-9*L1
    (1e-9*L2) of grid.x (grid.y), which a file written at precision >= 10
    meets; InvalidValue names the file and its first coordinate off it."""
    x, y, state = read_field_csv(path)
    if (x.size, y.size) != (grid.nx, grid.ny):
        raise InvalidValue(
            f"field file '{path}' is {x.size}x{y.size}, run grid is {grid.nx}x{grid.ny}"
        )
    for name, got, want, length in (("x", x, grid.x, grid.l1), ("y", y, grid.y, grid.l2)):
        off = np.flatnonzero(~(np.abs(got - want) <= 1e-9 * length))
        if off.size:
            i = off[0]
            raise InvalidValue(f"field file '{path}' has {name}[{i}] = {float(got[i])!r}, "
                               f"run grid has {float(want[i])!r}")
    return state


def build_run_config(doc: ConfigDocument) -> RunConfig:
    """Assemble an executable run description from a parsed document.

    File-backed forcing and boundary data are read once and held constant in
    time; relative paths resolve against the config file's directory.
    """
    p = doc.constants()
    grid = doc.make_grid()
    spec = bc_catalog(p)

    if doc.forcing_kind == "manufactured":
        forcing = DEFAULT_SOLUTION.forcing_on_grid(p, grid)
        initial = DEFAULT_SOLUTION.state_field(grid, 0.0)
    elif doc.forcing_kind == "file":
        stack = _field_on_grid(_resolve(doc, doc.forcing_file), grid).stack()
        forcing = lambda t, _s=stack: _s  # noqa: E731 - constant-in-time source
        initial = _seeded_initial(doc, grid)
    else:
        forcing = None
        initial = _seeded_initial(doc, grid)

    if doc.boundary_kind == "manufactured":
        data = DEFAULT_SOLUTION.boundary_data_on_grid(spec, grid)
    elif doc.boundary_kind == "file":
        trace = _field_on_grid(_resolve(doc, doc.boundary_file), grid).stack()
        data = BoundaryData(samplers={
            side: lambda t, _g=rows @ side.line(trace): _g
            for side, rows in spec.rows.items() if rows.shape[0]
        })
    else:
        data = BoundaryData.homogeneous()

    return RunConfig(
        p=p, grid=grid, t_end=doc.t_end, initial=initial,
        cfl=doc.cfl, scheme=doc.scheme, forcing=forcing,
        boundary_data=data, snapshot_cadence=doc.cadence,
    )


def _seeded_initial(doc: ConfigDocument, grid: Grid) -> StateField:
    rng = SplitMix64(doc.seed)
    u, v, phi = band_limited_fields(rng, grid.nx, grid.ny, n_fields=3)
    return StateField(u, v, phi)
