"""Strict sectioned key=value configuration files.

Grammar (one directive per line):

    # comment to end of line
    [section]
    key = value

Sections and keys come from a fixed schema; unknown sections or keys are
errors, as are duplicates -- a typo never silently picks up a default.
Values are decimal numbers or plain words; '#' starts a comment anywhere.

Required keys: physics.{u0,v0,phi0,g}, grid.{L1,L2,nx,ny}, run.{t_end,cfl}.
Everything else has a documented default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import InvalidValue, IoError, MissingKey, ParseError, UnknownKey
from .fields import Grid
from .regime import PhysicalConstants, validate_params

# key -> (type tag, required, default); types: f float, i int, s string
_SCHEMA: Dict[str, Dict[str, Tuple[str, bool, object]]] = {
    "physics": {
        "u0": ("f", True, None),
        "v0": ("f", True, None),
        "phi0": ("f", True, None),
        "g": ("f", True, None),
        "f": ("f", False, 0.0),
    },
    "grid": {
        "L1": ("f", True, None),
        "L2": ("f", True, None),
        "nx": ("i", True, None),
        "ny": ("i", True, None),
    },
    "run": {
        "t_end": ("f", True, None),
        "cfl": ("f", True, None),
        "scheme": ("s", False, "ssprk2"),
        "seed": ("i", False, 0),
    },
    "forcing": {
        "kind": ("s", False, "none"),
        "file": ("s", False, ""),
    },
    "boundary": {
        "kind": ("s", False, "homogeneous"),
        "file": ("s", False, ""),
    },
    "output": {
        "dir": ("s", False, "."),
        "cadence": ("i", False, 0),
        "precision": ("i", False, 17),
    },
}

_CHOICES = {
    "run.scheme": ("ssprk2", "euler"),
    "forcing.kind": ("none", "manufactured", "file"),
    "boundary.kind": ("homogeneous", "manufactured", "file"),
}


# schema keys whose bare name is ambiguous carry their section in the field name
_FIELD_NAMES = {
    ("forcing", "kind"): "forcing_kind",
    ("forcing", "file"): "forcing_file",
    ("boundary", "kind"): "boundary_kind",
    ("boundary", "file"): "boundary_file",
    ("output", "dir"): "output_dir",
}


@dataclass
class ConfigDocument:
    u0: float
    v0: float
    phi0: float
    g: float
    f: float
    L1: float
    L2: float
    nx: int
    ny: int
    t_end: float
    cfl: float
    scheme: str
    seed: int
    forcing_kind: str
    forcing_file: str
    boundary_kind: str
    boundary_file: str
    output_dir: str
    cadence: int
    precision: int
    source: str = ""

    def constants(self) -> PhysicalConstants:
        return validate_params(self.u0, self.v0, self.phi0, self.g, self.f)

    def make_grid(self) -> Grid:
        return Grid(self.L1, self.L2, self.nx, self.ny)


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


def _convert(section: str, key: str, raw: str):
    tag = _SCHEMA[section][key][0]
    dotted = f"{section}.{key}"
    if tag == "f":
        try:
            val = float(raw)
        except ValueError:
            raise InvalidValue(f"{dotted}: not a number: '{raw}'") from None
        if val != val or val in (float("inf"), float("-inf")):
            raise InvalidValue(f"{dotted}: must be finite, got '{raw}'")
        return val
    if tag == "i":
        try:
            val = int(raw)
        except ValueError:
            raise InvalidValue(f"{dotted}: not an integer: '{raw}'") from None
        return val
    choices = _CHOICES.get(dotted)
    if choices and raw not in choices:
        raise InvalidValue(f"{dotted}: must be one of {choices}, got '{raw}'")
    return raw


def parse_config(text: str, source: str = "<string>") -> ConfigDocument:
    raw = _parse_lines(text)
    values = {}
    for section, keys in _SCHEMA.items():
        for key, (tag, required, default) in keys.items():
            if (section, key) in raw:
                values[(section, key)] = _convert(section, key, raw[(section, key)])
            elif required:
                raise MissingKey(f"{section}.{key}")
            else:
                values[(section, key)] = default

    doc = ConfigDocument(**{_FIELD_NAMES.get(sk, sk[1]): v for sk, v in values.items()},
                         source=source)
    _validate_semantics(doc)
    return doc


def _validate_semantics(doc: ConfigDocument) -> None:
    if doc.nx < 4 or doc.ny < 4:
        raise InvalidValue(f"grid.nx/grid.ny must be >= 4, got ({doc.nx}, {doc.ny})")
    if doc.L1 <= 0 or doc.L2 <= 0:
        raise InvalidValue(f"grid.L1/grid.L2 must be positive, got ({doc.L1}, {doc.L2})")
    if doc.t_end <= 0:
        raise InvalidValue(f"run.t_end must be positive, got {doc.t_end}")
    if not (0.0 < doc.cfl <= 0.9):
        raise InvalidValue(f"run.cfl must be in (0, 0.9], got {doc.cfl}")
    if doc.seed < 0:
        raise InvalidValue(f"run.seed must be nonnegative, got {doc.seed}")
    if doc.cadence < 0:
        raise InvalidValue(f"output.cadence must be nonnegative, got {doc.cadence}")
    if not (1 <= doc.precision <= 17):
        raise InvalidValue(f"output.precision must be in 1..17, got {doc.precision}")
    if doc.forcing_kind == "file" and not doc.forcing_file:
        raise MissingKey("forcing.file")
    if doc.boundary_kind == "file" and not doc.boundary_file:
        raise MissingKey("boundary.file")


def load_config(path) -> ConfigDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config '{path}': {exc}") from None
    return parse_config(text, source=str(path))


def _resolve(doc: ConfigDocument, name: str, base_dir) -> str:
    import os.path

    if os.path.isabs(name):
        return name
    if base_dir is None:
        base_dir = os.path.dirname(doc.source) if doc.source not in ("", "<string>") else "."
    return os.path.join(base_dir, name)


def _field_on_grid(path, grid: Grid):
    from .io_csv import read_field_csv

    x, y, state = read_field_csv(path)
    if (x.size, y.size) != (grid.nx, grid.ny):
        raise InvalidValue(
            f"field file '{path}' is {x.size}x{y.size}, run grid is {grid.nx}x{grid.ny}"
        )
    return state


def build_run_config(doc: ConfigDocument, base_dir=None):
    """Assemble an executable run description from a parsed document.

    File-backed forcing and boundary data are read once and held constant in
    time; relative paths resolve against the config file's directory.
    """
    from .boundary import BoundaryData, bc_catalog
    from .evolve import RunConfig
    from .manufactured import DEFAULT_SOLUTION
    from .operator import band_limited_fields
    from .regime import classify
    from .rng import SplitMix64

    p = doc.constants()
    grid = doc.make_grid()
    regime = classify(p)
    spec = bc_catalog(regime, p)

    if doc.forcing_kind == "manufactured":
        forcing = DEFAULT_SOLUTION.forcing_on_grid(p, grid)
        initial = DEFAULT_SOLUTION.state_field(grid, 0.0)
    elif doc.forcing_kind == "file":
        stack = _field_on_grid(_resolve(doc, doc.forcing_file, base_dir), grid).stack()
        forcing = lambda t, _s=stack: _s  # noqa: E731 - constant-in-time source
        initial = _seeded_initial(doc, grid, band_limited_fields, SplitMix64)
    else:
        forcing = None
        initial = _seeded_initial(doc, grid, band_limited_fields, SplitMix64)

    if doc.boundary_kind == "manufactured":
        data = BoundaryData.from_state_samples(spec, grid, DEFAULT_SOLUTION.state)
    elif doc.boundary_kind == "file":
        trace = _field_on_grid(_resolve(doc, doc.boundary_file, base_dir), grid).stack()
        lines = {"W": trace[:, 0, :], "E": trace[:, -1, :],
                 "S": trace[:, :, 0], "N": trace[:, :, -1]}
        samplers = {}
        for side, rows in spec.rows.items():
            if rows.shape[0]:
                samplers[side] = (
                    lambda t, _g=rows @ lines[side.value]: _g
                )
        data = BoundaryData(samplers=samplers)
    else:
        data = BoundaryData.homogeneous()

    return RunConfig(
        p=p, grid=grid, t_end=doc.t_end, initial=initial,
        cfl=doc.cfl, scheme=doc.scheme, forcing=forcing,
        boundary_data=data, snapshot_cadence=doc.cadence,
    )


def _seeded_initial(doc: ConfigDocument, grid: Grid, band_limited_fields, SplitMix64):
    from .fields import StateField

    rng = SplitMix64(doc.seed)
    u, v, phi = band_limited_fields(rng, grid.nx, grid.ny, n_fields=3)
    return StateField(u, v, phi)
