"""CSV serialization for fields and energy logs.

Field files carry the header ``x,y,u,v,phi`` and one row per grid node in
x-major order (all y for the first x, then the next x, ...).  Energy logs
carry ``t,energy``.  Values are written with ``%.17g``-style formatting by
default, which round-trips IEEE doubles exactly, so a rerun with the same
seed produces byte-identical files.  Field files are written one x-row at a
time.  A field file is read by NumPy's tokenizer (np.loadtxt), which holds
the (n, 5) values and one chunk of text, after a first pass that scans the
bytes 1 MiB at a time; a file that pass or the tokenizer does not take is
read line by line by the streaming reader, which holds the values and one
line.  Neither path holds the whole text or a Python list per row.
"""

from __future__ import annotations

import math
import warnings
from array import array
from contextlib import contextmanager
from itertools import chain
from typing import Iterator, List, Optional, TextIO, Tuple

import numpy as np

from .errors import InvalidValue, IoError, NonFinite
from .fields import EnergyLog, StateField, is_integer

FIELD_HEADER = "x,y,u,v,phi"
ENERGY_HEADER = "t,energy"


def check_precision(precision: int) -> None:
    """Significant digits a writer accepts: 1..17 (17 round-trips a double)."""
    if not is_integer(precision):
        raise InvalidValue(f"precision must be an integer, got {precision!r}")
    if not 1 <= precision <= 17:
        raise InvalidValue(f"precision must be in 1..17, got {precision}")


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def write_field_csv(x, y, state: StateField, path, precision: int = 17) -> None:
    """Write a state on the tensor grid ``x`` (outer) by ``y`` (inner).

    Streamed one x-row at a time: each row of ``ny`` nodes is one
    %-template with the y column already formatted in it.
    """
    check_precision(precision)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if state.u.shape != (x.size, y.size):
        raise InvalidValue(
            f"field shape {state.u.shape} does not match grid ({x.size}, {y.size})"
        )
    node = f"%.{precision}g"
    # "X" marks the x column; no formatted number contains it
    row = "".join(f"X,{_fmt(yj, precision)},{node},{node},{node}\n" for yj in y.tolist())
    values = np.stack((state.u, state.v, state.phi), axis=-1)  # (nx, ny, 3)
    with _writing(path) as fh:
        fh.write(FIELD_HEADER + "\n")
        for xi, vals in zip(x.tolist(), values):
            fh.write(row.replace("X", _fmt(xi, precision)) % tuple(vals.ravel().tolist()))


def read_field_csv(path) -> Tuple[np.ndarray, np.ndarray, StateField]:
    data = _tokenized(path)
    if data is None:
        data = _parsed(path)
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


# ASCII characters other than "\n" and "\r" at which str.splitlines, and
# so _records, breaks a line, while the tokenizer reads them as whitespace
_LINE_BREAKS = tuple(c.encode() for c in "\x0b\x0c\x1c\x1d\x1e")


def _tokenized(path) -> Optional[np.ndarray]:
    """The (n, 5) data rows of a field file as np.loadtxt reads them, or
    None when it may read them otherwise than _parsed would.

    On ASCII text without the breaks above the tokenizer sees the lines
    _records sees, and it parses a number with the routine float() uses;
    what it does not take (underscores, blank lines with spaces, a bad
    field count, no data) it refuses, and so does every non-finite value
    here.  None sends the file to _parsed, which reads it as before and
    raises the error that names the line.
    """
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                if not chunk.isascii() or any(c in chunk for c in _LINE_BREAKS):
                    return None
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().strip() != FIELD_HEADER:
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data"
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except Exception:
        return None
    if data.shape[1:] != (5,) or not data.size or not np.isfinite(data).all():
        return None
    return data


def _parsed(path) -> np.ndarray:
    """The (n, 5) data rows of a field file, read by _records."""
    values = array("d")
    for lineno, parts in _records(path, FIELD_HEADER, 5):
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise IoError(f"'{path}' line {lineno}: malformed number") from None
        if not all(map(math.isfinite, row)):
            raise IoError(f"'{path}' line {lineno}: non-finite value")
        values.extend(row)
    if not values:
        raise IoError(f"'{path}': no data rows")
    return np.frombuffer(values, dtype=float).reshape(-1, 5)


def write_energy_csv(log: EnergyLog, path, precision: int = 17) -> None:
    check_precision(precision)
    lines = [ENERGY_HEADER]
    for t, e in zip(log.times, log.energies):
        lines.append(f"{_fmt(t, precision)},{_fmt(e, precision)}")
    with _writing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_energy_csv(path) -> EnergyLog:
    log = EnergyLog()
    for lineno, (t, e) in _records(path, ENERGY_HEADER, 2):
        try:
            t, e = float(t), float(e)
        except ValueError:
            raise IoError(f"'{path}' line {lineno}: malformed number") from None
        try:
            log.append(t, e)
        except (NonFinite, InvalidValue) as exc:
            raise IoError(f"'{path}' line {lineno}: {exc}") from None
    return log


@contextmanager
def _writing(path) -> Iterator[TextIO]:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot write '{path}': {exc}") from None


def _records(path, header: str, n_fields: int) -> Iterator[Tuple[int, List[str]]]:
    """(line number, fields) of every non-blank line after ``header``.

    Streams the file; lines split exactly as ``str.splitlines`` splits the
    whole text.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = enumerate(chain.from_iterable(map(str.splitlines, fh)), start=1)
            first = next(lines, (1, None))[1]
            if first is None or first.strip() != header:
                raise IoError(f"'{path}': expected header '{header}'")
            for lineno, line in lines:
                if not line.strip():
                    continue
                parts = line.split(",")
                if len(parts) != n_fields:
                    raise IoError(f"'{path}' line {lineno}: expected {n_fields} fields, "
                                  f"got {len(parts)}")
                yield lineno, parts
    except OSError as exc:
        raise IoError(f"cannot read '{path}': {exc}") from None
    except UnicodeDecodeError as exc:
        raise IoError(f"cannot read '{path}': not UTF-8 text ({exc.reason})") from None
