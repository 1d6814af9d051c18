"""CSV serialization for fields and energy logs.

Field files carry the header ``x,y,u,v,phi`` and one row per grid node in
x-major order (all y for the first x, then the next x, ...).  Energy logs
carry ``t,energy``.  Values are written with ``%.17g``-style formatting by
default, which round-trips IEEE doubles exactly, so a rerun with the same
seed produces byte-identical files.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import InvalidValue, IoError
from .fields import EnergyLog, StateField

FIELD_HEADER = "x,y,u,v,phi"
ENERGY_HEADER = "t,energy"


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def write_field_csv(x, y, state: StateField, path, precision: int = 17) -> None:
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


def read_field_csv(path) -> Tuple[np.ndarray, np.ndarray, StateField]:
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


def write_energy_csv(log: EnergyLog, path, precision: int = 17) -> None:
    lines = [ENERGY_HEADER]
    for t, e in zip(log.times, log.energies):
        lines.append(f"{_fmt(t, precision)},{_fmt(e, precision)}")
    _write_text(path, "\n".join(lines) + "\n")


def read_energy_csv(path) -> EnergyLog:
    text = _read_text(path)
    lines = text.splitlines()
    if not lines or lines[0].strip() != ENERGY_HEADER:
        raise IoError(f"'{path}': expected header '{ENERGY_HEADER}'")
    log = EnergyLog()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise IoError(f"'{path}' line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            log.append(float(parts[0]), float(parts[1]))
        except ValueError:
            raise IoError(f"'{path}' line {lineno}: malformed number") from None
    return log


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write '{path}': {exc}") from None


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read '{path}': {exc}") from None
