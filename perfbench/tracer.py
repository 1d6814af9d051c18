"""In-memory span tracer installed around swerect's public callables.

Spans record (name, start, end, parent, op) and stay in memory until the
benchmark writes them out.  A span is only recorded while an op is open, so
oracle checks between ops pass straight through to the original callable.

Module functions are wrapped at every binding the package holds: evolve does
``from .operator import energy_value``, so the wrapper has to replace both
``swerect.operator.energy_value`` and ``swerect.evolve.energy_value`` (and
the re-export in ``swerect``).  Methods are wrapped once, on the class.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"

# layer table: span name -> (module path, attribute path).  Span names are
# <module>.<callable> and prefix the per-layer metric names; README.md
# groups them into layers.
SPANS: Dict[str, Tuple[str, str]] = {
    "operator.DiscreteOperator.apply_stack": ("swerect.operator", "DiscreteOperator.apply_stack"),
    "operator.energy_value": ("swerect.operator", "energy_value"),
    "operator.boundary_quadratic_forms": ("swerect.operator", "boundary_quadratic_forms"),
    "boundary.BcEnforcer.apply": ("swerect.boundary", "BcEnforcer.apply"),
    "boundary.BoundaryData.sample": ("swerect.boundary", "BoundaryData.sample"),
    "boundary.bc_catalog": ("swerect.boundary", "bc_catalog"),
    "boundary.adjoint_bc_catalog": ("swerect.boundary", "adjoint_bc_catalog"),
    "boundary.incoming_count_check": ("swerect.boundary", "incoming_count_check"),
    "manufactured.ManufacturedSolution.forcing": ("swerect.manufactured", "ManufacturedSolution.forcing"),
    "manufactured.ManufacturedSolution.state": ("swerect.manufactured", "ManufacturedSolution.state"),
    "evolve.run": ("swerect.evolve", "run"),
    "evolve.mms_convergence": ("swerect.evolve", "mms_convergence"),
    "fields.StateField.stack": ("swerect.fields", "StateField.stack"),
    "fields.StateField.from_stack": ("swerect.fields", "StateField.from_stack"),
    "fields.inner_product": ("swerect.fields", "inner_product"),
    "io_csv.write_field_csv": ("swerect.io_csv", "write_field_csv"),
    "io_csv.write_energy_csv": ("swerect.io_csv", "write_energy_csv"),
    "io_csv.read_field_csv": ("swerect.io_csv", "read_field_csv"),
    "io_csv.read_energy_csv": ("swerect.io_csv", "read_energy_csv"),
    "config.load_config": ("swerect.config", "load_config"),
    "config.build_run_config": ("swerect.config", "build_run_config"),
    "cli.main": ("swerect.cli", "main"),
    "elliptic.solve_T": ("swerect.elliptic", "solve_T"),
    "elliptic.solve_T_star": ("swerect.elliptic", "solve_T_star"),
    "elliptic.manufactured_solution_T": ("swerect.elliptic", "manufactured_solution_T"),
    "elliptic.manufactured_solution_T_star": ("swerect.elliptic", "manufactured_solution_T_star"),
    "elliptic.cross_gradient_residual": ("swerect.elliptic", "cross_gradient_residual"),
    "scipy.sparse.linalg.spsolve": ("scipy.sparse.linalg", "spsolve"),
    "algebra.verify_diagonalization": ("swerect.algebra", "verify_diagonalization"),
    "algebra.hyperbolic_transform": ("swerect.algebra", "hyperbolic_transform"),
    "algebra.elliptic_transform": ("swerect.algebra", "elliptic_transform"),
    "regime.validate_params": ("swerect.regime", "validate_params"),
    "regime.classify": ("swerect.regime", "classify"),
    "rng.SplitMix64.doubles": ("swerect.rng", "SplitMix64.doubles"),
    "operator.band_limited_fields": ("swerect.operator", "band_limited_fields"),
}

# counters computed from array and file sizes, so they repeat exactly
COUNTERS = (
    "operator.node_updates",
    "operator.bytes_computed",
    "io_csv.bytes_written",
    "io_csv.bytes_read",
    "elliptic.unknowns",
    "elliptic.same_operator_share",
    "verify.draws_per_regime",
)


class Tracer:
    """Span store plus counters for one traced phase of a run."""

    def __init__(self):
        self.spans: List[list] = []      # [name, start, end, parent, op]
        self._open: List[int] = []
        self.op: Optional[int] = None
        self.counters: Dict[str, float] = {name: 0 for name in COUNTERS}
        self._operators_seen = set()
        self._solves = 0
        self._reused = 0
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def run_op(self, op_id: int, fn: Callable[[], object], name: str = ROOT_SPAN) -> object:
        """Run fn as op op_id under a root span."""
        self.op = op_id
        idx = self._begin(name)
        try:
            return fn()
        finally:
            self._end(idx)
            self.op = None

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, names: Sequence[str] = tuple(SPANS)) -> None:
        for name in names:
            modname, attr = SPANS[name]
            module = importlib.import_module(modname)
            hook = _HOOKS.get(name)
            if "." in attr:
                self._install_method(name, module, attr, hook)
            else:
                self._install_function(name, module, attr, hook)

    def _install_method(self, name, module, attr, hook) -> None:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(name, raw.__func__, hook))
        else:
            wrapped = self.wrap(name, raw, hook)
        self._installed.append((cls, meth, raw))
        setattr(cls, meth, wrapped)

    def _install_function(self, name, module, attr, hook) -> None:
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig, hook)
        homes = [module] + [m for key, m in list(sys.modules.items())
                            if m is not None and (key == "swerect" or key.startswith("swerect."))]
        for home in homes:
            for key, val in list(vars(home).items()):
                if val is orig:
                    self._installed.append((home, key, orig))
                    setattr(home, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._installed):
            setattr(owner, key, orig)
        self._installed.clear()

    # -- reports -------------------------------------------------------------

    def finish_counters(self) -> Dict[str, float]:
        out = dict(self.counters)
        out["elliptic.same_operator_share"] = (self._reused / self._solves) if self._solves else 0.0
        return out


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span duration minus the part of its interval its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for idx, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def layer_table(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """name -> {calls, total_s, self_s} for every span name that occurred."""
    table: Dict[str, Dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[2] - s[1]
        row["self_s"] += own
    return table


# -- counter hooks: (tracer, args, kwargs, result) ---------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _operator_hook(tracer, args, kwargs, result):
    W = _arg(args, kwargs, 1, "W")  # args[0] is the operator itself
    tracer.counters["operator.node_updates"] += W.shape[1] * W.shape[2]
    # computed, not measured: the input stack read plus the output written
    tracer.counters["operator.bytes_computed"] += W.nbytes + result.nbytes


def _file_hook(counter: str, pos: int):
    def hook(tracer, args, kwargs, result):
        tracer.counters[counter] += os.path.getsize(_arg(args, kwargs, pos, "path"))

    return hook


def _solve_hook(direction: str):
    def hook(tracer, args, kwargs, result):
        c, grid = _arg(args, kwargs, 1, "c"), _arg(args, kwargs, 2, "grid")
        tracer.counters["elliptic.unknowns"] += 2 * grid.nx * grid.ny
        key = (direction, c, grid)
        tracer._solves += 1
        if key in tracer._operators_seen:
            tracer._reused += 1
        tracer._operators_seen.add(key)

    return hook


_HOOKS = {
    "operator.DiscreteOperator.apply_stack": _operator_hook,
    "io_csv.write_field_csv": _file_hook("io_csv.bytes_written", 3),
    "io_csv.write_energy_csv": _file_hook("io_csv.bytes_written", 1),
    "io_csv.read_field_csv": _file_hook("io_csv.bytes_read", 0),
    "io_csv.read_energy_csv": _file_hook("io_csv.bytes_read", 0),
    "elliptic.solve_T": _solve_hook("T"),
    "elliptic.solve_T_star": _solve_hook("T*"),
}
