"""Tests of the benchmark itself: names, statistics, seeding and coverage.

    python3 -m pytest -q perfbench

The coverage test runs shrunken copies of the workloads (same code paths,
smaller grids) under the tracer, so it takes seconds rather than minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

import run

run.import_swerect()

import swerect as sw  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# layer table: which workloads each span must be seen on
EXPECTED = {
    "operator.DiscreteOperator.apply_stack": ("run_cli", "mms_ladder"),
    "operator.energy_value": ("run_cli", "mms_ladder"),
    "operator.boundary_quadratic_forms": ("verify_draws",),
    "boundary.BcEnforcer.apply": ("run_cli", "mms_ladder"),
    "boundary.BoundaryData.sample": ("mms_ladder",),
    "boundary.bc_catalog": ("verify_draws",),
    "boundary.adjoint_bc_catalog": ("verify_draws",),
    "boundary.incoming_count_check": ("verify_draws",),
    "manufactured.ManufacturedSolution.forcing": ("mms_ladder",),
    "manufactured.ManufacturedSolution.state": ("mms_ladder",),
    "evolve.run": ("run_cli", "mms_ladder"),
    "evolve.mms_convergence": ("mms_ladder",),
    "fields.StateField.stack": ("run_cli",),
    "fields.StateField.from_stack": ("run_cli",),
    "fields.inner_product": ("run_cli",),
    "io_csv.write_field_csv": ("run_cli",),
    "io_csv.write_energy_csv": ("run_cli",),
    "io_csv.read_field_csv": ("run_cli",),
    "io_csv.read_energy_csv": ("run_cli",),
    "config.load_config": ("run_cli",),
    "config.build_run_config": ("run_cli",),
    "cli.main": ("run_cli",),
    "elliptic.solve_T": ("elliptic_sweep",),
    "elliptic.solve_T_star": ("elliptic_sweep",),
    "elliptic.manufactured_solution_T": ("elliptic_sweep",),
    "elliptic.manufactured_solution_T_star": ("elliptic_sweep",),
    "elliptic.cross_gradient_residual": ("elliptic_sweep",),
    "scipy.sparse.linalg.spsolve": ("elliptic_sweep",),
    "algebra.verify_diagonalization": ("verify_draws",),
    "algebra.hyperbolic_transform": ("verify_draws",),
    "algebra.elliptic_transform": ("verify_draws",),
    "regime.validate_params": ("verify_draws",),
    "regime.classify": ("verify_draws",),
    "rng.SplitMix64.doubles": ("run_cli", "elliptic_sweep"),
    "operator.band_limited_fields": ("run_cli", "elliptic_sweep"),
}


class SmallRunCli(wl.RunCli):
    n, steps, cadence = 17, 6, 3


class SmallMms(wl.MmsLadder):
    base, levels, t_end = 9, 2, 0.05


class SmallElliptic(wl.EllipticSweep):
    sizes = (9, 17)


class SmallDraws(wl.VerifyDraws):
    batch, trace_rounds, trace_blocks = 2, 2, 2


SMALL = {w.name: w for w in (SmallRunCli, SmallMms, SmallElliptic, SmallDraws)}


@pytest.fixture(scope="module")
def workdirs():
    """Fresh directories inside the checkout's .bench_out, removed afterwards."""
    os.makedirs(run.OUT, exist_ok=True)
    base = tempfile.mkdtemp(prefix="tests-", dir=run.OUT)
    yield lambda: tempfile.mkdtemp(dir=base)
    shutil.rmtree(base, ignore_errors=True)


def traced(cls, seed, workdir):
    reference = run.Loop(cls(seed, workdir))
    reference.workload.setup()
    tracer, workload, loop = run.traced_run(cls, seed, workdir, reference)
    metrics, table, accounting = run.per_layer(tracer, workload, loop, reference)
    return metrics, table, accounting, loop


def inputs_fingerprint(cls, seed, workdir):
    w = cls(seed, workdir)
    w.setup()
    if cls.name == "run_cli":
        texts = []
        for cfg, _ in w.inputs["configs"]:
            with open(cfg, encoding="utf-8") as fh:
                texts.append(fh.read())
        return texts
    if cls.name == "mms_ladder":
        return [s.ph for s in w.inputs["solutions"]]
    if cls.name == "elliptic_sweep":
        return [(F.theta1.tobytes(), P.theta2.tobytes())
                for _, seeded in w.inputs["per_grid"].values() for F, P in seeded]
    return [repr(result[0]) for op in w.ops(0) for _, result in op.run()]


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == run.per_layer_names()
    for name in e2e + layer + [w["name"] for w in bench["workloads"]]:
        assert NAME.match(name), name
    assert len(set(layer)) == len(layer)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])


@pytest.mark.parametrize("n, want", [
    (10, None),
    (19, None),
    (20, (50.0, 10)),
    (100, (90.0, 90)),
    (1000, (99.0, 990)),
    (10000, (99.9, 9990)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    samples = list(range(n, 0, -1))  # values 1..n, shuffled order irrelevant
    assert run.tail_percentile(samples) == want


def test_self_time_subtracts_children_on_nested_spans():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["root", 10.0, 12.0, None, 1],
    ]
    assert tr.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]
    table = tr.layer_table(spans)
    assert table["root"] == {"calls": 2, "total_s": 12.0, "self_s": 5.0}
    assert sum(row["self_s"] for row in table.values()) == 12.0


def test_wrappers_cover_every_binding_and_uninstall():
    orig = sw.operator.energy_value
    assert sw.evolve.energy_value is orig and sw.energy_value is orig
    t = tr.Tracer()
    t.install(["operator.energy_value", "fields.StateField.from_stack"])
    try:
        assert sw.operator.energy_value is not orig
        assert sw.evolve.energy_value is sw.operator.energy_value
        assert sw.energy_value is sw.operator.energy_value
        grid = sw.Grid(1.0, 1.0, 5, 5)
        p = sw.validate_params(*wl.FHS)
        state = sw.StateField.zeros(grid)
        sw.evolve.energy_value(state, grid, p)          # outside an op: not recorded
        assert t.spans == []
        t.run_op(0, lambda: sw.StateField.from_stack(state.stack()))
        t.run_op(1, lambda: sw.evolve.energy_value(state, grid, p))
        assert [s[0] for s in t.spans] == [tr.ROOT_SPAN, "fields.StateField.from_stack",
                                         tr.ROOT_SPAN, "operator.energy_value"]
        assert [s[4] for s in t.spans] == [0, 0, 1, 1]
    finally:
        t.uninstall()
    assert sw.operator.energy_value is orig and sw.evolve.energy_value is orig
    assert "from_stack" in sw.StateField.__dict__
    assert isinstance(sw.StateField.__dict__["from_stack"], classmethod)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_fixes_inputs(name, workdirs):
    cls = SMALL[name]
    a = inputs_fingerprint(cls, 7, workdirs())
    b = inputs_fingerprint(cls, 7, workdirs())
    c = inputs_fingerprint(cls, 8, workdirs())
    assert a == b
    assert a != c


@pytest.fixture(scope="module")
def traced_small(workdirs):
    return {name: [traced(cls, 3, workdirs()) for _ in range(2)] for name, cls in SMALL.items()}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counters_repeat_exactly_for_one_seed(name, traced_small):
    (m1, *_), (m2, *_) = traced_small[name]
    counts = [k for k in run.per_layer_names() if run.unit_of(k) != "s"]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_layer_spans_seen_on_their_workloads(name, traced_small):
    metrics, table, accounting, loop = traced_small[name][0]
    missing = [span for span, where in EXPECTED.items()
               if name in where and metrics[f"{span}.calls"] < 1]
    assert missing == []
    assert set(EXPECTED) == set(tr.SPANS)
    # layer self times plus the benchmark's own account for the traced wall
    assert accounting["unaccounted_s"] == pytest.approx(0.0, abs=1e-9 * max(1.0, accounting["wall_s"]))


def test_bare_directory_exits_nonzero(workdirs):
    """A checkout holding only BENCHMARK.json and perfbench/ has no program."""
    bare = workdirs()
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_draws",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
