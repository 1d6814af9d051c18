"""The benchmark's span table and workloads still name things that exist.

perfbench/tracer.py wraps each SPANS target by module path and attribute;
a rename in swerect would otherwise surface only when the benchmark runs.
Methods are wrapped on the class that defines them, so a pinned method must
be in that class's own namespace.  The workloads and their tests reach the
package as ``sw.<name>``; tier-1 does not collect perfbench, so a deleted
public name would otherwise go unnoticed here too.  The committed result
files (``BENCH_*.json`` at the repository root) must claim a workload and
metric the benchmark defines, and their summaries must follow from their
own pairs.
"""

import importlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import swerect

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
RESULT_FILES = sorted(ROOT.glob("BENCH_*.json"))
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pinned_span_resolves_to_a_callable():
    spans = _load_tracer().SPANS
    assert spans
    missing = []
    for name, (modname, attr) in spans.items():
        owner = importlib.import_module(modname)
        *classes, leaf = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        target = getattr(owner, "__dict__", {}).get(leaf)
        if isinstance(target, (classmethod, staticmethod)):
            target = target.__func__
        if not callable(target):
            missing.append(name)
    assert missing == []


def test_every_public_name_the_benchmark_uses_resolves():
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        used.update(re.findall(r"\bsw\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert {"StateField", "energy_value", "solve_T"} <= used
    assert sorted(name for name in used if not hasattr(swerect, name)) == []


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_result_files_exist():
    assert RESULT_FILES


@pytest.mark.parametrize("path", RESULT_FILES, ids=lambda p: p.name)
def test_result_file_claims_a_defined_workload_and_metric(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    spec = _benchmark_spec()
    metrics = {m["name"] for m in spec["end_to_end"]}
    assert doc["claim"]["workload"] in {w["name"] for w in spec["workloads"]}
    assert doc["claim"]["metric"] in metrics
    assert doc["claim"]["workload"] in doc["workloads"]
    for name, entry in doc["workloads"].items():
        assert set(entry["summary"]) <= metrics, name


@pytest.mark.parametrize("path", RESULT_FILES, ids=lambda p: p.name)
def test_result_file_summaries_follow_from_their_pairs(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in _benchmark_spec()["end_to_end"]}
    for name, entry in doc["workloads"].items():
        pairs = entry["pairs"]
        assert {pair["seed"] for pair in pairs} == set(entry["seeds"]), name
        for metric, summary in entry["summary"].items():
            parent = np.array([pair["parent"][metric] for pair in pairs])
            change = np.array([pair["change"][metric] for pair in pairs])
            for side, vals in (("parent", parent), ("change", change)):
                want = {"q1": np.percentile(vals, 25), "median": np.median(vals),
                        "q3": np.percentile(vals, 75)}
                assert summary[side] == pytest.approx(want, rel=1e-12), (name, metric, side)
            won = change > parent if better[metric] == "higher" else change < parent
            assert summary["change_better"] == int(won.sum()), (name, metric)
            assert summary["pairs"] == len(pairs), (name, metric)
            assert summary["median_pair_ratio"] == pytest.approx(
                np.median(change / parent), rel=1e-12), (name, metric)
