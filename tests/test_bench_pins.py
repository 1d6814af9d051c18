"""The benchmark's span table and workloads still name things that exist.

perfbench/tracer.py wraps each SPANS target by module path and attribute;
a rename in swerect would otherwise surface only when the benchmark runs.
Methods are wrapped on the class that defines them, so a pinned method must
be in that class's own namespace.  The workloads and their tests reach the
package as ``sw.<name>``; tier-1 does not collect perfbench, so a deleted
public name would otherwise go unnoticed here too.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import swerect

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
