"""The benchmark's span table still names callables that exist.

perfbench/tracer.py wraps each SPANS target by module path and attribute;
a rename in swerect would otherwise surface only when the benchmark runs.
Methods are wrapped on the class that defines them, so a pinned method must
be in that class's own namespace.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
