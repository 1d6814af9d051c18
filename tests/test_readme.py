"""README.md's Guarantees and Known gaps sections as a checked index.

Every bullet names at least one tier-1 test as `tests/test_x.py::test_name`
(a function, not a parametrized id), and every named test is a test function
defined in that file.  The test files are parsed, not imported or
collected, so the check does not depend on which files a pytest session
collected.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SECTIONS = ("Guarantees", "Known gaps")
# any backticked path into tests/ is a reference; a valid one is a test id
REFERENCE = re.compile(r"`(tests/[^`]*)`")
TEST_ID = re.compile(r"(tests/test_\w+\.py)::(test_\w+)")


def _bullets(section):
    """The top-level bullets of one '## ' section, continuation lines
    included."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(rf"^## {section}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, f"README.md has no '## {section}' section"
    return re.split(r"^- ", match.group(1), flags=re.M)[1:]


@functools.lru_cache(maxsize=None)
def _test_functions(path):
    """{name: strict xfail?} of the test functions defined at the top level
    of one test file; empty when the file does not exist."""
    if not (ROOT / path).is_file():
        return {}
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.name: any(_is_strict_xfail(d) for d in node.decorator_list)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def _is_strict_xfail(decorator):
    return (isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Attribute) and decorator.func.attr == "xfail"
            and any(k.arg == "strict" and getattr(k.value, "value", None) is True
                    for k in decorator.keywords))


def _named_tests(bullet):
    return [TEST_ID.fullmatch(ref) for ref in REFERENCE.findall(bullet)]


@pytest.mark.parametrize("section", SECTIONS)
def test_every_bullet_names_a_test(section):
    bullets = _bullets(section)
    assert bullets, f"'{section}' has no bullets"
    for bullet in bullets:
        named = _named_tests(bullet)
        assert named, f"{section}: a bullet names no test: {bullet[:70]!r}"
        assert all(named), f"{section}: not a test function id in {bullet[:70]!r}"


@pytest.mark.parametrize("section", SECTIONS)
def test_every_named_test_exists(section):
    missing = [m[0] for bullet in _bullets(section) for m in _named_tests(bullet)
               if m and m[2] not in _test_functions(m[1])]
    assert missing == [], f"{section} names tests that do not exist"


def test_every_known_gap_names_its_strict_xfail_or_roadmap_item():
    for bullet in _bullets("Known gaps"):
        strict = [m[0] for m in _named_tests(bullet) if m and _test_functions(m[1]).get(m[2])]
        assert strict or re.search(r"ROADMAP item \d+", bullet), bullet[:70]
        if "strict xfail" in bullet:
            assert strict, f"the xfail this gap names is not strict: {bullet[:70]!r}"
