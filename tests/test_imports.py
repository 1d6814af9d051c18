"""Cold start: SciPy is loaded by the elliptic solvers only.

Each check runs in a fresh interpreter, because this test process has
long since imported SciPy through other tests.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

PRELUDE = """\
import json, sys
import swerect as sw
import swerect.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(body: str):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PRELUDE + body], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_run_and_verify_load_no_scipy():
    loaded = run_fresh("""
seen = [scipy_modules()]
p = sw.validate_params(2.5, 2.5, 1.0, 9.81)
grid = sw.Grid(1.0, 1.0, 9, 9)
initial = sw.StateField.from_stack(sw.band_limited_fields(sw.SplitMix64(3), 9, 9))
res = sw.run(sw.RunConfig(p=p, grid=grid, t_end=0.05, initial=initial))
assert res.n_steps > 1 and sw.contraction_check(res.log).passed
assert sw.verify_diagonalization(p).passed
seen.append(scipy_modules())
print(json.dumps(seen))
""")
    assert loaded == [[], []]


def test_first_elliptic_solve_loads_scipy():
    out = run_fresh("""
from swerect import elliptic
before = scipy_modules()
grid = sw.Grid(1.0, 1.0, 5, 5)
c = sw.swe_elliptic_block(sw.validate_params(1.0, 1.0, 1.0, 9.81))
theta = sw.solve_T(sw.ThetaField.zeros(grid), c, grid)
print(json.dumps({
    "before": before,
    "after": "scipy.sparse.linalg" in scipy_modules(),
    "zero": float(abs(theta.theta1).max() + abs(theta.theta2).max()),
}))
""")
    assert out == {"before": [], "after": True, "zero": 0.0}


def test_unknown_module_attribute_still_raises():
    out = run_fresh("""
from swerect import elliptic
try:
    elliptic.no_such_name
except AttributeError as exc:
    print(json.dumps([str(exc), scipy_modules()]))
""")
    assert out == ["module 'swerect.elliptic' has no attribute 'no_such_name'", []]


def test_invalid_elliptic_coefficients_raise_before_scipy():
    out = run_fresh("""
import math, warnings
from swerect.errors import ViolatesCondition
warnings.simplefilter("error")
grid = sw.Grid(1.0, 1.0, 9, 9)
messages = []
for coeffs in ((math.nan, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, 1.0)):
    try:
        sw.solve_T(sw.ThetaField.zeros(grid), sw.EllipticCoeffs(*coeffs), grid)
    except ViolatesCondition as exc:
        messages.append(str(exc))
print(json.dumps([messages, scipy_modules()]))
""")
    assert out == [["alpha1 must be finite, got nan",
                    "alpha2*beta1 - alpha1*beta2 = 0.0 too close to zero"], []]
