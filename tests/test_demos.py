"""Smoke tests: every demo runs to completion in a scratch directory (demos
02 and 03 write their SVG figures to the current directory)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


SVGS = {"02_maximum_principle.py": "maxprinciple.svg",
        "03_lattice_calculus.py": "green.svg"}


@pytest.mark.parametrize("demo, line", [
    ("01_surfaces_and_holonomy.py", "holonomy group: Z3; covariant constants: dim 0"),
    ("02_maximum_principle.py", "maximum principle holds: True"),
    ("03_lattice_calculus.py", "Q+ G = delta: True"),
    ("04_operator_factorization.py", "recomposition Q+Q + U == L exactly: True"),
    ("05_simplicial_k.py",
     "cycle C6: holonomy order 1, orbits q = 2, covariant dim = 1, L kernel dim = 1"),
])
def test_demo_runs(demo, line, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                       capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert line in r.stdout.splitlines()
    if demo in SVGS:
        assert (tmp_path / SVGS[demo]).read_text().startswith("<svg")
