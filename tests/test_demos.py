"""Every demo runs to completion in a scratch directory (demos 02 and 03
write their SVG figures to the current directory), prints its headline
line, and reproduces the stdout and SVG bytes pinned in
`tests/data/demo_golden.json` (sha256). The demos run under `python -S`, so
they need only the standard library and `src/`."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "demo_golden.json").read_text(encoding="utf-8"))


SVGS = {"02_maximum_principle.py": "maxprinciple.svg",
        "03_lattice_calculus.py": "green.svg"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("demo, line", [
    ("01_surfaces_and_holonomy.py", "holonomy group: Z3; covariant constants: dim 0"),
    ("02_maximum_principle.py", "maximum principle holds: True"),
    ("03_lattice_calculus.py", "Q+ G = delta: True"),
    ("04_operator_factorization.py", "recomposition Q+Q + U == L exactly: True"),
    ("05_simplicial_k.py",
     "cycle C6: holonomy order 1, orbits q = 2, covariant dim = 1, L kernel dim = 1"),
])
def test_demo_runs(demo, line, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-S", str(ROOT / "demos" / demo)],
                       capture_output=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr.decode()
    assert line in r.stdout.decode().splitlines()
    golden = GOLDEN[demo]
    assert sha256(r.stdout) == golden["stdout"]
    if demo in SVGS:
        svg = (tmp_path / SVGS[demo]).read_bytes()
        assert svg.startswith(b"<svg")
        assert sha256(svg) == golden[SVGS[demo]]
