"""Golden CLI bytes: the sha256 of stdout and of every written file for a
fixed set of `taylor`, `cauchy`, `green`, `factorize` and `qcd-identity`
runs, and of the surface commands `mesh-check`, `holonomy`, `covariants`,
`maxprinciple` and `ksimplicial` on the octahedron, every torus quotient
`torus_lattice(n, shear)` with 3 <= n <= 6, `hex_patch(3)` and the 6-cycle,
recorded in `tests/data/cli_golden.json`.

A rerun of the same build is always byte-identical; this test also catches
output that drifts across a change of the library's internals.  It needs
only the standard library, so it also runs without pytest:

    PYTHONPATH=src python tests/test_cli_golden.py           # compare
    PYTHONPATH=src python tests/test_cli_golden.py --write   # re-record
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from fractions import Fraction

from triholo import cli, fixtures, io as tio, opalgebra
from triholo.lattice import Window
from triholo.simplicial import cycle_graph

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

# cauchy --domain: a 6x6 block of black and white triangles around the origin
DOMAIN = "".join(f"d {k} {x} {y}\n" for x in range(-3, 3) for y in range(-2, 4)
                 for k in "bw")
# cauchy --domain on a filled 24x24 block of both kinds; its vertices span
# [-13, 12] on each axis, so it runs on that window
BLOCK = "".join(f"d {k} {x} {y}\n" for x in range(-12, 12) for y in range(-12, 12)
                for k in "bw")


def _operator_file() -> str:
    lop = opalgebra.random_factorizable(random.Random(1), "black")
    w = Window(0, 11, 0, 11)
    lines = []
    for name, alpha in opalgebra.SCHRODINGER_SHIFTS.items():
        lines.append(f"op {alpha[0]} {alpha[1]}")
        fn = getattr(lop, name)
        lines += [f"c {p[0]} {p[1]} {fn(p)}" for p in w.points()]
    return "\n".join(lines) + "\n"


def _surfaces() -> dict:
    """tag -> surface for the surface-command cases."""
    out = {"octa": fixtures.octahedron()}
    for n in range(3, 7):
        for shear in range(n):
            out[f"torus{n}s{shear}"] = fixtures.torus_lattice(n, shear).surface
    out["hex3"] = fixtures.hex_patch(3).surface
    return out


def _gauged_connection(surf, seed: int) -> str:
    """A `.conn` file for b[T, P] = lam_T g_P: the canonical connection
    under a seeded vertex gauge and triangle scaling, flat but not
    canonical."""
    rng = random.Random(seed)
    g = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
         for _ in range(surf.num_vertices)]
    lines = []
    for t, tri in enumerate(surf.triangles):
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        lines += [f"b {t} {i} {lam * g[v]}" for i, v in enumerate(tri)]
    return "\n".join(lines) + "\n"


def _surface_inputs(d: Path) -> None:
    """Mesh, connection, complex and boundary-value files for the surface
    cases, written into `d`."""
    for k, (tag, surf) in enumerate(_surfaces().items()):
        (d / f"{tag}.tri").write_text(tio.write_mesh(surf), encoding="utf-8")
        (d / f"{tag}.conn").write_text(_gauged_connection(surf, k), encoding="utf-8")
        (d / f"{tag}.cplx").write_text("".join(f"s {a} {b} {c}\n"
                                               for a, b, c in surf.triangles), encoding="utf-8")
    (d / "c6.cplx").write_text("".join(f"s {a} {b}\n" for a, b in cycle_graph(6).simplices),
                               encoding="utf-8")
    rng = random.Random(3)
    for tag in ("octa", "hex3"):
        verts = sorted(rng.sample(range(6 if tag == "octa" else 37), 4))
        (d / f"{tag}.psi").write_text("".join(
            f"psi {v} {Fraction(rng.randint(-9, 9), rng.randint(1, 4))}\n" for v in verts),
            encoding="utf-8")


def surface_cases() -> dict:
    out = {}
    for tag in _surfaces():
        m = ["--mesh", f"{{dir}}/{tag}.tri"]
        conn = ["--conn", f"{{dir}}/{tag}.conn"]
        out[f"mesh-check-{tag}"] = (["mesh-check", *m], None)
        out[f"holonomy-{tag}"] = (["holonomy", *m], None)
        out[f"holonomy-{tag}-conn"] = (["holonomy", *m, *conn], None)
        out[f"covariants-{tag}"] = (["covariants", *m], None)
        out[f"covariants-{tag}-conn"] = (["covariants", *m, *conn], None)
        for seed in (0, 7):
            out[f"maxprinciple-{tag}-s{seed}"] = (["maxprinciple", *m, "--seed", str(seed)],
                                                  None)
        out[f"ksimplicial-{tag}"] = (["ksimplicial", "--complex", f"{{dir}}/{tag}.cplx"], None)
    for tag in ("octa", "hex3"):
        out[f"maxprinciple-{tag}-psi"] = (["maxprinciple", "--mesh", f"{{dir}}/{tag}.tri",
                                           "--psi", f"{{dir}}/{tag}.psi"], None)
    out["maxprinciple-hex3-s7-svg"] = (["maxprinciple", "--mesh", "{dir}/hex3.tri", "--seed",
                                        "7", "--out", "{dir}/mp.svg"], "mp.svg")
    out["ksimplicial-c6"] = (["ksimplicial", "--complex", "{dir}/c6.cplx"], None)
    return out


def cases() -> dict:
    """name -> (argv, name of the file --out writes or None); `{dir}` stands
    for the working directory holding the inputs and outputs."""
    out = {}
    for seed in (0, 11):
        for order in range(4):
            base = ["taylor", "--seed", str(seed), "--order", str(order)]
            out[f"taylor-s{seed}-o{order}-json"] = (base, None)
            out[f"taylor-s{seed}-o{order}-csv"] = (base + ["--out", "{dir}/t.csv"], "t.csv")
    for seed in (0, 5):
        for dom in (False, True):
            base = ["cauchy", "--seed", str(seed)]
            if dom:
                base += ["--domain", "{dir}/dom.ld"]
            tag = f"cauchy-s{seed}-{'domain' if dom else 'walk'}"
            out[f"{tag}-json"] = (base, None)
            for ext in ("csv", "svg"):
                out[f"{tag}-{ext}"] = (base + ["--out", f"{{dir}}/c.{ext}"], f"c.{ext}")
    big = ["cauchy", "--window", "0", "59", "0", "59", "--seed", "1"]
    out["cauchy-w60-s1-walk-json"] = (big, None)
    out["cauchy-w60-s1-walk-csv"] = (big + ["--out", "{dir}/c.csv"], "c.csv")
    block = ["cauchy", "--domain", "{dir}/block.ld", "--window", "-13", "12", "-13", "12"]
    out["cauchy-block24-json"] = (block, None)
    for ext in ("csv", "svg"):
        out[f"cauchy-block24-{ext}"] = (block + ["--out", f"{{dir}}/c.{ext}"], f"c.{ext}")
    for win in (["-5", "25"], ["-3", "8", "-6", "4"]):
        tag = "green" + "_".join(win)
        base = ["green", "--window", *win]
        out[f"{tag}-json"] = (base, None)
        for ext in ("csv", "svg"):
            out[f"{tag}-{ext}"] = (base + ["--out", f"{{dir}}/g.{ext}"], f"g.{ext}")
    fac = ["factorize", "--op", "{dir}/random.op", "--window", "0", "11", "0", "11"]
    out["factorize-rational-json"] = (fac, None)
    out["factorize-rational-csv"] = (fac + ["--out", "{dir}/f.csv"], "f.csv")
    out["factorize-float-json"] = (fac + ["--mode", "float", "--tol", "1e-12"], None)
    # a window one column past the operator file's grid: the error names
    # the first point the check reads
    out["factorize-past-grid-json"] = (["factorize", "--op", "{dir}/random.op",
                                        "--window", "-1", "12", "0", "11"], None)
    inner = ["factorize", "--op", "{dir}/random.op", "--window", "1", "10", "2", "9"]
    out["factorize-inner-json"] = (inner, None)
    out["factorize-inner-csv"] = (inner + ["--out", "{dir}/f.csv"], "f.csv")
    out["qcd-default"] = (["qcd-identity"], None)
    out["qcd-rational-wide"] = (["qcd-identity", "--window", "-9", "9", "-2", "7",
                                 "--c", "5/3", "--d", "2/7", "--q", "4/3", "--s", "2"], None)
    out["qcd-float-tight"] = (["qcd-identity", "--mode", "float", "--tol", "1e-15",
                               "--c", "1.0", "--d", "1.5", "--l", "0.25,0.1,0.4,0.25",
                               "--window", "-12", "12"], None)
    out["qcd-rational"] = (["qcd-identity", "--c", "2/3", "--d=-5/7", "--q", "3",
                            "--s", "1/2", "--window", "-3", "3"], None)
    out["qcd-float"] = (["qcd-identity", "--mode", "float", "--c", "1.0", "--d", "1.5",
                         "--tol", "1e-12", "--l", "0.25,0.1,0.4,0.25"], None)
    out.update(surface_cases())
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute() -> dict:
    """name -> {"exit", "stdout", "file"} with sha256 hex digests."""
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "dom.ld").write_text(DOMAIN, encoding="utf-8")
        (d / "block.ld").write_text(BLOCK, encoding="utf-8")
        op_text = _operator_file()
        (d / "random.op").write_text(op_text, encoding="utf-8")
        _surface_inputs(d)
        result["input-random.op"] = {"exit": 0, "stdout": _sha(op_text.encode()),
                                     "file": None}
        for name, (argv, written) in cases().items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main([a.replace("{dir}", tmp) for a in argv])
            entry = {"exit": rc, "stdout": _sha(buf.getvalue().encode()), "file": None}
            if written is not None:
                path = d / written
                entry["file"] = _sha(path.read_bytes())
                path.unlink()
            result[name] = entry
    return result


def test_cli_golden_bytes():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute()
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


def _main(argv) -> int:
    got = compute()
    if "--write" in argv:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} entries to {GOLDEN}")
        return 0
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bad = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    print(f"{len(want) - len(bad)}/{len(want)} golden entries match"
          + (": differ " + ", ".join(bad) if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
