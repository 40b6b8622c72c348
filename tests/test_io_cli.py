import contextlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

from conftest import pinched_torus
from triholo import connection as C
from triholo import cli, fixtures, io, mesh, opalgebra
from triholo.lattice import Window, build_green


def test_mesh_roundtrip(octa):
    text = io.write_mesh(octa)
    back = io.parse_mesh(text)
    assert back.triangles == octa.triangles
    with pytest.raises(ValueError):
        io.parse_mesh("not a mesh\n")
    with pytest.raises(ValueError):
        io.parse_mesh("tri-surface v1\nv 5\nt 0 1 2\n")  # header count mismatch


def test_mesh_comments_and_blanks():
    text = "tri-surface v1\n# a comment\nv 3\n\nt 0 1 2  # inline\n"
    surf = io.parse_mesh(text)
    assert surf.num_triangles == 1


def test_domain_roundtrip(octa):
    from triholo.mesh import SubComplexDomain

    dom = SubComplexDomain(octa, frozenset({0, 2, 5}))
    assert io.parse_domain(io.write_domain(dom), octa).tris == dom.tris


def test_connection_roundtrip(octa):
    coeffs = {(0, octa.triangles[0][1]): Fraction(3, 4),
              (5, octa.triangles[5][2]): Fraction(-2, 7)}
    conn = C.DiscreteConnection(octa, coeffs)
    text = io.write_connection(conn)
    back = io.parse_connection(text, octa)
    assert back.coefficients == conn.coefficients
    # absent entries default to 1 (canonical)
    assert back.b(1, octa.triangles[1][0]) == 1


@pytest.mark.parametrize("line", ["b 99 0 2", "b -1 0 2"])
def test_connection_triangle_index_out_of_range(octa, line):
    with pytest.raises(ValueError, match="triangle index"):
        io.parse_connection(line + "\n", octa)


@pytest.mark.parametrize("parse, text, match", [
    (lambda t: io.parse_connection(t, fixtures.octahedron()), "b 0 0 2\nb 0 0 5\n",
     "duplicate coefficient for triangle 0, vertex 0: 'b 0 0 5'"),
    (io.parse_representation, "R 0 1 0 1 1 0\nR 0 1 1 0 0 1\n",
     r"duplicate matrix for edge \(0, 1\): 'R 0 1 1 0 0 1'"),
])
def test_duplicate_lines_rejected(parse, text, match):
    with pytest.raises(ValueError, match=match):
        parse(text)


def test_complex_file_comments_and_blanks():
    x = io.parse_complex("# a 4-cycle\ns 0 1\n\ns 1 2  # inline\ns 2 3\ns 3 0\n")
    assert (x.k, x.num_simplices) == (1, 4)
    with pytest.raises(ValueError):
        io.parse_complex("t 0 1\n")


def test_representation_file():
    text = "R 0 1 0 1 1 0\nR 1 2 1 2 1 3\n"
    mats = io.parse_representation(text)
    assert mats[(0, 1)] == [[0, 1], [1, 0]]
    assert mats[(1, 2)] == [[1, 2], [1, 3]]


def test_boundary_and_lattice_files(octa):
    bv = io.parse_boundary_values("psi 3 5/2\npsi 0 -1\n", octa)
    assert bv == {3: Fraction(5, 2), 0: Fraction(-1)}
    f = io.parse_lattice_function("f 0 0 1\nf 1 0 -1/3\n")
    assert f[(1, 0)] == Fraction(-1, 3)
    g = build_green(Window(0, 3, 0, 3))
    h = io.parse_lattice_function(io.write_lattice_function(g))
    assert all(h[p] == g[p] for p in g.window.points())


@pytest.mark.parametrize("text, match", [
    ("psi 6 1\n", "vertex index"),
    ("psi -1 1\n", "vertex index"),
    ("psi 3 1\npsi 3 7\n", "duplicate"),
    ("psi 3 1/0\n", "zero denominator"),
])
def test_boundary_values_rejected(octa, text, match):
    with pytest.raises(ValueError, match=match):
        io.parse_boundary_values(text, octa)


@pytest.mark.parametrize("parse, text", [
    (lambda t: io.parse_connection(t, fixtures.octahedron()), "b 0 0 1/0\n"),
    (io.parse_representation, "R 0 1 1 0 0 1/0\n"),
    (io.parse_lattice_function, "f 0 0 3/0\n"),
    (io.parse_operator, "op 0 0\nc 0 0 1/0\n"),
], ids=["connection", "representation", "lattice", "operator"])
def test_zero_denominator_is_value_error(parse, text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse(text)


@pytest.mark.parametrize("parse, text, line", [
    (io.parse_mesh, "tri-surface v1\nt 0 2 +1\n", "t 0 2 +1"),
    (io.parse_mesh, "tri-surface v1\nt 0 2 0_1\n", "t 0 2 0_1"),
    (io.parse_mesh, "tri-surface v1\nt 0 2 \u0661\n", "t 0 2 \u0661"),
    (io.parse_mesh, "tri-surface v1\nt 0 1 x\n", "t 0 1 x"),
    (io.parse_mesh, "tri-surface v1\nv +3\nt 0 1 2\n", "v +3"),
    (io.parse_operator, "op 1_0 0\n", "op 1_0 0"),
    (io.parse_operator, "op 0 0\nc 0 0 1.5e0\n", "c 0 0 1.5e0"),
    (io.parse_operator, "op 0 0\nc 0 0 \u0661/\u0662\n", "c 0 0 \u0661/\u0662"),
    (io.parse_operator, "op 0 0\nc 0 0 +3\n", "c 0 0 +3"),
    (lambda t: io.parse_connection(t, fixtures.octahedron()), "b 0 0 1.5\n", "b 0 0 1.5"),
    (lambda t: io.parse_connection(t, fixtures.octahedron()), "b 0 0 1/-2\n", "b 0 0 1/-2"),
    (lambda t: io.parse_connection(t, fixtures.octahedron()), "b 0 +0 2\n", "b 0 +0 2"),
    (lambda t: io.parse_domain(t, fixtures.octahedron()), "d \u0661\n", "d \u0661"),
    (lambda t: io.parse_boundary_values(t, fixtures.octahedron()), "psi 1 2e3\n", "psi 1 2e3"),
    (io.parse_representation, "R 0 1 1 0 0 1.0\n", "R 0 1 1 0 0 1.0"),
    (io.parse_lattice_function, "f 0 0 1_000\n", "f 0 0 1_000"),
    (io.parse_lattice_function, "f 0 0 1/2/3\n", "f 0 0 1/2/3"),
    (io.parse_lattice_domain_points, "d b 0 +1\n", "d b 0 +1"),
    (io.parse_complex, "s 0 \u0661\n", "s 0 \u0661"),
])
def test_numeric_fields_are_ascii_integers_and_rationals(parse, text, line):
    """Integer fields are ASCII digits after at most one `-`, rational
    fields such an integer optionally over ASCII digits; anything else is a
    ValueError naming the line."""
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        parse(text)


@pytest.mark.parametrize("parse, text, message", [
    (lambda t: io.parse_domain(t, fixtures.octahedron()), "x 0\n", "bad domain line: 'x 0'"),
    (lambda t: io.parse_domain(t, fixtures.octahedron()), "d 0 1\n", "bad domain line: 'd 0 1'"),
    (lambda t: io.parse_connection(t, fixtures.octahedron()), "b 0 0\n",
     "bad connection line: 'b 0 0'"),
    (lambda t: io.parse_connection(t, fixtures.octahedron()), "b 0 3 1/2\n",
     "local vertex must be 0|1|2: 'b 0 3 1/2'"),
    (io.parse_complex, "t 0 1\n", "bad complex line: 't 0 1'"),
    (io.parse_representation, "R 0 1 1 0 0\n", "bad representation line: 'R 0 1 1 0 0'"),
    (lambda t: io.parse_boundary_values(t, fixtures.octahedron()), "psi 1\n",
     "bad boundary line: 'psi 1'"),
    (io.parse_lattice_function, "f 0 0\n", "bad lattice line: 'f 0 0'"),
    (io.parse_lattice_function, "# nothing\n\n", "lattice function file has no points"),
    (io.parse_lattice_domain_points, "d x 0 0\n", "bad lattice domain line: 'd x 0 0'"),
    (io.parse_lattice_domain_points, "d b 0\n", "bad lattice domain line: 'd b 0'"),
], ids=["domain-tag", "domain-count", "connection-count", "connection-local", "complex-tag",
        "representation-count", "boundary-count", "lattice-count", "lattice-empty",
        "lattice-domain-colour", "lattice-domain-count"])
def test_malformed_records_name_the_line(parse, text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse(text)


def test_numeric_fields_keep_the_plain_forms():
    assert [io._int(t, "") for t in ("0", "-0", "007", "-12")] == [0, 0, 7, -12]
    assert ([io._rational(t, "") for t in ("3", "-3/4", "06/08", "-0/5")]
            == [3, Fraction(-3, 4), Fraction(3, 4), 0])
    op = io.parse_operator("op -1 0\nc -2 3 -5/6\n")
    assert op.coefficient((-1, 0))((-2, 3)) == Fraction(-5, 6)


def test_mesh_vertex_count_arity():
    for line in ("v", "v 3 4"):
        with pytest.raises(ValueError, match="vertex-count"):
            io.parse_mesh(f"tri-surface v1\n{line}\nt 0 1 2\n")


def test_lattice_domain_file():
    dom = io.parse_lattice_domain_points("d b 2 3\nd w 1 2\n")
    assert ("b", (2, 3)) in dom.tris and ("w", (1, 2)) in dom.tris


def test_operator_file():
    text = "op 0 0\nop 1 0\nc 0 0 2\nc 1 0 3/2\n"
    op = io.parse_operator(text)
    assert op.coefficient((0, 0))((5, 5)) == 1
    assert op.coefficient((1, 0))((1, 0)) == Fraction(3, 2)


@pytest.mark.parametrize("text, match", [
    ("op 0\n", "operator term line"),
    ("op 0 0 1\n", "operator term line"),
    ("op 0 0\nc 0 0\n", "coefficient line"),
    ("op 0 0\nc 0 0 1 2\n", "coefficient line"),
])
def test_operator_file_arity(text, match):
    with pytest.raises(ValueError, match=match):
        io.parse_operator(text)


def test_lattice_csv():
    g = build_green(Window(0, 2, 0, 2))
    csv = io.lattice_csv(g)
    assert csv.splitlines()[0] == "n2\\n1,0,1,2"
    assert ",2," in csv or csv.rstrip().endswith(",2")


# --- CLI ---------------------------------------------------------------------

def run_cli(args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    r = subprocess.run([sys.executable, "-m", "triholo.cli"] + args,
                       capture_output=True, encoding="utf-8", env=e)
    return r.returncode, r.stdout, r.stderr


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    (d / "octahedron.tri").write_text(io.write_mesh(fixtures.octahedron()), encoding="utf-8")
    (d / "bad.tri").write_text("tri-surface v1\nv 5\nt 0 1 2\nt 0 1 3\nt 0 1 4\n",
                               encoding="utf-8")
    patch = fixtures.hex_patch(3)
    (d / "hex3.tri").write_text(io.write_mesh(patch.surface), encoding="utf-8")
    (d / "c6.cplx").write_text("\n".join(f"s {i} {(i + 1) % 6}" for i in range(6)),
                               encoding="utf-8")
    rng = random.Random(1)
    lop = opalgebra.random_factorizable(rng, "black")
    lines = []
    w = Window(0, 11, 0, 11)
    for name, alpha in opalgebra.SCHRODINGER_SHIFTS.items():
        lines.append(f"op {alpha[0]} {alpha[1]}")
        fn = getattr(lop, name)
        for p in w.points():
            lines.append(f"c {p[0]} {p[1]} {fn(p)}")
    (d / "random.op").write_text("\n".join(lines), encoding="utf-8")
    return d


def test_cli_green_values(fixture_dir):
    rc, out, _ = run_cli(["green", "--window", "-5", "25"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["values"]["1,1"] == "2"
    assert payload["values"]["2,1"] == "-3"


def test_cli_green_csv_and_svg(fixture_dir, tmp_path):
    csv_path = str(tmp_path / "g.csv")
    rc, _, _ = run_cli(["green", "--window", "-3", "8", "--out", csv_path])
    assert rc == 0 and ",2," in Path(csv_path).read_text(encoding="utf-8")
    svg_path = str(tmp_path / "g.svg")
    rc, _, _ = run_cli(["green", "--window", "-3", "8", "--out", svg_path])
    assert rc == 0 and Path(svg_path).read_text(encoding="utf-8").startswith("<svg")


def test_cli_holonomy(fixture_dir):
    rc, out, _ = run_cli(["holonomy", "--mesh", str(fixture_dir / "octahedron.tri")])
    assert rc == 0
    payload = json.loads(out)
    assert payload["group"] == "trivial"
    assert payload["dim"] == 2


def test_cli_fixture_dir_env(fixture_dir):
    rc, out, _ = run_cli(["holonomy", "--mesh", "octahedron.tri"],
                         env={"TRIHOLO_FIXTURES": str(fixture_dir)})
    assert rc == 0
    assert json.loads(out)["group"] == "trivial"


def test_cli_mesh_check_errors(fixture_dir):
    rc, out, _ = run_cli(["mesh-check", "--mesh", str(fixture_dir / "bad.tri")])
    assert rc == 1
    assert json.loads(out)["error"] == "NonManifoldEdge"
    rc, _, _ = run_cli(["mesh-check", "--mesh", "missing.tri"])
    assert rc == 1


def brute_force_ring_pairs(surf, blacks) -> int:
    """Pairs of distinct black triangles with two or more white neighbours in
    common, by a walk over every pair and every white triangle; a neighbour
    is a triangle on two of the same vertices."""
    tris = [set(t) for t in surf.triangles]
    whites = [w for w in range(surf.num_triangles) if w not in blacks]

    def touch(w, t):
        return len(tris[w] & tris[t]) == 2

    return sum(sum(touch(w, a) and touch(w, b) for w in whites) >= 2
               for a, b in itertools.combinations(sorted(blacks), 2))


def test_cli_mesh_check_coincident_ring_pairs(tmp_path):
    """`coincident_ring_pairs` against a brute-force pair walk: 6 on the
    octahedron (every two of its 4 black triangles share 2 white
    neighbours), 0 on the 47 fixture tori and hex patches, and null on the
    icosahedron, which has no b/w colouring."""
    surfaces = {"octa": fixtures.octahedron(), "ico": fixtures.icosahedron()}
    surfaces.update({f"torus{n}s{s}": fixtures.torus_lattice(n, s).surface
                     for n in range(3, 10) for s in range(n)})
    surfaces.update({f"hex{r}": fixtures.hex_patch(r).surface for r in range(1, 6)})
    assert len(surfaces) == 49
    counts = {}
    for tag, surf in surfaces.items():
        path = tmp_path / f"{tag}.tri"
        path.write_text(io.write_mesh(surf), encoding="utf-8")
        out = StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["mesh-check", "--mesh", str(path)]) == 0
        body = json.loads(out.getvalue())
        counts[tag] = body["coincident_ring_pairs"]
        bw = mesh.bw_face_coloring(surf)
        assert body["bw_colorable"] is (bw is not None)
        if bw is None:
            assert counts[tag] is None
        else:
            assert counts[tag] == brute_force_ring_pairs(surf, bw.black_triangles())
    assert counts.pop("octa") == 6 and counts.pop("ico") is None
    assert set(counts.values()) == {0}


def test_cli_usage_error_exit_2():
    rc, _, _ = run_cli(["holonomy"])  # missing required --mesh
    assert rc == 2
    rc, _, _ = run_cli(["frobnicate"])
    assert rc == 2


def test_cli_covariants(fixture_dir):
    rc, out, _ = run_cli(["covariants", "--mesh", str(fixture_dir / "octahedron.tri")])
    assert rc == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert len(payload["basis"]) == 2


def test_cli_maxprinciple(fixture_dir, tmp_path):
    rc, out, _ = run_cli(["maxprinciple", "--mesh", str(fixture_dir / "hex3.tri"),
                          "--seed", "7"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] and not payload["containment_violations"]
    svg = str(tmp_path / "mp.svg")
    rc, _, _ = run_cli(["maxprinciple", "--mesh", str(fixture_dir / "hex3.tri"),
                        "--seed", "7", "--out", svg])
    assert rc == 0 and Path(svg).read_text(encoding="utf-8").startswith("<svg")


def test_cli_taylor_cauchy(fixture_dir):
    rc, out, _ = run_cli(["taylor", "--seed", "3", "--order", "4"])
    assert rc == 0 and json.loads(out)["ok"]
    rc, out, _ = run_cli(["cauchy", "--seed", "5"])
    assert rc == 0 and json.loads(out)["exact"]


def test_cli_factorize(fixture_dir, tmp_path):
    rc, out, _ = run_cli(["factorize", "--op", str(fixture_dir / "random.op"),
                          "--window", "0", "11", "0", "11"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] and len(payload["colors"]["black"]) == 100
    csv = str(tmp_path / "f.csv")
    rc, _, _ = run_cli(["factorize", "--op", str(fixture_dir / "random.op"),
                        "--window", "0", "11", "0", "11", "--mode", "float",
                        "--tol", "1e-12", "--out", csv])
    assert rc == 0
    assert Path(csv).read_text(encoding="utf-8").startswith("n1,n2,color")


def test_cli_qcd(fixture_dir):
    rc, out, _ = run_cli(["qcd-identity", "--q", "2", "--s", "3"])
    assert rc == 0 and json.loads(out)["holds"]
    rc, out, _ = run_cli(["qcd-identity", "--mode", "float", "--c", "1.0",
                          "--d", "1.5", "--tol", "1e-12",
                          "--l", "0.25,0.1,0.4,0.25"])
    assert rc == 0 and json.loads(out)["holds"]
    rc, out, _ = run_cli(["qcd-identity", "--mode", "float", "--c", "1.0",
                          "--d", "1.5", "--tol", "1e-12",
                          "--l", "0.25,0.1,0.1,0.25"])
    assert rc == 1 and json.loads(out)["error"] == "ConditionViolated"
    # the RunConfig invariant: float tolerance required iff float mode
    rc, _, _ = run_cli(["qcd-identity", "--mode", "float", "--c", "1.0",
                        "--d", "1.5", "--l", "0.25,0.1,0.4,0.25"])
    assert rc == 2


@pytest.mark.parametrize("order", ["-1", "-7"])
def test_cli_taylor_negative_order_is_usage_error(order):
    rc, out, err = run_cli(["taylor", "--order", order])
    assert rc == 2 and out == ""
    assert "--order: must be >= 0" in err


def test_cli_tol_requires_float_mode():
    rc, _, _ = run_cli(["green", "--window", "0", "5", "--tol", "1e-9"])
    assert rc == 2


def test_cli_ksimplicial(fixture_dir):
    rc, out, _ = run_cli(["ksimplicial", "--complex", str(fixture_dir / "c6.cplx")])
    assert rc == 0
    payload = json.loads(out)
    assert payload["covariant_dimension"] == 1
    assert payload["kernel_dimension"] == 1


def test_cli_ksimplicial_rejects_a_pinched_vertex(tmp_path):
    path = tmp_path / "pinched.cplx"
    path.write_text("".join(f"s {a} {b} {c}\n" for a, b, c in pinched_torus(4).simplices),
                    encoding="utf-8")
    rc, out, err = run_cli(["ksimplicial", "--complex", str(path)])
    assert rc == 1 and "Traceback" not in err
    assert json.loads(out) == {"error": "NotAManifold",
                               "message": "the star of vertex 0 is pinched"}


@pytest.mark.parametrize("values", [["3"], ["-3", "8", "2"], ["0", "1", "2", "3", "4"]])
def test_cli_window_count_is_usage_error(values):
    rc, out, err = run_cli(["green", "--window", *values])
    assert rc == 2 and out == ""
    assert "--window takes 2 values (square) or 4 (x0 x1 y0 y1)" in err


def test_cli_byte_identical_reruns(fixture_dir):
    a = run_cli(["maxprinciple", "--mesh", str(fixture_dir / "hex3.tri"), "--seed", "9"])
    b = run_cli(["maxprinciple", "--mesh", str(fixture_dir / "hex3.tri"), "--seed", "9"])
    assert a == b
    c = run_cli(["taylor", "--seed", "11", "--order", "3"])
    d = run_cli(["taylor", "--seed", "11", "--order", "3"])
    assert c == d


def test_cli_format_flag_stdout():
    rc, out, _ = run_cli(["green", "--window", "-3", "6", "--format", "csv"])
    assert rc == 0 and out.startswith("n2\\n1,")
    rc, out, _ = run_cli(["green", "--window", "-3", "6", "--format", "svg"])
    assert rc == 0 and out.startswith("<svg")


def test_cli_cauchy_domain_file(tmp_path):
    dom_file = tmp_path / "dom.ld"
    lines = []
    for x in range(4, 8):
        for y in range(4, 8):
            lines.append(f"d b {x} {y}")
            lines.append(f"d w {x} {y}")
    dom_file.write_text("\n".join(lines), encoding="utf-8")
    rc, out, _ = run_cli(["cauchy", "--seed", "3", "--window", "0", "12", "0", "12",
                          "--domain", str(dom_file)])
    assert rc == 0 and json.loads(out)["exact"]


def test_cli_cauchy_names_the_least_vertex_outside_the_window(tmp_path):
    # the domain's vertices span [-1, 8] on each axis; the window [0, 12]^2
    # leaves out every vertex with a coordinate -1, the least being (-1, 0)
    dom_file = tmp_path / "dom.ld"
    dom_file.write_text("".join(f"d {k} {x} {y}\n" for x in range(0, 8)
                                for y in range(0, 8) for k in "bw"), encoding="utf-8")
    for seed in ("0", "1", "987654"):
        rc, out, err = run_cli(["cauchy", "--seed", "3", "--window", "0", "12", "0", "12",
                                "--domain", str(dom_file)], env={"PYTHONHASHSEED": seed})
        assert rc == 1 and "Traceback" not in err
        assert json.loads(out) == {"error": "TriholoError",
                                   "message": "domain vertex (-1, 0) outside the window"}


def test_cli_holonomy_noncanonical_connection(fixture_dir, tmp_path):
    # a vertex-gauged canonical connection: still flat, not canonical
    octa = fixtures.octahedron()
    lines = []
    for t, tri in enumerate(octa.triangles):
        for local, v in enumerate(tri):
            if v == 0:
                lines.append(f"b {t} {local} 3")
    conn_file = tmp_path / "gauged.conn"
    conn_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc, out, _ = run_cli(["holonomy", "--mesh", str(fixture_dir / "octahedron.tri"),
                          "--conn", str(conn_file)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["zero_curvature"]
    for gen in payload["generators"]:
        assert gen["trace"] == "2" and gen["det"] == "1"  # identity holonomy


def test_cli_maxprinciple_with_psi_file(fixture_dir, tmp_path):
    from triholo import mesh, solver

    patch = fixtures.hex_patch(3)
    fc = mesh.bw_face_coloring(patch.surface)
    free = solver.determining_vertex_set(patch.domain(), fc)
    vc = fixtures.lattice_vertex_coloring(patch)
    cvals = ("2", "-5", "3")
    psi_file = tmp_path / "flat.bv"
    psi_file.write_text("\n".join(f"psi {v} {cvals[vc[v]]}" for v in free), encoding="utf-8")
    rc, out, _ = run_cli(["maxprinciple", "--mesh", str(fixture_dir / "hex3.tri"),
                          "--psi", str(psi_file)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["point_hull"]


def test_cli_covariants_with_connection(fixture_dir, tmp_path):
    octa = fixtures.octahedron()
    lines = []
    for t, tri in enumerate(octa.triangles):
        for local, v in enumerate(tri):
            if v in (0, 3):
                lines.append(f"b {t} {local} {5 if v == 0 else '1/2'}")
    conn_file = tmp_path / "gauged2.conn"
    conn_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc, out, _ = run_cli(["covariants", "--mesh", str(fixture_dir / "octahedron.tri"),
                          "--conn", str(conn_file)])
    assert rc == 0
    assert json.loads(out)["dimension"] == 2


@pytest.mark.parametrize("line", ["b 99 0 2", "b -1 0 2"])
def test_cli_holonomy_rejects_bad_triangle_index(fixture_dir, tmp_path, line):
    conn_file = tmp_path / "bad.conn"
    conn_file.write_text(line + "\n", encoding="utf-8")
    rc, out, err = run_cli(["holonomy", "--mesh", str(fixture_dir / "octahedron.tri"),
                            "--conn", str(conn_file)])
    assert rc == 1
    assert json.loads(out)["error"] == "ValueError"
    assert "Traceback" not in err


def test_cli_invariant_violation_exits_nonzero():
    # an absurd float tolerance makes the identity check report failure
    rc, out, _ = run_cli(["qcd-identity", "--mode", "float", "--c", "1.0",
                          "--d", "1.5", "--tol", "1e-30",
                          "--l", "0.25,0.1,0.4,0.25"])
    assert rc == 1
    assert json.loads(out)["holds"] is False


def assert_typed_error(rc, out, err):
    assert rc == 1
    assert json.loads(out)["error"] == "ValueError"
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["psi 999 5\n", "psi -1 5\n", "psi 3 5\npsi 3 7\n",
                                  "psi 3 1/0\n"])
def test_cli_maxprinciple_rejects_bad_boundary_values(fixture_dir, tmp_path, text):
    psi_file = tmp_path / "bad.bv"
    psi_file.write_text(text, encoding="utf-8")
    assert_typed_error(*run_cli(["maxprinciple", "--mesh", str(fixture_dir / "hex3.tri"),
                                 "--psi", str(psi_file)]))


def test_cli_mesh_vertex_line_without_count(tmp_path):
    mesh_file = tmp_path / "no-count.tri"
    mesh_file.write_text("tri-surface v1\nv\nt 0 1 2\n", encoding="utf-8")
    assert_typed_error(*run_cli(["mesh-check", "--mesh", str(mesh_file)]))


def test_cli_connection_zero_denominator(fixture_dir, tmp_path):
    conn_file = tmp_path / "zero-den.conn"
    conn_file.write_text("b 0 0 1/0\n", encoding="utf-8")
    assert_typed_error(*run_cli(["holonomy", "--mesh", str(fixture_dir / "octahedron.tri"),
                                 "--conn", str(conn_file)]))


QCD_FLOAT = ["qcd-identity", "--mode", "float", "--tol", "1e-12", "--c", "1.0", "--d", "1.5",
             "--l", "0.25,0.1,0.4,0.25"]


# float-mode flags: a `nan` or `inf` value would reach the comparison and read as agreement
@pytest.mark.parametrize("args, line", [
    (["mesh-check", "--mesh", "x.tri"], "t 0 1 x"),
    (["qcd-identity", "--c", "1.5"], "--c 1.5"),
    *((QCD_FLOAT + [f"{flag}={value}"], f"{flag} {value}") for flag, value in [
        ("--c", "nan"), ("--c", "inf"), ("--d", "-inf"), ("--c", "1e400"), ("--d", "1_5"),
        ("--c", "\u0661"), ("--l", "nan,0.1,0.4,0.25"), ("--l", "0.25,inf,0.4,0.25"),
        ("--l", "0.25,0.1,0_4,0.25"), ("--c", "abc")]),
])
def test_cli_numeric_field_errors_name_the_line(tmp_path, args, line):
    (tmp_path / "x.tri").write_text("tri-surface v1\nt 0 1 x\n", encoding="utf-8")
    rc, out, err = run_cli([str(tmp_path / a) if a == "x.tri" else a for a in args])
    assert_typed_error(rc, out, err)
    assert repr(line) in json.loads(out)["message"]


@pytest.mark.parametrize("tol, message", [
    ("nan", "invalid finite float value: 'nan'"), ("inf", "invalid finite float value"),
    ("1_0", "invalid finite float value"), ("x", "invalid finite float value"),
    ("-1", "must be >= 0, got -1.0"), ("-0.5", "must be >= 0"),
])
def test_cli_tol_is_finite_and_nonnegative(tol, message):
    rc, out, err = run_cli(QCD_FLOAT + [f"--tol={tol}"])
    assert rc == 2 and out == ""
    assert f"argument --tol: {message}" in err


def test_cli_float_flags_keep_the_plain_forms():
    rc, out, _ = run_cli(QCD_FLOAT + ["--c=-1.5e0", "--d=.5", "--tol=0.001",
                                      "--l=0.25,1e-1,0.4,0.25"])
    assert rc == 0 and json.loads(out)["holds"]


@pytest.mark.parametrize("cmd", ["holonomy", "covariants"])
def test_cli_zero_connection_coefficient(fixture_dir, tmp_path, cmd):
    conn_file = tmp_path / "zero.conn"
    conn_file.write_text("b 0 0 0\n", encoding="utf-8")
    with pytest.raises(C.ZeroDivisor, match=r"b\[0,0\] must be nonzero"):
        io.parse_connection(conn_file.read_text(encoding="utf-8"), fixtures.octahedron())
    rc, out, err = run_cli([cmd, "--mesh", str(fixture_dir / "octahedron.tri"),
                            "--conn", str(conn_file)])
    assert rc == 1 and "Traceback" not in err
    assert json.loads(out)["error"] == "ZeroDivisor"


def test_cli_factorize_window_past_the_grid_names_the_point(fixture_dir):
    # random.op holds coefficients on 0..11 x 0..11; the window reads (12, 0)
    rc, out, err = run_cli(["factorize", "--op", str(fixture_dir / "random.op"),
                            "--window", "0", "13", "0", "13"])
    assert_typed_error(rc, out, err)
    assert json.loads(out)["message"] == "operator coefficient missing at (12, 0)"


@pytest.mark.parametrize("text", ["op 0\n", "op 0 0\nc 0 0\n"])
def test_cli_factorize_rejects_bad_operator_arity(tmp_path, text):
    op_file = tmp_path / "bad.op"
    op_file.write_text(text, encoding="utf-8")
    assert_typed_error(*run_cli(["factorize", "--op", str(op_file)]))


@pytest.mark.parametrize("flag", ["--c", "--d", "--q", "--s"])
def test_cli_qcd_zero_denominator(flag):
    rc, out, err = run_cli(["qcd-identity", flag, "1/0"])
    assert_typed_error(rc, out, err)
    assert "zero denominator" in json.loads(out)["message"]


def assert_error_body(rc, out, err, error, message):
    """Exit 1 with one JSON body, {error, message}, on stdout and on stderr."""
    body = {"error": error, "message": message}
    assert rc == 1
    assert json.loads(out) == body and json.loads(err) == body


@pytest.mark.parametrize("extra, error, message", [
    ([], "ValueError", "float mode needs --l l11,l12,l21,l22"),
    (["--l", "nan,0,0,0"], "ValueError", "bad float 'nan': '--l nan,0,0,0'"),
    (["--l", "0.25,0.1,0.4,0.25", "--c", "1_0"], "ValueError", "bad float '1_0': '--c 1_0'"),
])
def test_cli_qcd_float_mode_errors(extra, error, message):
    rc, out, err = run_cli(["qcd-identity", "--mode", "float", "--tol", "1e-12", *extra])
    assert_error_body(rc, out, err, error, message)


@pytest.mark.parametrize("flag", ["--q", "--s"])
def test_cli_qcd_zero_q_or_s(flag):
    assert_error_body(*run_cli(["qcd-identity", flag, "0"]),
                      "ConditionViolated", "q and s must be nonzero")


def test_cli_factorize_with_no_rational_root_in_either_colour(tmp_path):
    # a = 9 and every other shift 2: l1 l2 / d = 2 has no rational square root
    op_file = tmp_path / "const.op"
    op_file.write_text("".join(
        f"op {x} {y}\n" + "".join(f"c {i} {j} {9 if name == 'a' else 2}\n"
                                  for i in range(12) for j in range(12))
        for name, (x, y) in opalgebra.SCHRODINGER_SHIFTS.items()), encoding="utf-8")
    assert_error_body(*run_cli(["factorize", "--op", str(op_file)]),
                      "TriholoError", "neither color factorizes in this mode")


def test_cli_maxprinciple_rejects_boundary_value_outside_domain(fixture_dir, tmp_path):
    patch = fixtures.hex_patch(3)
    centre = patch.vertex_of[(0, 0)]
    star = patch.surface.vertex_triangles[centre]
    assert len(star) == 6
    inside = {v for t in star for v in patch.surface.triangles[t]}
    outside = min(set(range(patch.surface.num_vertices)) - inside)
    (tmp_path / "star.dom").write_text("".join(f"d {t}\n" for t in star), encoding="utf-8")
    (tmp_path / "outside.bv").write_text(f"psi {outside} 5\n", encoding="utf-8")
    rc, out, err = run_cli(["maxprinciple", "--mesh", str(fixture_dir / "hex3.tri"),
                            "--domain", str(tmp_path / "star.dom"),
                            "--psi", str(tmp_path / "outside.bv")])
    assert_typed_error(rc, out, err)
    assert f"[{outside}]" in json.loads(out)["message"]


def test_cli_holonomy_rejects_duplicate_connection_line(fixture_dir, tmp_path):
    conn_file = tmp_path / "dup.conn"
    conn_file.write_text("b 0 0 2\nb 0 0 5\n", encoding="utf-8")
    rc, out, err = run_cli(["holonomy", "--mesh", str(fixture_dir / "octahedron.tri"),
                            "--conn", str(conn_file)])
    assert_typed_error(rc, out, err)
    assert "'b 0 0 5'" in json.loads(out)["message"]


def test_cli_edge_disconnected_domains(fixture_dir, tmp_path):
    # triangles 0 and 1 of hex_patch(3) share only a vertex
    surf = fixtures.hex_patch(3).surface
    assert len(set(surf.triangles[0]) & set(surf.triangles[1])) == 1
    (tmp_path / "pinch.dom").write_text("d 0\nd 1\n", encoding="utf-8")
    (tmp_path / "two.tri").write_text("tri-surface v1\nt 0 1 2\nt 3 4 5\n", encoding="utf-8")
    for argv in (["maxprinciple", "--mesh", str(fixture_dir / "hex3.tri"),
                  "--domain", str(tmp_path / "pinch.dom")],
                 ["mesh-check", "--mesh", str(tmp_path / "two.tri")]):
        rc, out, err = run_cli(argv)
        assert_typed_error(rc, out, err)
        assert json.loads(out)["message"] == "dual graph is not connected"


@pytest.mark.parametrize("parse, text, match", [
    (io.parse_lattice_function, "f 0 0 1\nf 1 0 2\nf 0 0 1\n",
     r"duplicate lattice point: 'f 0 0 1'"),
    (lambda t: io.parse_domain(t, fixtures.octahedron()), "d 0\nd 3\nd 0\n",
     r"duplicate domain triangle: 'd 0'"),
    (io.parse_lattice_domain_points, "d b 2 3\nd w 2 3\nd b 2 3\n",
     r"duplicate lattice domain triangle: 'd b 2 3'"),
    (io.parse_operator, "op 0 0\nc 1 1 2\nop 1 0\nop 0 0\nc 1 1 3\n",
     r"repeated operator term: 'op 0 0'"),
    (io.parse_operator, "op 0 0\nc 1 1 2\nc 1 2 5\nc 1 1 3\n",
     r"duplicate operator coefficient: 'c 1 1 3'"),
    (io.parse_mesh, "tri-surface v1\nv 3\nt 0 1 2\nv 3\n",
     r"second vertex-count line: 'v 3'"),
    (lambda t: io.parse_boundary_values(t, fixtures.octahedron()), "psi 3 1\npsi 3 7\n",
     r"duplicate boundary value for vertex 3: 'psi 3 7'"),
    (io.parse_mesh, "tri-surface v1\nt 0 1 2\nt 1 2 3\nt 2 1 0\n",
     r"duplicate triangle: 't 2 1 0'"),
    (io.parse_complex, "s 0 1\ns 1 2\ns 1 0\n", r"duplicate simplex: 's 1 0'"),
], ids=["lattice-function", "domain", "lattice-domain", "operator-term",
        "operator-coefficient", "mesh-vertex-count", "boundary-values", "mesh-triangle",
        "complex-simplex"])
def test_duplicate_records_name_the_line(parse, text, match):
    with pytest.raises(ValueError, match=match):
        parse(text)


def test_cli_cauchy_rejects_duplicate_domain_line(tmp_path):
    dom_file = tmp_path / "dup.ld"
    dom_file.write_text("d b 0 0\nd w -1 -1\nd b 0 0\n", encoding="utf-8")
    rc, out, err = run_cli(["cauchy", "--domain", str(dom_file)])
    assert_typed_error(rc, out, err)
    assert "'d b 0 0'" in json.loads(out)["message"]


@pytest.mark.parametrize("record", ["header", "coefficient"])
def test_cli_factorize_rejects_duplicate_operator_records(fixture_dir, tmp_path, record):
    text = fixture_dir.joinpath("random.op").read_text(encoding="utf-8")
    lines = text.splitlines()
    # the file's first term header again, or its last coefficient line again
    line = lines[0] if record == "header" else lines[-1]
    assert line.split()[0] == ("op" if record == "header" else "c")
    op_file = tmp_path / "dup.op"
    op_file.write_text(text + "\n" + line + "\n", encoding="utf-8")
    rc, out, err = run_cli(["factorize", "--op", str(op_file)])
    assert_typed_error(rc, out, err)
    assert repr(line) in json.loads(out)["message"]


@pytest.mark.parametrize("cmd, flag, name, text, line", [
    ("mesh-check", "--mesh", "dup.tri", "tri-surface v1\nt 0 1 2\nt 0 2 3\nt 0 1 2\n",
     "t 0 1 2"),
    ("ksimplicial", "--complex", "dup.cplx", "s 0 1\ns 1 2\ns 2 0\ns 0 2\n", "s 0 2"),
], ids=["mesh-check", "ksimplicial"])
def test_cli_rejects_duplicate_mesh_and_complex_records(tmp_path, cmd, flag, name, text, line):
    (tmp_path / name).write_text(text, encoding="utf-8")
    rc, out, err = run_cli([cmd, flag, str(tmp_path / name)])
    assert_typed_error(rc, out, err)
    assert repr(line) in json.loads(out)["message"]
