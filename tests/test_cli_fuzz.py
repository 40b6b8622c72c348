"""Seeded mutation fuzz of the input contract of `cli.main`.

Each file format the CLI reads gets a small valid file, and every run
applies one mutation to it: a token replaced, dropped or appended, a line
duplicated or deleted, or a record tag swapped.  Whatever the mutation,
`main` exits 0 or 1 and raises nothing, and an exit 1 prints one JSON
object with `error` and `message`.  A numeric field replaced by a
malformed number exits 1 with a message that names its line.

Runs `cli.main` in-process.
"""

import contextlib
import io
import json
import random

import pytest

from triholo import cli, fixtures, mesh, opalgebra, solver
from triholo import io as tio
from triholo.lattice import Window

RUNS = 300
# tokens a general replacement or an appended token draws from
TOKENS = ("0", "1", "2", "-1", "5", "1/2", "-3/4", "1/0", "x", "b", "w", "1_0", "+1",
          "١", "1.5", "")
# malformed numbers: each must be rejected at its own line
BAD_NUMBERS = ("x", "1_0", "+1", "١", "1.5")
TAGS = ("t", "v", "d", "b", "psi", "f", "op", "c", "s", "R", "tri-surface", "#")


def _operator(window: Window) -> str:
    lop = opalgebra.random_factorizable(random.Random(3), "black")
    return "".join(f"op {a[0]} {a[1]}\n" + "".join(f"c {x} {y} {getattr(lop, k)((x, y))}\n"
                                                   for x, y in window.points())
                   for k, a in opalgebra.SCHRODINGER_SHIFTS.items())


def _formats():
    """suffix -> (valid text, argv with FILE for the fuzzed file, {tag: index
    of the first numeric field})."""
    octa = fixtures.octahedron()
    hex2 = fixtures.hex_patch(2)
    free = solver.determining_vertex_set(hex2.domain(), mesh.bw_face_coloring(hex2.surface))
    colour = fixtures.lattice_vertex_coloring(hex2)
    gauged = [f"b {t} {i} 3" for t, tri in enumerate(octa.triangles)
              for i, v in enumerate(tri) if v == 0]
    return {
        "tri": (tio.write_mesh(octa), ["mesh-check", "--mesh", "FILE"], {"t": 1, "v": 1}),
        "dom": ("".join(f"d {t}\n" for t in range(hex2.surface.num_triangles)),
                ["maxprinciple", "--mesh", "hex2.tri", "--domain", "FILE", "--seed", "1"],
                {"d": 1}),
        "conn": ("\n".join(gauged) + "\n", ["holonomy", "--mesh", "octa.tri", "--conn", "FILE"],
                 {"b": 1}),
        "bv": ("".join(f"psi {v} {('2', '-5', '3')[colour[v]]}\n" for v in free),
               ["maxprinciple", "--mesh", "hex2.tri", "--psi", "FILE"], {"psi": 1}),
        "ld": ("".join(f"d {k} {x} {y}\n" for x in range(3) for y in range(3) for k in "bw"),
               ["cauchy", "--seed", "1", "--window", "-2", "5", "--domain", "FILE"], {"d": 2}),
        "op": (_operator(Window(0, 5, 0, 5)),
               ["factorize", "--op", "FILE", "--window", "0", "5", "0", "5"], {"op": 1, "c": 1}),
        "cplx": ("".join(f"s {a} {b} {c}\n" for a, b, c in octa.triangles),
                 ["ksimplicial", "--complex", "FILE"], {"s": 1}),
    }


FORMATS = _formats()


def mutate(rng, text: str, numeric_from: dict):
    """One mutation of `text`: (new text, the line a malformed number was
    put on, or None)."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    i = rng.randrange(len(lines))
    line = lines[i]
    kind = rng.choice(("replace", "bad number", "drop", "append", "duplicate", "delete", "tag"))
    bad_line = None
    if kind == "bad number" and len(line) > numeric_from.get(line[0], len(line)):
        line[rng.randrange(numeric_from[line[0]], len(line))] = rng.choice(BAD_NUMBERS)
        bad_line = " ".join(line)
    elif kind in ("replace", "bad number"):
        line[rng.randrange(len(line))] = rng.choice(TOKENS)
    elif kind == "drop":
        del line[rng.randrange(len(line))]
    elif kind == "append":
        line.append(rng.choice(TOKENS))
    elif kind == "duplicate":
        lines.insert(i, list(line))
    elif kind == "delete":
        del lines[i]
    else:
        line[0] = rng.choice(TAGS)
    return "".join(" ".join(tokens) + "\n" for tokens in lines), bad_line


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "octa.tri").write_text(tio.write_mesh(fixtures.octahedron()), encoding="utf-8")
    (d / "hex2.tri").write_text(tio.write_mesh(fixtures.hex_patch(2).surface), encoding="utf-8")
    return d


@pytest.mark.parametrize("suffix", sorted(FORMATS))
def test_mutated_files_exit_0_or_1_with_a_json_error(files, suffix):
    text, argv, numeric_from = FORMATS[suffix]
    target = files / f"fuzz.{suffix}"
    argv = [str(target) if a == "FILE" else str(files / a) if a.endswith(".tri") else a
            for a in argv]
    target.write_text(text, encoding="utf-8")
    assert run(argv)[0] == 0
    rng = random.Random(f"fuzz-{suffix}")
    bad = 0
    for _ in range(RUNS):
        mutated, bad_line = mutate(rng, text, numeric_from)
        target.write_text(mutated, encoding="utf-8")
        rc, out = run(argv)
        assert rc in (0, 1), mutated
        if rc == 1:
            body = json.loads(out)
            assert {"error", "message"} <= set(body), out
        if bad_line is not None:
            bad += 1
            assert rc == 1 and repr(bad_line) in body["message"], (bad_line, out)
    assert bad >= 5
