"""Command-line frontend.

Subcommands: mesh-check, holonomy, covariants, maxprinciple, taylor,
cauchy, green, factorize, qcd-identity, ksimplicial.

The main artifact is JSON on stdout (or --out); when --out ends in .csv
or .svg the fitting representation is written instead, rendered only then
(subcommands return zero-argument csv/svg renderers).  Each subcommand
accepts only the options it reads (`COMMANDS`), and --out/--format.
Domain errors exit 1 with a JSON error body; usage errors, an unread
option among them, exit 2.  Rational-mode runs are byte-identical for
identical inputs and seeds.

`main` builds the argparse tree once per process, on its first call, and
parses every later call with it; the tree is the only state kept between
calls.  `build_parser()` returns a fresh tree each time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from . import connection as conn_mod
from . import io, lattice, mesh, opalgebra, simplicial, solver
from .errors import TriholoError
from .svgplot import lattice_heatmap_svg, scatter_hull_svg


def _resolve(path: str) -> str:
    if os.path.exists(path):
        return path
    fixture_dir = os.environ.get("TRIHOLO_FIXTURES")
    if fixture_dir:
        cand = os.path.join(fixture_dir, path)
        if os.path.exists(cand):
            return cand
    return path


def _read(path: str) -> str:
    with open(_resolve(path), "r", encoding="utf-8") as fh:
        return fh.read()


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(_jsonable(v) for v in x)
    return x


def _emit(args, payload: dict, csv=None, svg=None) -> None:
    out, fmt = args.out, args.format
    if out is not None and fmt is None:
        if out.endswith(".csv"):
            fmt = "csv"
        elif out.endswith(".svg"):
            fmt = "svg"
    if fmt == "csv" and csv is not None:
        body = csv()
    elif fmt == "svg" and svg is not None:
        body = svg()
    else:
        body = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    if out is None:
        print(body, end="" if body.endswith("\n") else "\n")
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(body)


def _window(values) -> lattice.Window:
    """[a, b]^2 from 2 values, else x0 x1 y0 y1 (`main` checks the count)."""
    if len(values) == 2:
        a, b = values
        return lattice.Window(a, b, a, b)
    return lattice.Window(*values)


def _nonnegative(read, kind: str):
    """The argparse type of a `kind` option read by `read`, which raises
    ValueError on a malformed value; a negative value is a usage error."""
    def parse(text: str):
        try:
            value = read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind} value: {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    return parse


def _load_mesh(args) -> mesh.TriangulatedSurface:
    return io.parse_mesh(_read(args.mesh))


def _load_connection(args, surface):
    if args.conn:
        return io.parse_connection(_read(args.conn), surface)
    return conn_mod.canonical_connection(surface)


# --- subcommands -------------------------------------------------------------

def cmd_mesh_check(args) -> dict:
    surf = _load_mesh(args)
    valences = sorted({surf.valence(v) for v in range(surf.num_vertices)})
    bw = mesh.bw_face_coloring(surf)
    tric = mesh.three_vertex_coloring(surf)
    report = {
        "vertices": surf.num_vertices,
        "edges": surf.num_edges,
        "triangles": surf.num_triangles,
        "euler_characteristic": surf.euler_characteristic(),
        "closed": surf.is_closed,
        "valences": valences,
        "all_valences_even": all(surf.valence(v) % 2 == 0
                                 for v in range(surf.num_vertices)),
        "bw_colorable": bw is not None,
        "tri_vertex_colorable": tric is not None,
        "coincident_ring_pairs": _coincident_ring_pairs(surf, bw),
        "ok": True,
    }
    return report


def _coincident_ring_pairs(surf, bw) -> int:
    """Black triangles whose six distance-2 black neighbors coincide in
    pairs (small closed surfaces); accepted but worth flagging."""
    if bw is None:
        return 0
    count = 0
    for t in sorted(bw.black_triangles()):
        ring = []
        for v in surf.triangles[t]:
            ring += [o for o in surf.vertex_triangles[v]
                     if o != t and bw.face_colors.get(o) == mesh.BLACK]
        if len(ring) != len(set(ring)):
            count += 1
    return count


def cmd_holonomy(args) -> dict:
    surf = _load_mesh(args)
    connection = _load_connection(args, surf)
    if connection.is_canonical:
        cls = conn_mod.classify_holonomy(connection)
        return {
            "group": cls.group,
            "dim": cls.covariant_dimension,
            "generators": [list(p) for p in cls.generators],
            "rho1": list(cls.rho1),
        }
    gens = conn_mod.holonomy_generators(connection)
    return {
        "zero_curvature": True,
        "generators": [{"trace": g[0][0] + g[1][1], "det": g[0][0] * g[1][1]
                        - g[0][1] * g[1][0]} for g in gens],
    }


def cmd_covariants(args) -> dict:
    surf = _load_mesh(args)
    connection = _load_connection(args, surf)
    space = solver.covariant_constants(connection)
    return {
        "dimension": space.dimension,
        "basis": [{str(v): psi[v] for v in sorted(psi)} for psi in space.basis],
    }


def cmd_maxprinciple(args) -> dict:
    surf = _load_mesh(args)
    if args.domain:
        dom = io.parse_domain(_read(args.domain), surf)
    else:
        dom = mesh.whole_domain(surf)
    fc = mesh.bw_face_coloring(dom)
    vc = mesh.three_vertex_coloring(dom)
    if fc is None or vc is None:
        raise TriholoError("domain admits no b/w or tri-coloring")
    if args.psi:
        values = io.parse_boundary_values(_read(args.psi), surf)
        result = solver.solve_bw(dom, fc, values)
        psi = result.values
    else:
        rng = random.Random(args.seed)
        free = solver.determining_vertex_set(dom, fc)
        boundary = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in free}
        psi = solver.solve_bw(dom, fc, boundary).values
    report = solver.max_principle_check(dom, psi, fc, vc)
    payload = {
        "ok": report.ok,
        "point_hull": report.point_hull,
        "hull_corners": [[p[0], p[1]] for p in report.hull_corners],
        "corner_violations": [[p[0], p[1]] for p in report.corner_violations],
        "containment_violations": report.containment_violations,
        "betweenness_failures": report.betweenness_failures,
        "checked_internal": report.checked_internal,
    }

    def svg():
        images = solver.hat_map(dom, psi, fc, vc)
        boundary_imgs = sorted({images[t] for t in dom.lower_boundary() & set(images)})
        return scatter_hull_svg(list(images.values()), solver.convex_hull(boundary_imgs))

    return payload, None, svg


def cmd_taylor(args) -> dict:
    w = _window(args.window)
    rng = random.Random(args.seed)
    psi = lattice.random_holomorphic(w, rng)
    order = args.order
    seq = lattice.default_admissible(w.center(), order)
    coeffs = lattice.taylor_coefficients(psi, seq, order)
    basis = lattice.poly_space_basis(seq, order, w)
    exact = []
    for k in range(order + 1):
        ps = lattice.taylor_partial_sum(seq, coeffs[: k + 1], w, basis[: 2 * k + 2])
        tri = seq.triangle(k)
        exact.append(all(ps[p] == psi[p] for p in tri.points()))
    payload = {
        "coefficients": [[c[0], c[1]] for c in coeffs],
        "partial_sums_exact_on_Tk": exact,
        "ok": all(exact),
    }
    csv = "k,alpha1,alpha2\n" + "\n".join(
        f"{k},{c[0]},{c[1]}" for k, c in enumerate(coeffs)) + "\n"
    return payload, lambda: csv, None


def cmd_cauchy(args) -> dict:
    w = _window(args.window)
    rng = random.Random(args.seed)
    psi = lattice.random_holomorphic(w, rng, pad=1)
    if args.domain:
        dom = io.parse_lattice_domain_points(_read(args.domain))
        verts = dom.vertices()
        outside = [v for v in verts if not w.contains(v)]
        if outside:
            raise TriholoError(f"domain vertex {min(outside)} outside the window")
    else:
        tris = set()
        cx, cy = w.center()
        x, y = cx, cy
        for _ in range(max(8, (w.x1 - w.x0))):
            tris.add(("b", (x, y)))
            tris.add(("w", (x - 1, y - 1)))
            x += rng.choice((-1, 0, 1))
            y += rng.choice((-1, 0, 1))
            x = min(max(x, w.x0 + 2), w.x1 - 2)
            y = min(max(y, w.y0 + 2), w.y1 - 2)
        dom = lattice.LatticeDomain(frozenset(tris))
        verts = dom.vertices()
    data = {v: psi[v] for v in verts}
    rec = lattice.cauchy_reconstruct(dom, data)
    exact = all(rec[v] == psi[v] for v in verts)
    payload = {
        "domain_triangles": len(dom.tris),
        "vertices": len(verts),
        "exact": exact,
        "ok": exact,
    }
    grid = lattice.LatticeFunction(
        {p: rec[p] for p in verts},
        lattice.Window(min(p[0] for p in rec), max(p[0] for p in rec),
                       min(p[1] for p in rec), max(p[1] for p in rec)))
    return payload, lambda: io.lattice_csv(grid), lambda: lattice_heatmap_svg(grid)


def cmd_green(args) -> dict:
    w = _window(args.window)
    g = lattice.build_green(w)
    payload = {
        "window": [w.x0, w.x1, w.y0, w.y1],
        "values": {f"{p[0]},{p[1]}": g[p] for p in w.points() if g[p] != 0},
        "ok": True,
    }
    return payload, lambda: io.lattice_csv(g), lambda: lattice_heatmap_svg(g)


def cmd_factorize(args) -> dict:
    w = _window(args.window)
    text = _read(args.op)
    op = io.parse_operator(text)
    lop = opalgebra.SchrodingerOperator.from_operator(op)
    mode = args.mode
    inner = w.shrink(left=1, right=1, bottom=1, top=1)
    colors = {}
    for color, (names, _, _) in opalgebra.COLORS.items():
        try:
            fac = opalgebra.factorize(lop, color, w, mode=mode)
            colors[color] = {f"{n[0]},{n[1]}": [str(fac.coeffs[k](n)) for k in names]
                             + [str(fac.potential(n))] for n in inner.points()}
        except opalgebra.NotFactorizable as exc:
            # rational mode may hit irrational square roots for one color
            colors[color] = {"not_factorizable": str(exc)}
    factored = {c: sample for c, sample in colors.items() if "not_factorizable" not in sample}
    if not factored:
        raise TriholoError("neither color factorizes in this mode")

    def csv():
        rows = ["n1,n2,color,c0,c1,c2,potential"]
        rows += [f"{n},{c}," + ",".join(vals)
                 for c, sample in factored.items() for n, vals in sample.items()]
        return "\n".join(rows) + "\n"

    payload = {"window": [w.x0, w.x1, w.y0, w.y1], "mode": mode, "colors": colors, "ok": True}
    return payload, csv, None


def cmd_qcd_identity(args) -> dict:
    w = _window(args.window)
    if args.mode == "rational":
        c, d, q, s = (io._rational(getattr(args, k), f"--{k} {getattr(args, k)}")
                      for k in "cdqs")
        rep = opalgebra.verify_qcd_identity(c, d, w, q=q, s=s)
    else:
        if args.l is None:
            raise ValueError("float mode needs --l l11,l12,l21,l22")
        c, d = (io._float(getattr(args, k), f"--{k} {getattr(args, k)}") for k in "cd")
        l11, l12, l21, l22 = (io._float(v, f"--l {args.l}") for v in args.l.split(","))
        rep = opalgebra.verify_qcd_identity(c, d, w, l=[[l11, l12], [l21, l22]], tol=args.tol)
    return {"holds": rep.holds, "q": str(rep.q), "mode": rep.mode, "ok": rep.holds}


def cmd_ksimplicial(args) -> dict:
    x = io.parse_complex(_read(args.complex))
    read_out = simplicial.vertex_orbit_classes(x)   # one read-out serves both
    hol = read_out[1]
    rep = simplicial._bw_report(x, read_out)
    return {
        "k": x.k,
        "simplices": x.num_simplices,
        "group_order": len(hol.group),
        "orbit_count": hol.orbit_count,
        "covariant_dimension": hol.covariant_dimension,
        "kernel_dimension": rep.kernel_dimension,
        "kernel_matches_covariants": rep.kernel_matches_covariants,
        "bw_exists": rep.bw_exists,
        "factorization_holds": rep.factorization_holds,
        "ok": True,
    }


# --- argument parsing ----------------------------------------------------------

# argparse keywords of every option; `--window` takes its default from COMMANDS.
OPTIONS = {
    "mesh": dict(required=True),
    "conn": dict(default=None),
    "domain": dict(default=None, help="triangle-subset (.dom) or lattice (.ld) domain file"),
    "psi": dict(default=None),
    "order": dict(type=_nonnegative(int, "int"), default=5),
    "op": dict(required=True),
    "c": dict(default="1"),
    "d": dict(default="1"),
    "q": dict(default="2"),
    "s": dict(default="3"),
    "l": dict(default=None, help="l11,l12,l21,l22 for float mode"),
    "complex": dict(required=True),
    "seed": dict(type=int, default=0),
    "mode": dict(choices=("rational", "float"), default="rational"),
    "tol": dict(type=_nonnegative(lambda text: io._float(text, text), "finite float"),
                default=None),
    "out": dict(default=None),
    "format": dict(choices=("json", "csv", "svg"), default=None),
    "window": dict(type=int, nargs="+"),
}

# subcommand -> (function, the options it reads, --window default or None)
COMMANDS = {
    "mesh-check": (cmd_mesh_check, ("mesh",), None),
    "holonomy": (cmd_holonomy, ("mesh", "conn"), None),
    "covariants": (cmd_covariants, ("mesh", "conn"), None),
    "maxprinciple": (cmd_maxprinciple, ("mesh", "domain", "psi", "seed"), None),
    "taylor": (cmd_taylor, ("order", "seed"), [-16, 10, -16, 10]),
    "cauchy": (cmd_cauchy, ("domain", "seed"), [-12, 12, -12, 12]),
    "green": (cmd_green, (), [-5, 25]),
    "factorize": (cmd_factorize, ("op", "mode", "tol"), [0, 11, 0, 11]),
    "qcd-identity": (cmd_qcd_identity, ("c", "d", "q", "s", "l", "mode", "tol"),
                     [-5, 5, -5, 5]),
    "ksimplicial": (cmd_ksimplicial, ("complex",), None),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per COMMANDS entry, taking exactly its options plus
    --out and --format; any other option is a usage error."""
    p = argparse.ArgumentParser(prog="triholo",
                                description="triangle operators and discrete holomorphy")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, options, window) in COMMANDS.items():
        sp = sub.add_parser(name)
        for opt in (*options, "out", "format"):
            sp.add_argument(f"--{opt}", **OPTIONS[opt])
        if window is not None:
            sp.add_argument("--window", default=window, **OPTIONS["window"])
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The tree `main` parses with.  Parsing leaves it unchanged (argparse
    keeps a call's values on its namespace, and makes a fresh help
    formatter, which reads the terminal width, for each message)."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    mode = getattr(args, "mode", None)
    if mode == "float" and args.tol is None:
        parser.error("--mode float requires --tol")
    if mode == "rational" and args.tol is not None:
        parser.error("--tol is only meaningful with --mode float")
    window = getattr(args, "window", None)
    if window is not None and len(window) not in (2, 4):
        parser.error("--window takes 2 values (square) or 4 (x0 x1 y0 y1)")
    # Looked up by name at call time, so a rebinding of the module
    # attribute (a tracer's wrapper) is the function that runs.
    cmd = globals()[COMMANDS[args.command][0].__name__]
    try:
        result = cmd(args)
    except (TriholoError, ValueError, OSError) as exc:
        body = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(body, sort_keys=True), file=sys.stderr)
        print(json.dumps(body, sort_keys=True))
        return 1
    if isinstance(result, tuple):
        payload, csv, svg = result
    else:
        payload, csv, svg = result, None, None
    _emit(args, payload, csv, svg)
    return 0 if payload.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
