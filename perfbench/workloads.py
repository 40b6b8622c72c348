"""The benchmark's three workloads: inputs made from the seed, job closures,
and an exact check of every job's answer.

Jobs call into triholo through the module objects in `lib`, looked up at
call time, so that the tracer's wrappers see every call.  Checks read only
the values a job returned and its inputs, use code in this file, and run
outside the timed interval with the tracer off.

A workload object is built once per set-up round.  `deck(rng)` returns one
deck: every job slot of the workload once, in a seeded order, with seeded
contents.  The runner measures whole decks, so every run holds the same mix
of job kinds and sizes and only the seeded contents differ.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass
class Job:
    kind: str
    size: dict                  # input size: V and T, or window points
    run: Callable               # the timed work; returns the output
    check: Callable             # output -> bool, exact
    hostile: bool = False       # malformed input that must end in a typed error
    out_bytes: Callable = lambda out: 0   # bytes of output, from run()'s result


# --- exact reference helpers ---------------------------------------------------

def _rank(rows) -> int:
    """Exact rank by Fraction elimination; the reference for span checks."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _same_span(a, b) -> bool:
    return _rank(a) == _rank(b) == _rank(a + b)


def _solves(tris, vec) -> bool:
    """vec solves every canonical triangle equation psi_a + psi_b + psi_c = 0."""
    return all(vec[a] + vec[b] + vec[c] == 0 for a, b, c in tris)


def torus_dim(n: int, shear: int) -> int:
    """Covariant dimension of the canonical connection on
    torus_lattice(n, shear).  The colouring (x - y) mod 3 survives both
    identifications, by (n, 0) and (shear, n), exactly when 3 divides n and
    shear: holonomy trivial, dimension 2.  Otherwise it is Z3, dimension 0."""
    return 2 if n % 3 == 0 and shear % 3 == 0 else 0


def signed_binomial(p) -> int:
    x, y = p
    return (-1) ** (x + y) * math.comb(x + y, x) if x >= 0 and y >= 0 else 0


def _random_window(rng, width: int, contains_origin: bool = False):
    if contains_origin:
        x0, y0 = -rng.randint(1, width // 3), -rng.randint(1, width // 3)
    else:
        x0, y0 = rng.randint(-20, 20), rng.randint(-20, 20)
    return (x0, x0 + width - 1, y0, y0 + width - 1)


def _walk_domain(rng, window, steps: int) -> frozenset:
    """Triangles of a random walk kept two points inside the window."""
    x0, x1, y0, y1 = window
    x, y = (x0 + x1) // 2, (y0 + y1) // 2
    tris = set()
    for _ in range(steps):
        tris.add(("b", (x, y)))
        tris.add(("w", (x - 1, y - 1)))
        x = min(max(x + rng.choice((-1, 0, 1)), x0 + 2), x1 - 2)
        y = min(max(y + rng.choice((-1, 0, 1)), y0 + 2), y1 - 2)
    return frozenset(tris)


# --- surface-solve -----------------------------------------------------------

class SurfaceSolve:
    """Global exact systems on closed lattice tori and hex patches: dense
    exact elimination in `ratmat` carries the cost; no lattice stencil runs."""

    # 15 slots per deck.  Sorted by time, the median falls among the four
    # covariants n=6 slots and p90 in the middle of the three slowest
    # (bw_factorization n=7, covariants n=7 twice), not on a boundary between
    # job kinds.  A hex patch r=5 job (1.3 s) would sit alone above them.
    FULL = {"covariants": (6, 6, 6, 6, 7, 7), "l_identity": (6, 7, 8, 9),
            "maxprinciple": (4, 4), "bw_factorization": (6, 6, 7)}
    SMOKE = {"covariants": (3,), "l_identity": (3,), "maxprinciple": (2,),
             "bw_factorization": (3,)}

    def __init__(self, lib, rng, workdir, smoke):
        self.lib = lib
        self.sizes = self.SMOKE if smoke else self.FULL
        ns = sorted({n for kind in ("covariants", "l_identity", "bw_factorization")
                     for n in self.sizes[kind]})
        self.tori = {(n, s): tuple(lib.fixtures.torus_lattice(n, s).surface.triangles)
                     for n in ns for s in range(n)}
        self.hexes = {r: tuple(lib.fixtures.hex_patch(r).surface.triangles)
                      for r in self.sizes["maxprinciple"]}

    def deck(self, rng) -> list:
        jobs = []
        for n in self.sizes["covariants"]:
            jobs.append(self.covariants(n, rng.randrange(n)))
        for n in self.sizes["l_identity"]:
            jobs.append(self.l_identity(n, rng.randrange(n)))
        for r in self.sizes["maxprinciple"]:
            jobs.append(self.maxprinciple(r, rng.randrange(2 ** 32)))
        for n in self.sizes["bw_factorization"]:
            jobs.append(self.bw_factorization(n, rng.randrange(n)))
        rng.shuffle(jobs)
        return jobs

    def warmup(self) -> list:
        return [getattr(self, kind)(sizes[0], 0) for kind, sizes in self.sizes.items()]

    @staticmethod
    def _size(tris) -> dict:
        return {"V": len({v for t in tris for v in t}), "T": len(tris)}

    def covariants(self, n, shear) -> Job:
        """covariant_constants against zero_modes of L = Q+Q."""
        lib, tris = self.lib, self.tori[(n, shear)]
        nv = n * n

        def run():
            conn = lib.connection.canonical_connection(lib.mesh.build_surface(tris))
            return lib.solver.covariant_constants(conn), lib.solver.zero_modes(conn)

        def check(out):
            space, modes = out
            cv = [[psi[v] for v in range(nv)] for psi in space.basis]
            mv = [[m[v] for v in range(nv)] for m in modes]
            d = torus_dim(n, shear)
            return (space.dimension == len(cv) == len(mv) == d
                    and all(_solves(tris, v) for v in cv + mv)
                    and _same_span(cv, mv))

        return Job("covariants", self._size(tris), run, check)

    def l_identity(self, n, shear) -> Job:
        lib, tris = self.lib, self.tori[(n, shear)]

        def run():
            return lib.solver.check_L_identity(lib.mesh.build_surface(tris))

        def check(rep):
            return (rep.l_identity is True and rep.bw_exists is True
                    and rep.qb_identity is True and rep.qw_identity is True
                    and rep.dual_block_identity is True)

        return Job("l_identity", self._size(tris), run, check)

    def maxprinciple(self, r, seed) -> Job:
        """determining_vertex_set + solve_bw + max_principle_check."""
        lib, tris = self.lib, self.hexes[r]

        def run():
            mesh, solver = lib.mesh, lib.solver
            dom = mesh.whole_domain(mesh.build_surface(tris))
            fc = mesh.bw_face_coloring(dom)
            vc = mesh.three_vertex_coloring(dom)
            free = solver.determining_vertex_set(dom, fc)
            rng = random.Random(seed)
            boundary = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in free}
            res = solver.solve_bw(dom, fc, boundary)
            return fc, boundary, res, solver.max_principle_check(dom, res.values, fc, vc)

        def check(out):
            fc, boundary, res, rep = out
            black = lib.mesh.BLACK
            psi = res.values
            return (rep.ok and res.unique
                    and all(psi[v] == x for v, x in boundary.items())
                    and all(psi[a] + psi[b] + psi[c] == 0
                            for t, (a, b, c) in enumerate(tris)
                            if fc.face_colors[t] == black))

        return Job("maxprinciple", self._size(tris), run, check)

    def bw_factorization(self, n, shear) -> Job:
        """simplicial.bw_factorization_check on the torus as a 2-complex."""
        lib, tris = self.lib, self.tori[(n, shear)]

        def run():
            return lib.simplicial.bw_factorization_check(
                lib.simplicial.SimplicialComplexK(tris))

        def check(rep):
            return (rep.bw_exists is True and rep.kernel_dimension == torus_dim(n, shear)
                    and rep.kernel_matches_covariants is True
                    and rep.factorization_holds is True)

        return Job("bw_factorization", self._size(tris), run, check)


# --- lattice-calculus --------------------------------------------------------

class LatticeCalculus:
    """Z^2 windows: per-point Fraction dicts, side-polynomial construction
    and delta-probe operator comparison carry the cost; `ratmat` is idle."""

    # 15 slots per deck.  Sorted by time, the median falls in the middle of
    # the three factorize slots (six green and cauchy slots below them) and
    # p90 among the four widest taylor slots.
    FULL = {"taylor": ((28, 3), (30, 3), (32, 3), (32, 3), (32, 3), (32, 3)),
            "cauchy": (40, 50, 60), "green": (40, 50, 60),
            "factorize": ("black", "white", "black"), "op_window": 12}
    SMOKE = {"taylor": ((12, 1),), "cauchy": (12,), "green": (12,),
             "factorize": ("black",), "op_window": 6}

    def __init__(self, lib, rng, workdir, smoke):
        self.lib = lib
        self.sizes = self.SMOKE if smoke else self.FULL

    def deck(self, rng) -> list:
        s = self.sizes
        jobs = [self.taylor(_random_window(rng, w), order, rng.randrange(2 ** 32))
                for w, order in s["taylor"]]
        for w in s["cauchy"]:
            win = _random_window(rng, w)
            jobs.append(self.cauchy(win, _walk_domain(rng, win, 2 * w),
                                    rng.randrange(2 ** 32)))
        jobs += [self.green(_random_window(rng, w, contains_origin=True))
                 for w in s["green"]]
        ow = s["op_window"]
        jobs += [self.factorize(color, _random_window(rng, ow), rng.randrange(2 ** 32))
                 for color in s["factorize"]]
        rng.shuffle(jobs)
        return jobs

    def warmup(self) -> list:
        rng = random.Random(0)
        return [self.taylor((0, 11, 0, 11), 1, 0),
                self.cauchy((0, 11, 0, 11), _walk_domain(rng, (0, 11, 0, 11), 12), 0),
                self.green((-2, 9, -2, 9)),
                self.factorize("black", (0, 5, 0, 5), 0)]

    def taylor(self, win, order, seed) -> Job:
        """random_holomorphic + taylor_coefficients + the P_k basis and the
        Taylor polynomial; checked by partial sums on every T(k)."""
        lat = self.lib.lattice

        def run():
            w = lat.Window(*win)
            psi = lat.random_holomorphic(w, random.Random(seed))
            seq = lat.default_admissible(w.center(), order)
            coeffs = lat.taylor_coefficients(psi, seq, order)
            basis = lat.poly_space_basis(seq, order, w)
            return psi, seq, coeffs, basis, lat.taylor_partial_sum(seq, coeffs, w, basis)

        def check(out):
            psi, seq, coeffs, basis, total = out
            for k in range(order + 1):
                for p in seq.triangle(k).points():
                    acc = sum((a1 * basis[2 * j][p] + a2 * basis[2 * j + 1][p]
                               for j, (a1, a2) in enumerate(coeffs[:k + 1])), Fraction(0))
                    if acc != psi[p] or (k == order and total[p] != psi[p]):
                        return False
            return True

        return Job("taylor", {"points": _points(win)}, run, check)

    def cauchy(self, win, tris, seed) -> Job:
        lat = self.lib.lattice

        def run():
            psi = lat.random_holomorphic(lat.Window(*win), random.Random(seed), pad=1)
            dom = lat.LatticeDomain(tris)
            data = {v: psi[v] for v in dom.vertices()}
            return psi, dom, lat.cauchy_reconstruct(dom, data)

        def check(out):
            psi, dom, rec = out
            verts = dom.vertices()
            return set(rec) == set(verts) and all(rec[v] == psi[v] for v in verts)

        return Job("cauchy", {"points": _points(win), "domain_triangles": len(tris)},
                   run, check)

    def green(self, win) -> Job:
        """build_green + apply_Qplus; checked against the signed Pascal
        triangle and Q+G = delta at every point."""
        lat = self.lib.lattice

        def run():
            g = lat.build_green(lat.Window(*win))
            return g, lat.apply_Qplus(g)

        def check(out):
            g, qg = out
            x0, x1, y0, y1 = win
            pts = [(x, y) for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)]
            if any(g[p] != signed_binomial(p) for p in pts):
                return False
            inner = [(x, y) for x, y in pts if x > x0 and y > y0]
            return len(qg.values) == len(inner) and all(
                qg[p] == g[p] + g[(p[0] - 1, p[1])] + g[(p[0], p[1] - 1)]
                == (1 if p == (0, 0) else 0) for p in inner)

        return Job("green", {"points": _points(win)}, run, check)

    def factorize(self, color, win, seed) -> Job:
        """factorize + recompose + equal_on_window; checked by comparing
        every coefficient of the recomposed operator directly."""
        oa = self.lib.opalgebra
        lop = oa.random_factorizable(random.Random(seed), color)

        def run():
            w = self.lib.lattice.Window(*win)
            rec = oa.factorize(lop, color, w).recompose()
            return rec, oa.equal_on_window(rec, lop.to_operator(), w)

        def check(out):
            rec, equal = out
            x0, x1, y0, y1 = win
            want = lop.to_operator()
            return equal is True and all(
                rec.coefficient(alpha)((x, y)) == want.coefficient(alpha)((x, y))
                for alpha in oa.SCHRODINGER_SHIFTS.values()
                for y in range(y0 + 1, y1) for x in range(x0 + 1, x1))

        return Job("factorize", {"points": _points(win)}, run, check)


def _points(win) -> int:
    x0, x1, y0, y1 = win
    return (x1 - x0 + 1) * (y1 - y0 + 1)


# --- cli-small ---------------------------------------------------------------

class CliSmall:
    """In-process `cli.main` over all ten subcommands on small files written
    at set-up: per-call costs (file read, parse, surface build, colourings,
    JSON/CSV emission) carry the cost.  Four of every deck's jobs are
    malformed inputs that must end in a typed error (exit 1, JSON body)."""

    def __init__(self, lib, rng, workdir, smoke):
        self.lib = lib
        self.dir = workdir
        fx, tio = lib.fixtures, lib.io
        self.tori = {}
        for n in (3, 4, 5, 6):
            for s in range(n):
                surf = fx.torus_lattice(n, s).surface
                self.tori[(n, s)] = (self._write(f"torus-{n}-{s}.tri", tio.write_mesh(surf)),
                                     tuple(surf.triangles))
        octa = fx.octahedron()
        self.octa = self._write("octa.tri", tio.write_mesh(octa))
        self.octa_tris = tuple(octa.triangles)
        # Row scaling keeps every triangle equation's solutions, so this
        # connection is flat, non-canonical, with the octahedron's holonomy.
        scale = [Fraction(rng.choice((-3, -2, -1, 2, 3, 5)), rng.randint(1, 4))
                 for _ in octa.triangles]
        self.gauge = self._write("gauge.conn", "".join(
            f"b {t} {i} {scale[t]}\n" for t in range(len(octa.triangles)) for i in range(3)))
        self.hexes = {}
        for r in (3, 4):
            surf = fx.hex_patch(r).surface
            self.hexes[r] = (self._write(f"hex{r}.tri", tio.write_mesh(surf)),
                             surf.num_vertices, surf.num_triangles)
        dom = lib.mesh.whole_domain(surf)       # hex patch r = 4
        free = lib.solver.determining_vertex_set(dom, lib.mesh.bw_face_coloring(dom))
        self.bv = self._write("hex4.bv", "".join(
            f"psi {v} {Fraction(rng.randint(-9, 9), rng.randint(1, 4))}\n" for v in free))
        self.ld = self._write("walk.ld", "".join(
            f"d {k} {x} {y}\n"
            for k, (x, y) in sorted(_walk_domain(rng, (-12, 12, -12, 12), 30))))
        self.op = self._write("schrodinger.op", self._operator_file(rng))
        self.cplx = {}
        for n in range(4, 10):
            self.cplx[("cycle", n)] = self._write(
                f"cycle-{n}.cplx", _complex([(i, (i + 1) % n) for i in range(n)]))
        for s in range(4):
            self.cplx[(4, s)] = self._write(f"torus-4-{s}.cplx", _complex(self.tori[(4, s)][1]))
        self.hostile = [
            ("holonomy", ["--mesh", self.octa, "--conn",
                          self._write("bad-index.conn", "b 99 0 2\n")]),
            ("holonomy", ["--mesh", self.octa, "--conn",
                          self._write("negative-index.conn", "b -1 0 2\n")]),
            ("mesh-check", ["--mesh", self._write("bad-header.tri",
                                                  "tri-surface v9\nt 0 1 2\n")]),
            ("maxprinciple", ["--mesh", self.hexes[4][0], "--psi",
                              self._write("bad-arity.bv", "psi 3\n")]),
        ]

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _operator_file(self, rng) -> str:
        lop = self.lib.opalgebra.random_factorizable(rng, "black")
        lines = []
        for name, (a1, a2) in self.lib.opalgebra.SCHRODINGER_SHIFTS.items():
            coeff = getattr(lop, name)
            lines.append(f"op {a1} {a2}")
            lines += [f"c {x} {y} {coeff((x, y))}" for y in range(12) for x in range(12)]
        return "\n".join(lines) + "\n"

    def deck(self, rng) -> list:
        # 25 slots, 4 of them malformed.  Sorted by time: 11 jobs of a few
        # milliseconds, then 5 at 15-20 ms (the median falls among these), 4
        # up to 100 ms, then 5 at 100-400 ms, p90 falling among the middle
        # three.  Torus slots have a fixed size and a seeded shear.
        def torus(n):
            s = rng.randrange(n)
            path, tris = self.tori[(n, s)]
            return path, n, s, tris

        def seed():
            return str(rng.randrange(10 ** 6))

        hex3, v3, t3 = self.hexes[3]
        hex4, v4, t4 = self.hexes[4]
        cycle = rng.randint(4, 9)
        s4 = rng.randrange(4)
        path6, n6, s6, tris6 = torus(6)
        c, d = (str(Fraction(rng.randint(1, 9), rng.randint(1, 4))) for _ in range(2))
        jobs = [self._typed_error(cmd, argv) for cmd, argv in self.hostile]
        jobs += [
            self._mesh_check(self.octa, None, None, self.octa_tris),
            self._mesh_check(*torus(3)),
            self._mesh_check(*torus(5)),
            self._holonomy(*torus(3)),
            self._gauge_holonomy(),
            self._covariants(["--mesh", self.octa, "--conn", self.gauge], 2, self.octa_tris),
            self._ksimplicial(self.cplx[("cycle", cycle)], 1, 1 - cycle % 2, cycle),

            self._green_json(),
            self._green_csv(),
            self._ok("cauchy", ["--seed", seed()], {"points": 25 * 25}),
            self._ok("cauchy", ["--seed", seed(), "--domain", self.ld], {"points": 25 * 25}),
            self._ok("factorize", ["--op", self.op], {"points": 12 * 12}),

            self._holonomy(*torus(6)),
            self._covariants(["--mesh", path6], torus_dim(n6, s6), tris6),
            self._ksimplicial(self.cplx[(4, s4)], 2, torus_dim(4, s4), 32),
            self._ok("maxprinciple", ["--mesh", hex3, "--seed", seed()], {"V": v3, "T": t3}),

            self._ok("qcd-identity", ["--mode", "float", "--tol", "1e-12", "--c", "1.0",
                                      "--d", "1.5", "--l", "0.25,0.1,0.4,0.25"],
                     {"points": 11 * 11}),
            self._ok("taylor", ["--seed", seed(), "--order", "2"], {"points": 27 * 27}),
            self._ok("maxprinciple", ["--mesh", hex4, "--psi", self.bv], {"V": v4, "T": t4}),
            self._ok("qcd-identity", ["--c", c, "--d", d], {"points": 11 * 11}),
            self._ok("taylor", ["--seed", seed(), "--order", "3"], {"points": 27 * 27}),
        ]
        rng.shuffle(jobs)
        return jobs

    def warmup(self) -> list:
        first = {}
        for job in self.deck(random.Random(0)):
            if not job.hostile:
                first.setdefault(job.kind, job)
        return list(first.values())

    def _job(self, kind, argv, size, check, hostile=False) -> Job:
        main = self.lib.cli

        def run():
            out, err = _io.StringIO(), _io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main.main(argv)
                except SystemExit as exc:
                    rc = exc.code
            return rc, out.getvalue()

        return Job(kind, size, run, check, hostile,
                   out_bytes=lambda out: len(out[1].encode("utf-8")))

    def _ok(self, cmd, args, size, extra=lambda body: True) -> Job:
        def check(out):
            rc, text = out
            body = json.loads(text)
            return rc == 0 and body.get("ok") is True and extra(body)

        return self._job(cmd, [cmd] + args, size, check)

    def _typed_error(self, cmd, args) -> Job:
        def check(out):
            rc, text = out
            return rc == 1 and "error" in json.loads(text)

        return self._job(cmd + "-malformed", [cmd] + args, {}, check, hostile=True)

    def _mesh_check(self, path, n, s, tris) -> Job:
        nv = len({v for t in tris for v in t})
        if n is None:   # octahedron
            want = {"vertices": 6, "triangles": 8, "edges": 12, "euler_characteristic": 2,
                    "valences": [4], "tri_vertex_colorable": True}
        else:
            want = {"vertices": n * n, "triangles": 2 * n * n, "edges": 3 * n * n,
                    "euler_characteristic": 0, "valences": [6],
                    "tri_vertex_colorable": torus_dim(n, s) == 2}
        want.update(closed=True, all_valences_even=True, bw_colorable=True)
        return self._ok("mesh-check", ["--mesh", path], {"V": nv, "T": len(tris)},
                        lambda body: all(body[k] == v for k, v in want.items()))

    def _holonomy(self, path, n, s, tris) -> Job:
        d = torus_dim(n, s)
        group = "trivial" if d == 2 else "Z3"

        def check(out):
            rc, text = out
            body = json.loads(text)
            return rc == 0 and body["group"] == group and body["dim"] == d

        return self._job("holonomy", ["holonomy", "--mesh", path],
                         {"V": n * n, "T": len(tris)}, check)

    def _gauge_holonomy(self) -> Job:
        def check(out):
            rc, text = out
            gens = json.loads(text)["generators"]
            return rc == 0 and gens and all(
                Fraction(g["trace"]) == 2 and Fraction(g["det"]) == 1 for g in gens)

        return self._job("holonomy", ["holonomy", "--mesh", self.octa, "--conn", self.gauge],
                         {"V": 6, "T": 8}, check)

    def _covariants(self, args, d, tris) -> Job:
        nv = len({v for t in tris for v in t})

        def check(out):
            rc, text = out
            body = json.loads(text)
            basis = [{int(v): Fraction(x) for v, x in psi.items()} for psi in body["basis"]]
            return (rc == 0 and body["dimension"] == len(basis) == d
                    and all(len(psi) == nv and _solves(tris, psi) for psi in basis)
                    and _rank([[psi[v] for v in range(nv)] for psi in basis]) == d)

        return self._job("covariants", ["covariants"] + args, {"V": nv, "T": len(tris)}, check)

    def _green_json(self) -> Job:
        def values(body):
            vals = {tuple(int(c) for c in k.split(",")): Fraction(v)
                    for k, v in body["values"].items()}
            pts = [(x, y) for y in range(-5, 26) for x in range(-5, 26)]
            return all(vals.get(p, 0) == signed_binomial(p) for p in pts)

        return self._ok("green", [], {"points": 31 * 31}, values)

    def _green_csv(self) -> Job:
        path = os.path.join(self.dir, "green.csv")

        def check(out):
            rc, text = out
            with open(path, encoding="utf-8") as fh:
                rows = fh.read().splitlines()
            cells = [r.split(",") for r in rows[1:]]
            return (rc == 0 and text == "" and len(rows) == 32 and all(
                Fraction(cells[25 - y][x + 6]) == signed_binomial((x, y))
                for y in range(-5, 26) for x in range(-5, 26)))

        job = self._job("green", ["green", "--out", path], {"points": 31 * 31}, check)
        job.out_bytes = lambda out: os.path.getsize(path)
        return job

    def _ksimplicial(self, path, k, dim, simplices) -> Job:
        def check(out):
            rc, text = out
            body = json.loads(text)
            return (rc == 0 and body["k"] == k and body["simplices"] == simplices
                    and body["covariant_dimension"] == body["kernel_dimension"] == dim
                    and body["kernel_matches_covariants"] is True
                    and body["factorization_holds"] is (True if k == 2 else None))

        return self._job("ksimplicial", ["ksimplicial", "--complex", path],
                         {"simplices": simplices}, check)


def _complex(simplices) -> str:
    return "".join("s " + " ".join(str(v) for v in s) + "\n" for s in simplices)


WORKLOADS = {
    "surface-solve": SurfaceSolve,
    "lattice-calculus": LatticeCalculus,
    "cli-small": CliSmall,
}
