"""Acceptance suite: one test per criterion, exact arithmetic throughout,
each printing a PASS line with its runtime and asserting its time budget."""

import random
import time
from fractions import Fraction

from triholo import connection as C
from triholo import fixtures, lattice as L, mesh, opalgebra as OA, ratmat
from triholo import simplicial as SK, solver


class Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(num, name, timer):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({timer.elapsed:.2f}s"
          f" / budget {timer.budget:.0f}s)")
    assert timer.elapsed < timer.budget, f"criterion {num} over budget"


def test_c01_dimension_law():
    with Timer(5.0) as t:
        seq = L.default_admissible((0, 0), 6)
        w = L.Window(-16, 8, -16, 8)
        for k in range(7):
            basis = L.poly_space_basis(seq, k, w)
            pts = list(seq.triangle(k).points())
            mat = [dict(enumerate(f[p] for p in pts)) for f in basis]
            assert ratmat.rank(mat, len(pts)) == 2 * k + 2
    report(1, "dim P_k = 2k+2 for k=0..6", t)


def test_c02_green_identity():
    with Timer(1.0) as t:
        assert L.green((0, 0)) == 1
        assert L.green((1, 0)) == -1
        assert L.green((1, 1)) == 2
        assert L.green((2, 1)) == -3
        g = L.build_green(L.Window(-10, 30, -10, 30))
        qg = L.apply_Qplus(g)
        for p in qg.window.points():
            assert qg[p] == (1 if p == (0, 0) else 0)
    report(2, "Q+G = delta on [-10,30]^2 and Fig-9 values", t)


def _random_domain(rng, lo, hi, steps=14):
    tris = set()
    x, y = rng.randint(lo + 2, hi - 2), rng.randint(lo + 2, hi - 2)
    for _ in range(steps):
        tris.add(("b", (x, y)))
        tris.add(("w", (x - 1, y - 1)))
        x = min(max(x + rng.choice((-1, 0, 1)), lo), hi)
        y = min(max(y + rng.choice((-1, 0, 1)), lo), hi)
    return L.LatticeDomain(frozenset(tris))


def test_c03_cauchy_reconstruction():
    rng = random.Random(303)
    with Timer(30.0) as t:
        w = L.Window(-2, 16, -2, 16)
        for _ in range(20):
            dom = _random_domain(rng, 2, 12)
            for _ in range(5):
                psi = L.random_holomorphic(w, rng)
                data = {v: psi[v] for v in dom.vertices()}
                rec = L.cauchy_reconstruct(dom, data)
                assert all(rec[v] == psi[v] for v in dom.vertices())
                cov = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)), 0)
                cov = (cov[0], cov[1], -cov[0] - cov[1])

                def kern(n, cov=cov):
                    return L.green(n) + L.covariant_value(cov, n)

                rec2 = L.cauchy_reconstruct(dom, data, kernel=kern)
                assert all(rec2[v] == psi[v] for v in dom.vertices())
    report(3, "Cauchy formula exact, 100 psi x 20 domains (+ G' corollary)", t)


def test_c04_taylor_exactness():
    rng = random.Random(404)
    with Timer(30.0) as t:
        w = L.Window(-16, 10, -16, 10)
        seq = L.default_admissible((0, 0), 5)
        basis = L.poly_space_basis(seq, 5, w)
        tris = [seq.triangle(k) for k in range(6)]
        pair_bases = []
        for k in range(6):
            tb = tris[k].black_subtriangle()
            i1, i2 = seq.basis_pair(k)
            pair_bases.append((tb, tb.side_values(i1), tb.side_values(i2)))
        for _ in range(50):
            psi = L.random_holomorphic(w, rng)
            coeffs = L.taylor_coefficients(psi, seq, 5)
            # independent re-extraction from Q^k psi on T^b(k)
            fk = psi
            for k in range(6):
                if k:
                    fk = L.apply_Q(fk)
                tb, b1, b2 = pair_bases[k]
                pts = list(tb.points())
                vals = {p: b1.get(p, Fraction(0)) for p in pts}
                vals2 = {p: b2.get(p, Fraction(0)) for p in pts}
                p0, p1 = pts[0], pts[1]
                det = vals[p0] * vals2[p1] - vals[p1] * vals2[p0]
                if det == 0:
                    p1 = pts[2]
                    det = vals[p0] * vals2[p1] - vals[p1] * vals2[p0]
                a1 = (fk[p0] * vals2[p1] - fk[p1] * vals2[p0]) / det
                a2 = (vals[p0] * fk[p1] - vals[p1] * fk[p0]) / det
                assert (a1, a2) == coeffs[k]
            # partial sums exact on T(k)
            for k in range(6):
                for p in tris[k].points():
                    acc = Fraction(0)
                    for j in range(k + 1):
                        c1, c2 = coeffs[j]
                        acc += c1 * basis[2 * j][p] + c2 * basis[2 * j + 1][p]
                    assert acc == psi[p]
    report(4, "Taylor partial sums exact on T(k), k=0..5, 50 random psi", t)


def test_c05_maximum_principle():
    rng = random.Random(505)
    with Timer(30.0) as t:
        patches = {r: fixtures.hex_patch(r) for r in (3, 4, 5)}
        colorings = {}
        for r, patch in patches.items():
            fc = mesh.Coloring(face_colors={
                tt: (mesh.BLACK if tt in patch.black else mesh.WHITE)
                for tt in range(patch.surface.num_triangles)})
            vc = mesh.Coloring(vertex_colors=fixtures.lattice_vertex_coloring(patch))
            colorings[r] = (fc, vc)
        checked_total = 0
        for i in range(200):
            r = (3, 4, 5)[i % 3]
            patch = patches[r]
            pts = patch.point_of
            w = L.Window(min(p[0] for p in pts) - 1, max(p[0] for p in pts) + 1,
                         min(p[1] for p in pts) - 1, max(p[1] for p in pts) + 1)
            h = L.random_holomorphic(w, rng)
            psi = {patch.vertex_of[p]: h[p] for p in pts}
            fc, vc = colorings[r]
            rep = solver.max_principle_check(patch.domain(), psi, fc, vc)
            assert not rep.corner_violations
            assert not rep.containment_violations
            assert not rep.betweenness_failures
            checked_total += rep.checked_internal
        assert checked_total > 0
    report(5, "max principle: 200 random solutions, zero violations", t)


def test_c06_holonomy_closed_form():
    rng = random.Random(606)
    with Timer(10.0) as t:
        for _ in range(1000):
            n = rng.randint(3, 9)
            surf = mesh.build_surface([(0, i, i % n + 1) for i in range(1, n + 1)])
            coeffs = {(tt, v): Fraction(rng.randint(1, 9), rng.randint(1, 9))
                      for tt in range(n) for v in surf.triangles[tt]}
            conn = C.DiscreteConnection(surf, coeffs)
            kp, kpp = C.local_holonomy(conn, 0)
            k = C.local_holonomy_by_steps(conn, 0)
            assert (kp, kpp) == (k[0][1], k[1][1])
            assert k[0][0] == 1 and k[1][0] == 0
    report(6, "closed-form (k',k'') = step propagation, 1000 random stars", t)


def test_c07_fixture_classification():
    with Timer(10.0) as t:
        cases = [
            (fixtures.octahedron(), "trivial", 2),
            (fixtures.torus_lattice(3).surface, "trivial", 2),
            (fixtures.torus_lattice(4).surface, "Z3", 0),
        ]
        for surf, group, dim in cases:
            conn = C.canonical_connection(surf)
            cls = C.classify_holonomy(conn)
            assert cls.group == group
            space = solver.covariant_constants(conn)
            assert space.dimension == dim
            modes = solver.zero_modes(conn)
            assert ratmat.span_equal(modes, space.basis, surf.num_vertices)
            assert len(modes) == dim
    report(7, "octahedron/N3/N4 classification and zero modes", t)


def test_c08_operator_identities():
    with Timer(5.0) as t:
        for surf in (fixtures.octahedron(), fixtures.torus_lattice(4).surface,
                     fixtures.torus_lattice(6).surface):
            rep = solver.check_L_identity(surf)
            assert rep.l_identity
            assert rep.bw_exists and rep.qb_identity and rep.qw_identity
            assert rep.dual_block_identity
    report(8, "L = -2D+3n, Qb+Qb = -D+(3/2)n, dual-graph block identity", t)


def test_c09_factorization_and_qcd():
    rng = random.Random(909)
    with Timer(20.0) as t:
        win = L.Window(0, 11, 0, 11)
        for i in range(50):
            color = ("black", "white")[i % 2]
            lop = OA.random_factorizable(rng, color)
            fac = OA.factorize(lop, color, win)
            assert OA.equal_on_window(fac.recompose(), lop.to_operator(), win)
        w10 = L.Window(-5, 5, -5, 5)  # 10x10 interior points once shrunk
        assert OA.verify_qcd_identity(1, 1, w10, q=2, s=3).holds
        assert OA.verify_qcd_identity(Fraction(2, 3), Fraction(5), w10,
                                      q=Fraction(3, 2), s=Fraction(7, 4)).holds
        assert OA.verify_qcd_identity(1.0, 1.5, w10,
                                      l=[[0.25, 0.1], [0.4, 0.25]],
                                      tol=1e-12).holds
        qw = OA.DifferenceOperator({(0, 0): 1, (1, 0): 1, (0, 1): 1})
        qb = OA.DifferenceOperator({(0, 0): 1, (-1, 0): 1, (0, -1): 1})
        f = OA.zero_curvature_f_criterion(qw, qb, w10)
        assert f is not None and all(v == 1 for v in f.values.values())
        qw2 = OA.DifferenceOperator({(0, 0): 1,
                                     (1, 0): lambda n: Fraction(n[0] + 7),
                                     (0, 1): 1})
        qb2 = OA.DifferenceOperator({(0, 0): 1,
                                     (-1, 0): lambda n: Fraction(n[1] + 5),
                                     (0, -1): 1})
        assert OA.zero_curvature_f_criterion(qw2, qb2, w10) is None
    report(9, "50 exact factorization round trips; qcd identity; f-criterion", t)


def test_c10_appendix_suites():
    rng = random.Random(1010)
    with Timer(20.0) as t:
        # Appendix 1: torus reconstruction reproduces commuting generators
        from test_connection import meridian_loop, torus_rep_matrices

        t3 = fixtures.torus_lattice(3)
        a_mat = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]
        b_mat = [[Fraction(5), Fraction(0)], [Fraction(0), Fraction(7)]]
        conn = C.connection_from_representation(
            t3.surface, torus_rep_matrices(t3, a_mat, b_mat))
        assert C.has_zero_curvature(conn)
        ra = C.holonomy_matrix(conn, meridian_loop(t3))
        assert (ra[0][0] + ra[1][1], ratmat.det2(ra)) == (5, 6)
        tri_of = {v: k for k, v in t3.apex_of.items()}
        tris = []
        for j in range(3):
            tris.append(tri_of[("w", (0, j))])
            tris.append(tri_of[("b", (1, (j + 1) % 3))])
        rb = C.holonomy_matrix(conn, mesh.ThickPath(t3.surface, tuple(tris),
                                                    closed=True))
        assert (rb[0][0] + rb[1][1], ratmat.det2(rb)) == (12, 35)

        # Appendix 2: k=1 bipartite <-> nontrivial kernel on 20 random graphs
        import networkx as nx

        done = 0
        while done < 20:
            n = rng.randint(4, 9)
            g = nx.gnm_random_graph(n, rng.randint(n - 1, 2 * n),
                                    seed=rng.randint(0, 10 ** 6))
            if not nx.is_connected(g) or g.number_of_edges() == 0:
                continue
            relabel = {v: i for i, v in enumerate(sorted(g.nodes))}
            x = SK.SimplicialComplexK([(relabel[u], relabel[v])
                                       for u, v in g.edges])
            assert (len(SK.zero_modes_k(x)) > 0) == nx.is_bipartite(g)
            done += 1

        # k=2 equals the surface modules on the octahedron
        octa = fixtures.octahedron()
        x2 = SK.SimplicialComplexK(octa.triangles)
        hol = SK.classify_holonomy_k(x2)
        assert (hol.orbit_count, hol.covariant_dimension) == (3, 2)
        assert SK.assemble_Lk(x2) == solver.assemble_L(C.canonical_connection(octa))
        rep = SK.bw_factorization_check(x2)
        assert rep.factorization_holds and rep.kernel_matches_covariants

        # boundary of the 4-simplex rejected for odd edge valence
        bd = SK.boundary_of_4_simplex()
        assert not SK.canonical_local_holonomy_ok(bd)
    report(10, "Appendix 1 torus reconstruction; Appendix 2 suites", t)
