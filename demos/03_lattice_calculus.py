"""The discrete d/dbar calculus on Z^2: trefoil extension, polynomials,
Taylor expansion, the Green's function and the Cauchy formula.  Writes the
Green's function heat map to green.svg in the current directory."""

import random
from fractions import Fraction

from triholo import lattice as L
from triholo.io import lattice_csv
from triholo.svgplot import lattice_heatmap_svg

rng = random.Random(12)

# --- holomorphic functions from trefoil data -------------------------------
w = L.Window(-14, 9, -14, 9)
psi = L.random_holomorphic(w, rng)
print("random holomorphic function on", w)
print("Q+ psi == 0 everywhere it can be checked:", L.is_holomorphic(psi))

# --- polynomials and Taylor --------------------------------------------------
seq = L.default_admissible((0, 0), 4)
print("\nadmissible sequence apexes:",
      [seq.triangle(k).apex for k in range(5)])
basis = L.poly_space_basis(seq, 4, w)
print("dim P_k readings (rank of basis on T^(k)):")
from triholo import ratmat

for k in range(5):
    pts = list(seq.triangle(k).points())
    mat = [dict(enumerate(f[p] for p in pts)) for f in basis[: 2 * k + 2]]
    print(f"  k={k}: rank {ratmat.rank(mat, len(pts))} = 2k+2 = {2 * k + 2}")

coeffs = L.taylor_coefficients(psi, seq, 4)
print("taylor coefficients (alpha^1_k, alpha^2_k):")
for k, (a1, a2) in enumerate(coeffs):
    print(f"  k={k}: ({a1}, {a2})")
for k in range(5):
    ps = L.taylor_partial_sum(seq, coeffs[: k + 1], w, basis[: 2 * k + 2])
    ok = all(ps[p] == psi[p] for p in seq.triangle(k).points())
    print(f"  partial sum through k={k} equals psi on T({k}):", ok)

# --- Green's function ---------------------------------------------------------
gwin = L.Window(-2, 10, -2, 10)
g = L.build_green(gwin)
print("\nGreen function rows (signed Pascal triangle):")
print("\n".join(lattice_csv(g).splitlines()[:6]))
qg = L.apply_Qplus(g)
print("Q+ G = delta:", all(qg[p] == (1 if p == (0, 0) else 0)
                           for p in qg.window.points()))
out = "green.svg"
with open(out, "w", encoding="utf-8") as fh:
    fh.write(lattice_heatmap_svg(g))
print("wrote", out)

# --- Cauchy reconstruction ----------------------------------------------------
tris = set()
x, y = 4, 4
for _ in range(18):
    tris.add(("b", (x, y)))
    tris.add(("w", (x - 1, y - 1)))
    x = min(max(x + rng.choice((-1, 0, 1)), 3), 8)
    y = min(max(y + rng.choice((-1, 0, 1)), 3), 8)
dom = L.LatticeDomain(frozenset(tris))
big = L.Window(-6, 14, -6, 14)
h = L.random_holomorphic(big, rng)
data = {v: h[v] for v in dom.vertices()}
rec = L.cauchy_reconstruct(dom, data)
print(f"\nCauchy formula on a {len(dom.tris)}-triangle domain:",
      "exact" if all(rec[v] == h[v] for v in dom.vertices()) else "MISMATCH")

# the kernel may be replaced by G + any covariant constant
cov = (Fraction(3), Fraction(-1), Fraction(-2))
rec2 = L.cauchy_reconstruct(dom, data,
                            kernel=lambda n: L.green(n) + L.covariant_value(cov, n))
print("with G' = G + covariant constant:",
      "identical" if rec2 == rec else "MISMATCH")
