"""The maximum principle for black triangle solutions on a hexagonal patch.

Seeds a random solution from trefoil data, maps every black triangle into
the covariant plane via (psi_a, psi_b), and verifies that the image sits
inside the convex hull of the boundary triangles' images.  Writes the
scatter+hull figure to maxprinciple.svg in the current directory.
"""

import random

from triholo import fixtures, lattice, mesh, solver
from triholo.svgplot import scatter_hull_svg

rng = random.Random(7)
patch = fixtures.hex_patch(5)
print(f"radius-5 hexagonal patch: {patch.surface.num_triangles} triangles, "
      f"{patch.surface.num_vertices} vertices")

fc = mesh.Coloring(face_colors={t: (mesh.BLACK if t in patch.black else mesh.WHITE)
                                for t in range(patch.surface.num_triangles)})
vc = mesh.Coloring(vertex_colors=fixtures.lattice_vertex_coloring(patch))

# A black-triangle solution = restriction of a lattice holomorphic function.
pts = patch.point_of
w = lattice.Window(min(p[0] for p in pts) - 1, max(p[0] for p in pts) + 1,
                   min(p[1] for p in pts) - 1, max(p[1] for p in pts) + 1)
h = lattice.random_holomorphic(w, rng)
psi = {patch.vertex_of[p]: h[p] for p in pts}

report = solver.max_principle_check(patch.domain(), psi, fc, vc)
print("hull corners:", len(report.hull_corners))
print("corner violations:", report.corner_violations)
print("containment violations:", report.containment_violations)
print("internal triangles checked for betweenness:", report.checked_internal,
      "| failures:", report.betweenness_failures)
print("maximum principle holds:", report.ok)

images = solver.hat_map(patch.domain(), psi, fc, vc)
boundary = sorted({images[t] for t in patch.domain().lower_boundary() & set(images)})
svg = scatter_hull_svg(list(images.values()), solver.convex_hull(boundary))
out = "maxprinciple.svg"
with open(out, "w", encoding="utf-8") as fh:
    fh.write(svg)
print("wrote", out)

# A covariant constant collapses to a single point.
cvals = (1, 2, -3)
flat = {v: cvals[vc.vertex_colors[v]] for v in range(patch.surface.num_vertices)}
print("covariant constant gives a point hull:",
      solver.max_principle_check(patch.domain(), flat, fc, vc).point_hull)
