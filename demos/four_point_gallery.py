"""Gallery: the four-point construction on convex and non-convex inputs.

Any four points in general position admit 90-degree orientations that are
strongly connected at the maximum pairwise distance while the four wedges
cover every direction of the plane. The convex and non-convex cases use
different constructive rules; both are rendered here.
"""

import math
import random
from pathlib import Path

from sectornet import (
    Point,
    QuadKind,
    build_comm_graph,
    classify_quad,
    covers_plane,
    orient_four,
    strongly_connected,
)
from sectornet.svgplot import render_scene

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)


def show(name, pts):
    res = orient_four(pts)
    a = res.assignment()
    graph = build_comm_graph(pts, a, r_override=res.dmax)
    print(f"{name}: case={res.case}, dmax={res.dmax:.4f}, "
          f"strong={strongly_connected(graph)}, "
          f"plane covered={covers_plane(a.wedges(pts))}")
    for i in sorted(res.theta):
        print(f"  point {i}: bisector {math.degrees(res.theta[i]):7.2f} deg")
    path = OUT / f"fourpoint_{name}.svg"
    path.write_text(render_scene(
        pts, assignment=a, radius=0.45 * res.dmax,
        comm_edges=list(zip(*(ids.tolist() for ids in graph.edges))),
    ))
    print(f"  figure: {path}")


show("square", [Point(0, 0, 1), Point(1, 1, 1), Point(2, 1, 0), Point(3, 0, 0)])
show("nonconvex", [Point(0, 0, 0), Point(1, 2, 2), Point(2, 4, 0), Point(3, 2, 1)])

# a few random shapes
rng = random.Random(5)
made = 0
while made < 3:
    pts = [Point(i, rng.uniform(0, 2), rng.uniform(0, 2)) for i in range(4)]
    if classify_quad(pts).kind is QuadKind.DEGENERATE:
        continue
    made += 1
    show(f"random{made}", pts)
