"""Walkthrough: orienting 180-degree antennas on a random connected point set.

Builds the degree-5 spanning tree, partitions it into orientation groups,
assigns every bisector, verifies strong connectivity at radius 1+sqrt(3),
and renders the result as an SVG.
"""

import math
from pathlib import Path

from sectornet import (
    RADIUS_180,
    bounded_degree_mst,
    build_comm_graph,
    min_strong_radius,
    orient_all_180,
    partition_groups_180,
    random_connected_udg,
    strongly_connected,
    tree_heights,
)
from sectornet.svgplot import render_scene

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# A reproducible instance: 40 points whose unit disk graph is connected.
points = random_connected_udg(40, seed=7, box=6.0)
print(f"instance: {len(points)} points in [0,6]^2")

tree = bounded_degree_mst(points)
heights = tree_heights(tree)
print(f"spanning tree: root={tree.root} (highest point), "
      f"max degree={max(tree.degree(v) for v in tree.nodes())}, "
      f"height={heights[tree.root]}")

# The grouping works bottom-up: the deepest height-one node of the shrinking
# tree is grouped with its children, removed, and the process repeats.
groups = partition_groups_180(tree)
sizes = [g.size for g in groups]
print(f"groups (removal order): {len(groups)}, sizes {sizes}")

assignment = orient_all_180(points)
print(f"aperture: 180 degrees, guaranteed radius {assignment.guaranteed_radius:.6f}")

graph = build_comm_graph(points, assignment, r_override=RADIUS_180)
src, dst = (ids.tolist() for ids in graph.edges)
print(f"communication graph at r=1+sqrt(3): {len(src)} edges, "
      f"strongly connected: {strongly_connected(graph)}")

achieved = min_strong_radius(points, assignment)
print(f"achieved minimum strong radius: {achieved:.6f} "
      f"(bound {1 + math.sqrt(3):.6f})")

svg_path = OUT / "orient_180.svg"
svg_path.write_text(
    render_scene(
        points,
        tree_edges=tree.edges(),
        assignment=assignment,
        radius=1.0,  # draw compact wedges; the guarantee holds at 1+sqrt(3)
        comm_edges=list(zip(src, dst)),
    )
)
print(f"figure written to {svg_path}")
