"""The two lower-bound witnesses, checked mechanically.

Collinear points at unit spacing force radius 2 for 90-degree antennas: the
brute-force oracle tries every combination of the points' maximal coverage
patterns (a pattern inside another never helps) and finds no strongly
connected orientation just below 2, then produces a witness at 2. It handles
up to BRUTE_FORCE_MAX (11) points; a pattern whose points span more than the
aperture by at most 2 EPS, which only the EPS-widened membership admits, may
be missed.

The unit tripod with 120-degree joints forces radius sqrt(3) for 180-degree
antennas: below sqrt(3) every wedge position at the center covers at most two
of its three neighbors and nothing else, and the detached arm stays sqrt(3)
away from the rest.
"""

import math
from pathlib import Path

from sectornet import (
    check_witness_180,
    collinear_witness,
    feasible_by_bruteforce,
    witness_180,
)
from sectornet.instances import SQRT3
from sectornet.svgplot import render_scene
from sectornet.verifier import build_comm_graph, strongly_connected

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

print("=== 90 degrees: collinear witness ===")
pts = collinear_witness(4)
for r in (1.9, 1.999999, 2.0):
    feasible, witness = feasible_by_bruteforce(pts, math.pi / 2, r)
    print(f"r = {r}: feasible = {feasible}")
    if feasible:
        print(f"  witness bisectors: " +
              ", ".join(f"{i}:{math.degrees(t):.1f}deg" for i, t in sorted(witness.theta.items())))
        g = build_comm_graph(pts, witness, r_override=r)
        print(f"  re-verified strongly connected: {strongly_connected(g)}")

print()
print("=== 180 degrees: tripod witness ===")
for arms in (2, 3):
    w = witness_180(arms)
    r = SQRT3 - 1e-6
    print(f"arm length {arms}: {len(w.points)} points, "
          f"checker at r=sqrt(3)-1e-6: {check_witness_180(w, r)}")
    sep = min(
        w.points[i].dist(w.points[j])
        for i in w.right_set if i != w.p_id
        for j in w.left_set
    )
    print(f"  cross-split separation: {sep:.9f} (>= sqrt(3) = {SQRT3:.9f})")

svg = OUT / "witness_tripod.svg"
svg.write_text(render_scene(witness_180(2).points))
print(f"tripod figure: {svg}")
