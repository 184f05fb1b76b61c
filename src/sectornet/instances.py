"""Lower-bound witness generators and random connected-UDG test instances."""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import FrozenSet, List

from .geometry import EPS, Point
from .verifier import _coverage_masks, candidate_bisectors

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Witness180:
    """Tripod point set certifying that radius sqrt(3) is needed at 180 degrees.

    Unit-edge tree, every pair of adjacent edges at 120 degrees; ``p_id`` has
    exactly three neighbors. ``left_set`` is the detached arm of the proof's
    split, ``right_set`` everything else (including p).
    """

    points: List[Point]
    p_id: int
    left_set: FrozenSet[int]
    right_set: FrozenSet[int]


def collinear_witness(n: int) -> List[Point]:
    """Points (i, 0) for i = 0..n-1; the 90-degree lower-bound configuration."""
    if n < 2:
        raise ValueError("collinear witness needs at least 2 points")
    return [Point(i, float(i), 0.0) for i in range(n)]


def _arm(start: Point, base_dir_deg: float, extra_edges: int, first_id: int) -> List[Point]:
    """Zigzag arm: unit edges whose directions alternate d, d+60, d, ... so
    every joint angle is exactly 120 degrees."""
    pts = []
    x, y = start.x, start.y
    for k in range(extra_edges):
        d = math.radians(base_dir_deg + (60.0 if k % 2 == 0 else 0.0))
        x += math.cos(d)
        y += math.sin(d)
        pts.append(Point(first_id + k, x, y))
    return pts


def witness_180(arm_length: int) -> Witness180:
    """Tripod witness: center with three unit neighbors at 90/210/330 degrees,
    each continued by ``arm_length`` further unit zigzag edges.

    The generated set must pass check_witness_180 just below sqrt(3); the
    checker, not any particular drawing, is the contract.
    """
    if arm_length < 2:
        raise ValueError("arm_length must be at least 2")
    pts = [Point(0, 0.0, 0.0)]
    arms: List[List[Point]] = []
    next_id = 1
    for deg in (90.0, 210.0, 330.0):
        head = Point(next_id, math.cos(math.radians(deg)), math.sin(math.radians(deg)))
        arm = [head] + _arm(head, deg, arm_length, next_id + 1)
        arms.append(arm)
        pts.extend(arm)
        next_id += 1 + arm_length
    left = frozenset(p.id for p in arms[0])
    right = frozenset(p.id for p in pts) - left
    w = Witness180(points=pts, p_id=0, left_set=left, right_set=right)
    if not check_witness_180(w, SQRT3 - 1e-6):
        raise AssertionError("generated witness fails its own checker")
    return w


def check_witness_180(w: Witness180, r: float) -> bool:
    """Mechanized sub-claims of the sqrt(3) lower bound, for any r < sqrt(3):

    (a) every 180-degree wedge position at p covers at most two of p's three
        unit neighbors and no other point of the set: checked on the
        boundary-aligned ``candidate_bisectors``, whose patterns contain every
        pattern of an exact closed wedge (see there for the EPS caveat);
    (b) every point of the right part other than p is at least sqrt(3) away
        from every point of the left part.
    """
    if r >= SQRT3:
        raise ValueError("checker requires r < sqrt(3)")
    pts = sorted(w.points, key=lambda q: q.id)
    p = pts[w.p_id]
    neighbors = {q.id for q in pts if q.id != p.id and p.dist(q) <= 1.0 + EPS}
    if len(neighbors) != 3:
        return False

    alpha = math.pi
    thetas = candidate_bisectors(pts, w.p_id, alpha)
    for mask in _coverage_masks(pts, w.p_id, thetas, alpha, r):
        covered = {q.id for j, q in enumerate(pts) if mask >> j & 1}
        if len(covered) > 2 or not covered <= neighbors:
            return False

    for i in w.right_set:
        if i == w.p_id:
            continue
        for j in w.left_set:
            if pts[i].dist(pts[j]) < SQRT3 - 1e-9:
                return False
    return True


def random_connected_udg(n: int, seed: int, box: float) -> List[Point]:
    """Deterministic random points in [0, box]^2 whose UDG is connected.

    Incremental construction: every new point lands within 0.9 of an existing
    one (its anchor), which keeps the UDG connected with margin under the
    membership tolerance. A draw within 1e-6 of an existing point is
    rejected. Bit-for-bit reproducible from (n, seed, box).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if box <= 0:
        raise ValueError("need box > 0")
    rng = random.Random(seed)
    coords = [(rng.uniform(0.0, box), rng.uniform(0.0, box))]
    anchors = [0]
    # A point within 1e-6 of a draw lies in the 3 x 3 cells around the draw's
    # cell: cells are at least 2e-6 wide, and at least box / 2**40 wide so that
    # x / cell rounds by under 2**-13.
    cell = max(2e-6, box * 2.0**-40)
    cells = defaultdict(list)
    cells[math.floor(coords[0][0] / cell), math.floor(coords[0][1] / cell)].append(coords[0])
    while len(coords) < n:
        anchor = rng.randrange(len(coords))
        bx, by = coords[anchor]
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(0.0, 0.9)
        x = bx + rad * math.cos(ang)
        y = by + rad * math.sin(ang)
        if not (0.0 <= x <= box and 0.0 <= y <= box):
            continue
        kx, ky = math.floor(x / cell), math.floor(y / cell)
        near = (cells.get((kx + dx, ky + dy), ()) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
        if any(math.hypot(x - cx, y - cy) <= 1e-6 for c in near for cx, cy in c):
            continue
        cells[kx, ky].append((x, y))
        coords.append((x, y))
        anchors.append(anchor)
    # Each point's edge to its anchor is a UDG edge, so the UDG is connected.
    for (x, y), a in zip(coords, anchors):
        if math.hypot(x - coords[a][0], y - coords[a][1]) > 1.0 + EPS:
            raise AssertionError("generated points do not form a connected unit disk graph")
    return [Point(i, x, y) for i, (x, y) in enumerate(coords)]
