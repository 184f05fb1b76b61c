"""Four points in general position: orient four 90-degree wedges so the four
points are strongly connected at radius = max pairwise distance while the
wedges jointly cover every direction of the plane.

The constructive rule (``four_point_thetas``) reduces both cases to a
canonical frame (one reference segment on the x-axis) where all four wedges
are boundary-aligned quarter planes; ``orient_four`` checks its result. The
exhaustive boundary-aligned search (``search_cover_orientation``) is a
separate route, which degenerate 90-degree groups and rule misses take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConstructionInvariantViolated, NotGeneralPosition, SearchExhausted
from .geometry import Point, QuadClass, QuadKind, Wedge, classify_quad, normalize_angle
from .orientation import OrientationAssignment
from .verifier import _coverage_masks, _masks_strongly_connected, covers_plane

QUARTER = 0.5 * math.pi


@dataclass(frozen=True)
class FourPointResult:
    """Bisector angle per input id, the max pairwise distance, and the case."""

    theta: Dict[int, float]
    dmax: float
    case: str  # "convex" or "nonconvex"

    def assignment(self) -> OrientationAssignment:
        return OrientationAssignment(
            alpha=QUARTER, theta=dict(self.theta), guaranteed_radius=self.dmax
        )


class _Frame:
    """Orthonormal map into a frame with ``origin`` at (0,0) and ``toward`` on
    the positive x-axis; ``flip_y`` mirrors the frame's y-axis."""

    def __init__(self, origin: Point, toward: Point, flip_y: bool = False):
        phi = math.atan2(toward.y - origin.y, toward.x - origin.x)
        c, s = math.cos(phi), math.sin(phi)
        self.ox, self.oy = origin.x, origin.y
        # rows of the rotation by -phi, second row negated when mirrored
        self.m00, self.m01 = c, s
        self.m10, self.m11 = (s, -c) if flip_y else (-s, c)

    def to_frame(self, p: Point) -> Tuple[float, float]:
        dx, dy = p.x - self.ox, p.y - self.oy
        return self.m00 * dx + self.m01 * dy, self.m10 * dx + self.m11 * dy

    def angle_to_world(self, psi: float) -> float:
        cx, cy = math.cos(psi), math.sin(psi)
        return normalize_angle(
            math.atan2(self.m01 * cx + self.m11 * cy, self.m00 * cx + self.m10 * cy)
        )


def _dmax(pts: Sequence[Point]) -> float:
    return max(pts[i].dist(pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts)))


def _frame_b_above(a: Point, c: Point, b: Point) -> _Frame:
    f = _Frame(a, c)
    if f.to_frame(b)[1] < 0.0:
        f = _Frame(a, c, flip_y=True)
    return f


def _convex_thetas(hull: Tuple[Point, ...]) -> Optional[Dict[int, float]]:
    a, b, c, d = hull
    if b.dist(d) > a.dist(c):
        a, b, c, d = b, c, d, a
    for _ in range(4):
        f = _frame_b_above(a, c, b)
        bx, by = f.to_frame(b)
        dx, dy = f.to_frame(d)
        if dy > 0.0:  # b and d must straddle the ac axis
            return None
        span = a.dist(c)
        tol = 1e-9 * max(span, 1.0)
        d_on = -tol <= dx <= span + tol
        b_on = -tol <= bx <= span + tol
        if not d_on and b_on:
            b, d = d, b
            continue
        beta = math.atan2(by - dy, bx - dx)
        if beta > QUARTER + 1e-12:
            a, c = c, a
            continue
        # frame wedges: a -> [-pi/2, 0], d -> [0, pi/2], c -> [pi/2, pi], b -> [pi, 3pi/2]
        return {
            a.id: f.angle_to_world(-0.25 * math.pi),
            d.id: f.angle_to_world(0.25 * math.pi),
            c.id: f.angle_to_world(0.75 * math.pi),
            b.id: f.angle_to_world(1.25 * math.pi),
        }
    return None


def _nonconvex_thetas(tri: Tuple[Point, ...], t: Point) -> Optional[Dict[int, float]]:
    # longest triangle edge becomes ac; ties broken by smaller id pair
    best = None
    for i in range(3):
        e0, e1 = tri[i], tri[(i + 1) % 3]
        key = (-e0.dist(e1), min(e0.id, e1.id), max(e0.id, e1.id))
        if best is None or key < best[0]:
            best = (key, i)
    i = best[1]
    a, c, b = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
    for _ in range(3):
        f = _frame_b_above(a, c, b)
        bx, by = f.to_frame(b)
        tx, ty = f.to_frame(t)
        if ty < 0.0 or by <= 0.0:
            return None
        if tx > bx + 1e-12:  # interior point in the right half: mirror a <-> c
            a, c = c, a
            continue
        # frame wedges: a -> [0, pi/2] and b -> [pi, 3pi/2] face each other;
        # c -> [pi/2, pi] and t -> [-pi/2, 0] face each other
        return {
            a.id: f.angle_to_world(0.25 * math.pi),
            b.id: f.angle_to_world(1.25 * math.pi),
            c.id: f.angle_to_world(0.75 * math.pi),
            t.id: f.angle_to_world(-0.25 * math.pi),
        }
    return None


def _prepare(points: Sequence[Point]) -> Tuple[QuadClass, List[Point], float, str]:
    """Classification, id-sorted points, dmax and case of a general quadruple."""
    qc = classify_quad(points)
    if qc.kind is QuadKind.DEGENERATE:
        raise NotGeneralPosition("four points are not in general position")
    pts = sorted(points, key=lambda p: p.id)
    case = "convex" if qc.kind is QuadKind.CONVEX else "nonconvex"
    return qc, pts, _dmax(pts), case


def four_point_thetas(qc: QuadClass) -> Optional[Dict[int, float]]:
    """The constructive rule's bisector per id, or None when no sub-case applies."""
    if qc.kind is QuadKind.CONVEX:
        return _convex_thetas(qc.hull)
    return _nonconvex_thetas(qc.hull, qc.interior)


def orient_four(points: Sequence[Point]) -> FourPointResult:
    """Constructive orientation for four points in general position (any
    distinct ids), checked for strong connectivity at the maximum pairwise
    distance and for full directional plane coverage; ConstructionInvariantViolated
    when the rule misses or fails either check, never a silent fallback."""
    qc, pts, dmax, case = _prepare(points)
    theta = four_point_thetas(qc)
    if theta is not None:
        res = FourPointResult(theta=theta, dmax=dmax, case=case)
        a = res.assignment()
        masks = [_coverage_masks(pts, i, [a.theta[p.id]], QUARTER, dmax)[0] for i, p in enumerate(pts)]
        if _masks_strongly_connected(masks, 4) and covers_plane(a.wedges(pts)):
            return res
    raise ConstructionInvariantViolated(
        f"four-point rule failed on a {case} quadruple; "
        "preserve this instance as a regression fixture"
    )


def _search_grid(pts: Sequence[Point]) -> List[float]:
    """All inter-point directions advanced by multiples of pi/4.

    Any valid solution can be rotated until some wedge boundary passes
    through a point direction; closed wedges keep validity at that event, so
    this grid always contains a solution.
    """
    grid = set()
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i == j:
                continue
            d = math.atan2(pts[j].y - pts[i].y, pts[j].x - pts[i].x)
            for k in range(8):
                grid.add(round(normalize_angle(d + k * 0.25 * math.pi), 12))
    return sorted(grid)


def _lattice_ok(ta: float, tb: float) -> bool:
    # four quarter arcs cover the circle only as an exact tiling, which pins
    # all bisectors to one lattice of pi/2 multiples
    return abs(math.remainder(ta - tb, QUARTER)) <= 1e-9


def search_cover_orientation(points: Sequence[Point], r: float) -> Optional[Dict[int, float]]:
    """First boundary-aligned four-wedge assignment that covers the plane and
    is strongly connected at radius r, judged from the points' coverage masks
    over the grid; None when the grid holds none.

    Unlike the constructive rules this makes no general-position assumption,
    so it also serves degenerate quadruples as long as some plane-tiling
    strongly connected assignment exists at the given radius.
    """
    pts = sorted(points, key=lambda p: p.id)
    grid = _search_grid(pts)
    masks = [dict(zip(grid, _coverage_masks(pts, i, grid, QUARTER, r))) for i in range(4)]

    for t0 in grid:
        if masks[0][t0] == 0:
            continue
        rest = [[t for t in grid if masks[i][t] and _lattice_ok(t0, t)] for i in (1, 2, 3)]
        for combo in product([t0], *rest):
            if not _masks_strongly_connected([masks[i][t] for i, t in enumerate(combo)], 4):
                continue
            if covers_plane([Wedge(p, t, QUARTER, r) for p, t in zip(pts, combo)]):
                return {p.id: t for p, t in zip(pts, combo)}
    return None


def search_orient_four(points: Sequence[Point]) -> FourPointResult:
    """First boundary-aligned assignment passing both verifier checks.

    Exhausting the grid indicates an epsilon or degeneracy problem in the
    input (raised as SearchExhausted); a solution always exists for inputs
    in general position.
    """
    _, pts, dmax, case = _prepare(points)
    theta = search_cover_orientation(pts, dmax)
    if theta is None:
        raise SearchExhausted("no boundary-aligned orientation found for four points")
    return FourPointResult(theta=theta, dmax=dmax, case=case)
