"""Planar primitives: directions, wedge membership, quadrilateral classification.

All angle values are radians. Directions are measured counterclockwise from
the positive x-axis and normalized to [0, 2*pi). Wedges are closed sets:
membership uses an absolute tolerance so that points placed exactly on a
boundary line do not flicker in or out under floating-point error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

from .errors import CoincidentPoints

TAU = 2.0 * math.pi

# Absolute tolerance on distances and angles (closed-boundary membership).
EPS = 1e-9

# Relative threshold for the collinearity test: three points are collinear
# when the doubled triangle area is below COLLINEAR_REL * (bbox diagonal)^2.
COLLINEAR_REL = 1e-9


@dataclass(frozen=True)
class Point:
    """A planar point with a stable non-negative id."""

    id: int
    x: float
    y: float

    def dist(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Wedge:
    """Closed circular sector: apex, bisector angle theta, aperture alpha, radius r."""

    apex: Point
    theta: float
    alpha: float
    r: float

    def __post_init__(self):
        object.__setattr__(self, "theta", normalize_angle(self.theta))


class QuadKind(Enum):
    CONVEX = "convex"
    TRIANGLE_WITH_INTERIOR = "triangle_with_interior"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class QuadClass:
    """Classification of four points.

    For CONVEX, ``hull`` lists all four points in clockwise order starting at
    the hull point with the smallest input id. For TRIANGLE_WITH_INTERIOR,
    ``hull`` is the outer triangle (clockwise, smallest-id start) and
    ``interior`` the enclosed point. DEGENERATE carries no geometry.
    """

    kind: QuadKind
    hull: Tuple[Point, ...] = ()
    interior: Optional[Point] = None


def normalize_angle(a: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    a = math.fmod(a, TAU)
    if a < 0.0:
        a += TAU
    if a >= TAU:  # fmod can land exactly on TAU after the correction
        a -= TAU
    return a


def direction(a: Point, b: Point) -> float:
    """Angle of the vector b - a, in [0, 2*pi).

    Raises CoincidentPoints when a and b have equal coordinates.
    """
    dx = b.x - a.x
    dy = b.y - a.y
    if dx == 0.0 and dy == 0.0:
        raise CoincidentPoints(f"points {a.id} and {b.id} coincide")
    return normalize_angle(math.atan2(dy, dx))


def ccw_angle_between(u_from: float, u_to: float) -> float:
    """Counterclockwise angle from direction u_from to direction u_to, in [0, 2*pi)."""
    return normalize_angle(u_to - u_from)


def angle_diff(a: float, b: float) -> float:
    """Absolute circular difference between two directions, in [0, pi]."""
    d = math.fmod(abs(a - b), TAU)
    return min(d, TAU - d)


def point_in_wedge(w: Wedge, q: Point) -> bool:
    """Closed membership of q in the wedge, within EPS; the apex never covers itself."""
    dx = q.x - w.apex.x
    dy = q.y - w.apex.y
    if dx == 0.0 and dy == 0.0:
        return False
    if math.hypot(dx, dy) > w.r + EPS:
        return False
    return angle_diff(math.atan2(dy, dx), w.theta) <= 0.5 * w.alpha + EPS


def cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    """z-component of (a - o) x (b - o)."""
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def collinear(a: Point, b: Point, c: Point) -> bool:
    """True when the doubled triangle area is negligible at the triple's own scale."""
    area2 = abs(cross(a.x, a.y, b.x, b.y, c.x, c.y))
    xs = (a.x, b.x, c.x)
    ys = (a.y, b.y, c.y)
    diag_sq = (max(xs) - min(xs)) ** 2 + (max(ys) - min(ys)) ** 2
    if diag_sq == 0.0:
        return True
    return area2 < COLLINEAR_REL * diag_sq


def _point_in_triangle(q: Point, a: Point, b: Point, c: Point) -> bool:
    """Strict interior test via consistent cross-product signs."""
    s1 = cross(a.x, a.y, b.x, b.y, q.x, q.y)
    s2 = cross(b.x, b.y, c.x, c.y, q.x, q.y)
    s3 = cross(c.x, c.y, a.x, a.y, q.x, q.y)
    return (s1 > 0 and s2 > 0 and s3 > 0) or (s1 < 0 and s2 < 0 and s3 < 0)


def _clockwise_from_smallest_id(pts: Sequence[Point]) -> Tuple[Point, ...]:
    """Order hull points clockwise, starting at the smallest input id."""
    cx = sum(p.x for p in pts) / len(pts)
    cy = sum(p.y for p in pts) / len(pts)
    ordered = sorted(pts, key=lambda p: -math.atan2(p.y - cy, p.x - cx))
    start = min(range(len(ordered)), key=lambda i: ordered[i].id)
    return tuple(ordered[start:] + ordered[:start])


def classify_quad(pts: Sequence[Point]) -> QuadClass:
    """Classify four distinct points as convex, triangle-with-interior, or degenerate.

    Degenerate covers duplicate coordinates and any near-collinear triple.
    The result depends only on the point set, not on input order.
    """
    if len(pts) != 4:
        raise ValueError("classify_quad expects exactly 4 points")
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i].x == pts[j].x and pts[i].y == pts[j].y:
                return QuadClass(QuadKind.DEGENERATE)
    for i in range(4):
        tri = [pts[k] for k in range(4) if k != i]
        if collinear(*tri):
            return QuadClass(QuadKind.DEGENERATE)
    for i in range(4):
        tri = [pts[k] for k in range(4) if k != i]
        if _point_in_triangle(pts[i], *tri):
            return QuadClass(
                QuadKind.TRIANGLE_WITH_INTERIOR,
                hull=_clockwise_from_smallest_id(tri),
                interior=pts[i],
            )
    return QuadClass(QuadKind.CONVEX, hull=_clockwise_from_smallest_id(pts))
