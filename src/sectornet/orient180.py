"""180-degree orientation: group the degree-5 spanning tree bottom-up and
orient each group so the communication graph is strongly connected at
radius 1 + sqrt(3).

Groups are removed deepest first: each is the deepest height-one node p of
the residual tree (ties: smallest id) with its children, at most four; tree
edges are at most 1 long. A *pair* (a, b) takes half-plane wedges bounded
by line ab on opposite sides, so together they see the plane and each
other. One rule orients every group. Of three or more children, the two at
the smallest angle at p pair up (within sqrt(3) of each other) and leave.
Of the rest, c1 < c2 by id, p pairs with c1, p's half-plane holding c2, and
c2 faces p. The leftover root, alone, faces straight down.

Proof sketch. Each group is strongly connected over hops of at most 2. A
group hung from node a has its top x within 1 of a; upward, x's pair covers
the plane within 2 of a. Downward, a pair holding a with partner d away holds
x within 1 + d <= 1 + sqrt(3), and the root faces down onto x. For a = c2,
p holds x on c2's side of line p-c1 and c1 holds x within 1 + sqrt(3);
otherwise x is *missed*, and c2 turns to the half-plane holding p and every
missed top (its tree children), centred on the arc their directions span.
The open step was that this half-plane exists. With n the normal of line
p-c1 into c1's side, a missed x has (x - c2).n > 0 and p has (p - c2).n >= 0,
since c2 is not on c1's side and p is on the line: the half-plane with
bisector n holds them all. Only rounding, with c2 on the line, can hide
that gap; then c2 keeps facing p. The proof uses only pairs within two group
edges (inside a group, to the group it hangs from and to those hung from
it), the pairs ``verifier.certify_groups`` tests; so that certificate is the
one self-check, and it raises if the output is left unproved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import TooFewPoints
from .geometry import TAU, Point, cross, direction, normalize_angle
from .orientation import OrientationAssignment
from .topology import RootedTree, bounded_degree_mst, carve, point_set
from .verifier import check_construction

RADIUS_180 = 1.0 + math.sqrt(3.0)


@dataclass(frozen=True)
class Group180:
    """One orientation group: a parent node and the children grouped with it.

    ``attached_above`` is the parent's own parent in the residual tree at
    removal time (None for the tree root): the group hangs from that node,
    and ``parent`` is its top.
    """

    parent: int
    members: Tuple[int, ...]
    attached_above: Optional[int]

    @property
    def size(self) -> int:
        return 1 + len(self.members)


def partition_groups_180(t: RootedTree) -> List[Group180]:
    """Grouping in removal order: repeatedly take the deepest height-one node
    of the residual tree (ties: smallest id) together with its current
    children; a leftover root becomes a singleton group.

    A height-one node is one whose residual subtree has two or more nodes
    while each child's has one, so the groups are ``carve(t, 2)``."""
    cuts, rest = carve(t, 2)
    groups = [
        Group180(
            parent=v,
            members=tuple(sub[1:]),
            attached_above=None if v == t.root else t.parent[v],
        )
        for v, sub in cuts
    ]
    if rest:
        groups.append(Group180(parent=t.root, members=(), attached_above=None))
    return groups


def pair_smallest_angle(p: Point, children: Sequence[Point]) -> Tuple[Point, Point]:
    """Child pair minimizing the angle at p, ties broken by smallest id pair.

    With three or four children the minimizing angle is at most 120 degrees,
    so the returned pair's mutual distance is at most sqrt(3) when all
    children lie within unit distance of p.
    """
    if len(children) < 2:
        raise ValueError("need at least two children")
    best = None
    for a, b in combinations(children, 2):
        ang = abs(math.remainder(direction(p, a) - direction(p, b), TAU))
        key = (ang, min(a.id, b.id), max(a.id, b.id))
        if best is None or key < best[0]:
            best = (key, (a, b) if a.id < b.id else (b, a))
    return best[1]


def _orient_pair(a: Point, b: Point, side: float, theta: Dict[int, float]) -> None:
    """Half-plane wedges aligned with segment ab, covering opposite sides:
    a takes the left side of a->b when ``side`` is 1.0, the right when -1.0."""
    d = direction(a, b)
    theta[a.id] = normalize_angle(d + side * 0.5 * math.pi)
    theta[b.id] = normalize_angle(d - side * 0.5 * math.pi)


def _facing(a: Point, targets: Sequence[Point]) -> float:
    """Bisector of the half-plane at a centred on the arc the targets'
    directions span, opposite their largest gap; a lone target, or a gap
    below pi, leaves a aiming at the first target."""
    ds = sorted(direction(a, q) for q in targets)
    gap, start = max([(ds[0] + TAU - ds[-1], 0)] + [(ds[k] - ds[k - 1], k) for k in range(1, len(ds))])
    if len(ds) == 1 or gap < math.pi:
        return direction(a, targets[0])
    return normalize_angle(ds[start] + 0.5 * (TAU - gap))


def _orient_group(
    group: Group180, pts: Sequence[Point], theta: Dict[int, float], children: Dict[int, List[int]]
) -> None:
    """Wedge angles of one group; ``children`` are the tree's, so a member's
    children are the tops of the groups hung from it."""
    p = pts[group.parent]
    kids = [pts[i] for i in group.members]
    if len(kids) >= 3:
        cx, cy = pair_smallest_angle(p, kids)
        _orient_pair(cx, cy, 1.0, theta)
        kids = [k for k in kids if k.id not in (cx.id, cy.id)]
    kids.sort(key=lambda q: q.id)
    if not kids:
        theta[p.id] = 1.5 * math.pi  # singleton root aims straight down
        return
    c1, c2 = kids[0], kids[-1]
    side = 1.0 if cross(p.x, p.y, c1.x, c1.y, c2.x, c2.y) >= 0.0 else -1.0
    _orient_pair(p, c1, side, theta)
    if len(kids) == 2:
        missed = [
            x
            for x in (pts[i] for i in children[c2.id])
            if side * cross(p.x, p.y, c1.x, c1.y, x.x, x.y) < 0.0 and c1.dist(x) > RADIUS_180
        ]
        theta[c2.id] = _facing(c2, [p] + missed)


def plan_groups_180(points: Sequence[Point], t: RootedTree) -> Tuple[List[Group180], Dict[int, float]]:
    """The partition of ``partition_groups_180`` and every node's wedge angle
    under the one group rule (module docstring)."""
    pts = point_set(points)
    theta: Dict[int, float] = {}
    groups = partition_groups_180(t)
    for g in groups:
        _orient_group(g, pts, theta, t.children)
    return groups, theta


def orient_all_180(points: Sequence[Point]) -> OrientationAssignment:
    """Orient every antenna (aperture 180 degrees) for strong connectivity at
    radius 1 + sqrt(3). The result checks itself through its groups with
    ``check_construction``, which raises ConstructionInvariantViolated rather
    than returning a bad assignment.

    ValueError comes from ``point_set``; DuplicatePoint and DisconnectedInput
    from bounded_degree_mst, which decides the unit disk graph precondition."""
    pts = point_set(points)
    if len(pts) < 2:
        raise TooFewPoints("need at least 2 points")
    tree = bounded_degree_mst(pts)
    groups, theta = plan_groups_180(pts, tree)
    assignment = OrientationAssignment(
        alpha=math.pi,
        theta=theta,
        guaranteed_radius=RADIUS_180,
        diagnostics={"group_sizes": [g.size for g in groups]},
    )
    group_tree = [((g.parent,) + g.members, g.attached_above) for g in groups]
    return check_construction(
        pts, assignment, group_tree,
        "180-degree construction not strongly connected at 1+sqrt(3); "
        "preserve this instance as a regression fixture",
    )
