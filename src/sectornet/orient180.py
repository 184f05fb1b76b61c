"""180-degree orientation: group the degree-5 spanning tree bottom-up and
orient each group so the communication graph is strongly connected at
radius 1 + sqrt(3).

Groups are removed deepest first: each is the deepest height-one node of the
residual tree (ties: smallest id) together with its children. Within a
group, one child is paired with the parent (their half-plane wedges share
the boundary line through both and cover opposite sides, so together they
see the whole plane and each other); two further children may be paired with
each other the same way, chosen to form a smallest angle at the parent so
their mutual distance stays below sqrt(3); any remaining child simply aims
at the parent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import TooFewPoints
from .geometry import Point, cross, direction, normalize_angle
from .orientation import OrientationAssignment
from .topology import RootedTree, bounded_degree_mst, carve, point_set
from .verifier import check_construction

RADIUS_180 = 1.0 + math.sqrt(3.0)

PAIR_ANCHOR = "pair_anchor"
PAIRED_CHILD = "paired_child"
TRIPLET_CHILD = "triplet_child"


@dataclass(frozen=True)
class Role:
    kind: str
    partner: Optional[int] = None


@dataclass(frozen=True)
class Group180:
    """One orientation group: a parent node and the children grouped with it.

    ``attached_above`` is the parent's own parent in the residual tree at
    removal time (None for the tree root). ``roles`` is filled in by the
    orienter; the partition itself is purely combinatorial.
    """

    parent: int
    members: Tuple[int, ...]
    attached_above: Optional[int]
    roles: Dict[int, Role] = field(default_factory=dict)

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
    for i in range(len(children)):
        for j in range(i + 1, len(children)):
            a, b = children[i], children[j]
            ang = abs(
                math.remainder(direction(p, a) - direction(p, b), 2.0 * math.pi)
            )
            key = (ang, min(a.id, b.id), max(a.id, b.id))
            if best is None or key < best[0]:
                best = (key, (a, b) if a.id < b.id else (b, a))
    return best[1]


def _orient_pair(a: Point, b: Point, theta: Dict[int, float]) -> None:
    """Half-plane wedges aligned with segment ab, covering opposite sides."""
    d = direction(a, b)
    theta[a.id] = normalize_angle(d + 0.5 * math.pi)
    theta[b.id] = normalize_angle(d - 0.5 * math.pi)


def _orient_triplet(p: Point, c1: Point, c2: Point, theta: Dict[int, float]) -> None:
    """Parent's boundary along p-c1 on the side containing c2 (left side when
    c2 is exactly on the line); c1 takes the complementary half-plane; c2
    takes any half-plane containing p."""
    d = direction(p, c1)
    s = 1.0 if cross(p.x, p.y, c1.x, c1.y, c2.x, c2.y) >= 0.0 else -1.0
    theta[p.id] = normalize_angle(d + s * 0.5 * math.pi)
    theta[c1.id] = normalize_angle(d - s * 0.5 * math.pi)
    theta[c2.id] = direction(c2, p)


def _orient_group(
    group: Group180, pts: Sequence[Point], theta: Dict[int, float]
) -> Group180:
    p = pts[group.parent]
    kids = [pts[i] for i in group.members]
    roles: Dict[int, Role] = {}
    if len(kids) == 0:
        theta[p.id] = 1.5 * math.pi  # singleton root aims straight down
    elif len(kids) == 1:
        _orient_pair(p, kids[0], theta)
        roles[p.id] = Role(PAIR_ANCHOR, kids[0].id)
        roles[kids[0].id] = Role(PAIRED_CHILD, p.id)
    elif len(kids) == 2:
        c1, c2 = sorted(kids, key=lambda q: q.id)
        _orient_triplet(p, c1, c2, theta)
        roles[p.id] = Role(PAIR_ANCHOR, c1.id)
        roles[c1.id] = Role(PAIRED_CHILD, p.id)
        roles[c2.id] = Role(TRIPLET_CHILD)
    else:
        cx, cy = pair_smallest_angle(p, kids)
        rest = sorted((k for k in kids if k.id not in (cx.id, cy.id)), key=lambda q: q.id)
        _orient_pair(cx, cy, theta)
        roles[cx.id] = Role(PAIRED_CHILD, cy.id)
        roles[cy.id] = Role(PAIRED_CHILD, cx.id)
        if len(rest) == 1:
            _orient_pair(p, rest[0], theta)
        else:
            _orient_triplet(p, rest[0], rest[1], theta)
            roles[rest[1].id] = Role(TRIPLET_CHILD)
        roles[p.id] = Role(PAIR_ANCHOR, rest[0].id)
        roles[rest[0].id] = Role(PAIRED_CHILD, p.id)
    return Group180(
        parent=group.parent,
        members=group.members,
        attached_above=group.attached_above,
        roles=roles,
    )


def plan_groups_180(points: Sequence[Point], t: RootedTree) -> Tuple[List[Group180], Dict[int, float]]:
    """Partition plus per-group wedge angles and roles."""
    pts = point_set(points)
    theta: Dict[int, float] = {}
    groups = [_orient_group(g, pts, theta) for g in partition_groups_180(t)]
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
