"""90-degree orientation achieving strong connectivity at radius 7.

Small inputs (two or three points) get direct constructions at radius 2.
Otherwise the degree-5 spanning tree is carved bottom-up into subtrees of
four or more nodes; in each subtree four representative nodes (always
including the subtree root) are oriented by the four-point rule, and every
other node simply aims at its closest representative. A leftover root
remainder of at most three nodes aims at the root of the adjacent group.
The argument uses only pairs within two group edges (the representatives,
the parent group and the root remainder), the pairs ``certify_groups`` tests:
that certificate is the one self-check.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import ConstructionInvariantViolated, DisconnectedInput, TooFewPoints, TooManyPoints
from .fourpoint import _dmax, four_point_thetas, search_cover_orientation
from .geometry import Point, QuadClass, QuadKind, TAU, classify_quad, collinear, direction, normalize_angle
from .orientation import OrientationAssignment
from .topology import RootedTree, _distinct_points, bounded_degree_mst, carve, point_set
from .verifier import check_construction

RADIUS_90 = 7.0
RADIUS_SMALL = 2.0
ALPHA_90 = 0.5 * math.pi


@dataclass(frozen=True)
class Group90:
    """An extracted subtree: its root, members, representatives, and the node
    it hangs from in the residual tree (None when it contains the tree root).

    ``representatives`` always holds four ids, the subtree root first
    (``choose_representatives``); the collinear line rule ignores them and
    orients every member.
    """

    subtree_root: int
    members: FrozenSet[int]
    representatives: Tuple[int, ...]
    attach_parent: Optional[int]


def _bisector(d1: float, d2: float) -> float:
    """Direction halfway along the short arc from d1 to d2."""
    delta = normalize_angle(d2 - d1)
    if delta <= math.pi:
        return normalize_angle(d1 + 0.5 * delta)
    return normalize_angle(d2 + 0.5 * (TAU - delta))


def orient_small(points: Sequence[Point]) -> OrientationAssignment:
    """Two points aim at each other; for three, the two sharpest corners get
    wedges containing the whole triangle and the third aims at its nearer
    companion. Strongly connected at radius 2 (max pairwise distance <= 2
    when the unit disk graph is connected).

    ValueError comes from ``point_set``; DuplicatePoint and DisconnectedInput
    from the unit pairs, n - 1 of which connect two or three points."""
    pts = point_set(points)
    n = len(pts)
    if n > 3:
        raise TooManyPoints("orient_small handles at most 3 points")
    if n < 2:
        raise TooFewPoints("need at least 2 points")
    if len(_distinct_points(pts)[1][0]) < n - 1:
        raise DisconnectedInput("unit disk graph is not connected")
    theta: Dict[int, float] = {}
    if n == 2:
        a, b = pts
        theta[a.id] = direction(a, b)
        theta[b.id] = direction(b, a)
    else:
        angles = {}
        for v in pts:
            u, w = [q for q in pts if q.id != v.id]
            angles[v.id] = abs(
                math.remainder(direction(v, u) - direction(v, w), TAU)
            )
        apex_ids = sorted(angles, key=lambda i: (angles[i], i))[:2]
        for v in pts:
            u, w = [q for q in pts if q.id != v.id]
            if v.id in apex_ids:
                theta[v.id] = _bisector(direction(v, u), direction(v, w))
            else:
                target = min((u, w), key=lambda q: (v.dist(q), q.id))
                theta[v.id] = direction(v, target)
    assignment = OrientationAssignment(
        alpha=ALPHA_90, theta=theta, guaranteed_radius=RADIUS_SMALL
    )
    return check_construction(pts, assignment, [(range(n), None)], "small 90-degree case failed at r=2")


def extract_groups_90(t: RootedTree) -> Tuple[List[Group90], List[int]]:
    """Carve off minimal subtrees of four or more nodes, deepest first.

    Each step removes the deepest node (ties: smallest id) whose subtree has
    at least 4 nodes while every child subtree has fewer (``carve(t, 4)``);
    what remains at the end (at most 3 nodes, containing the tree root,
    possibly nothing) is the small root remainder.
    """
    if t.n < 4:
        raise TooFewPoints("group extraction needs at least 4 nodes")
    cuts, remainder = carve(t, 4)
    groups = [
        Group90(
            subtree_root=v,
            members=frozenset(sub),
            representatives=choose_representatives(sub, v, t.children),
            attach_parent=None if v == t.root else t.parent[v],
        )
        for v, sub in cuts
    ]
    return groups, sorted(remainder)


def _hop_distances(members: Sequence[int], adj: Dict[int, List[int]]) -> Dict[int, Dict[int, int]]:
    dist = {}
    for s in members:
        d = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in d:
                    d[w] = d[v] + 1
                    queue.append(w)
        dist[s] = d
    return dist


def choose_representatives(
    members: Sequence[int], subtree_root: int, children: Dict[int, List[int]]
) -> Tuple[int, ...]:
    """The subtree root plus three members chosen to minimize, in order: the
    worst hop distance from any non-representative to its nearest
    representative, the representative hop diameter, then the id tuple."""
    ms = sorted(members)
    if len(ms) < 4:
        raise TooFewPoints("representative selection needs at least 4 members")
    adj: Dict[int, List[int]] = {m: [] for m in ms}
    for v in ms:
        for c in children.get(v, ()):
            if c in adj:
                adj[v].append(c)
                adj[c].append(v)
    hop = _hop_distances(ms, adj)
    others = [m for m in ms if m != subtree_root]
    best = None
    for triple in combinations(others, 3):
        reps = (subtree_root,) + triple
        non = [m for m in ms if m not in reps]
        spread = max((min(hop[m][r] for r in reps) for m in non), default=0)
        diam = max(hop[a][b] for a in reps for b in reps)
        key = (spread, diam, reps)
        if best is None or key < best:
            best = key
    return best[2]


def _line_thetas(pts: Sequence[Point]) -> Dict[int, float]:
    """Fallback for a fully collinear group: sort along the line and alternate
    facing direction, so neighbors relay messages both ways at hops <= 2.
    The last point always faces back: facing forward it would cover no one."""
    far = max(
        ((a, b) for a in pts for b in pts if a.id < b.id),
        key=lambda ab: (ab[0].dist(ab[1]), -ab[0].id, -ab[1].id),
    )
    u, v = far
    if (v.x, v.y, v.id) < (u.x, u.y, u.id):
        u, v = v, u
    phi = direction(u, v)
    ux, uy = math.cos(phi), math.sin(phi)
    ordered = sorted(pts, key=lambda p: (p.x * ux + p.y * uy, p.id))
    last = len(ordered) - 1
    return {
        p.id: phi if k % 2 == 0 and k < last else normalize_angle(phi + math.pi)
        for k, p in enumerate(ordered)
    }


def _general_position_reps(
    group: Group90, pts: Sequence[Point]
) -> Optional[Tuple[Tuple[int, ...], QuadClass]]:
    """Representative 4-set in general position and its classification,
    preferring the hop-objective choice, then other root-containing subsets,
    then (degenerate corner) subsets without the root."""
    ms = sorted(group.members)
    root = group.subtree_root
    for reps in chain(
        [group.representatives],
        ((root,) + triple for triple in combinations([m for m in ms if m != root], 3)),
        combinations(ms, 4),
    ):
        qc = classify_quad([pts[i] for i in reps])
        if qc.kind is not QuadKind.DEGENERATE:
            return reps, qc
    return None


def orient_all_90(points: Sequence[Point]) -> OrientationAssignment:
    """Orient every antenna (aperture 90 degrees) for strong connectivity at
    radius 7. Groups in general position take the four-point rule unchecked;
    degenerate groups and rule misses take the collinear line rule or the
    plane-cover search. The result checks itself once, through its groups and
    the root remainder (``check_construction``).

    ValueError comes from ``point_set``; DuplicatePoint and DisconnectedInput
    from bounded_degree_mst, or from orient_small below four points."""
    pts = point_set(points)
    if len(pts) <= 3:
        return orient_small(pts)

    tree = bounded_degree_mst(pts)
    groups, remainder = extract_groups_90(tree)
    theta: Dict[int, float] = {}
    rep_dmax: List[float] = []
    for g in groups:
        member_pts = [pts[i] for i in sorted(g.members)]
        reps, qc = _general_position_reps(g, pts) or (g.representatives, None)
        found = None if qc is None else four_point_thetas(qc)
        if found is None and all(collinear(member_pts[0], member_pts[1], q) for q in member_pts[2:]):
            theta.update(_line_thetas(member_pts))
            continue
        if found is None:
            # degenerate but not collinear (e.g. lattice groups where every
            # root 4-subset has a collinear triple), or a rule miss: the
            # plane-covering search at the full radius
            found = search_cover_orientation([pts[i] for i in reps], RADIUS_90)
            if found is None:
                raise ConstructionInvariantViolated(
                    "degenerate group admits no plane-covering orientation; "
                    "preserve this instance as a regression fixture"
                )
        theta.update(found)
        rep_pts = [pts[i] for i in reps]
        rep_dmax.append(_dmax(rep_pts))
        for m in sorted(g.members):
            if m in reps:
                continue
            target = min(rep_pts, key=lambda rp: (pts[m].dist(rp), rp.id))
            theta[m] = direction(pts[m], target)

    if remainder:
        adjacent = [g for g in groups if g.attach_parent in remainder]
        q = pts[adjacent[-1].subtree_root]
        for m in remainder:
            theta[m] = direction(pts[m], q)

    assignment = OrientationAssignment(
        alpha=ALPHA_90,
        theta=theta,
        guaranteed_radius=RADIUS_90,
        diagnostics={
            "group_sizes": [len(g.members) for g in groups],
            "remainder_size": len(remainder),
            "rep_dmax": rep_dmax,
            "all_groups_full": not remainder,
            "applicable_bound": 5.0 if not remainder else 7.0,
        },
    )
    group_tree = [(g.members, g.attach_parent) for g in groups] + [(remainder, None)]
    return check_construction(
        pts, assignment, group_tree,
        "90-degree construction not strongly connected at r=7; "
        "preserve this instance as a regression fixture",
    )
