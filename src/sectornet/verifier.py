"""Ground truth for constructions: communication graphs, strong connectivity,
group certificates, minimum strong radius, plane coverage, and brute-force
feasibility.

One closed-wedge rule, ``_wedge_rule``, decides every coverage question. The
communication graph has an edge a -> b exactly when b lies in a's wedge;
``CommGraph`` holds it as a boolean adjacency matrix. Every traversal is one
bitmask reach, ``_reach``: each node's out-neighbours form one Python int, and
a graph is strongly connected when node 0 reaches every node forwards and
backwards. The component report of ``strong_components`` runs on it too
(Kosaraju: one reach per component over the reversed edges). The
constructions check themselves with ``certify_groups``, which tests only
pairs of nodes in groups near each other in their group tree: the edges it
keeps are edges of the communication graph, so a strongly connected
certificate proves the whole graph strongly connected without building it.
The minimum strong radius comes from two bottleneck (minimax) reachability
sweeps over the wedge-restricted distances. On inputs whose pairs spread out,
a probe at R = 1, 2, 4, ... runs both sweeps on the pairs within R alone,
found on the grid of ``topology.grid_pairs``, and builds no n x n array; the
first probe whose sweeps reach every node gives the exact result. Dense
inputs, small ones and those no probe decides take the n x n matrix. The
certificate and the probes get their edges from one builder, ``_wedge_edges``,
which tests both directions of a pair list.

The brute force decides feasibility for up to BRUTE_FORCE_MAX points from
each point's maximal coverage patterns, each with its clockwise wedge boundary
on a point.

Every entry that takes a point set validates it with ``topology.point_set``;
the brute force and ``_coverage_masks`` work by position, on any distinct ids.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConstructionInvariantViolated, MissingOrientation, TooManyPoints
from .geometry import EPS, TAU, Point, Wedge, normalize_angle
from .orientation import OrientationAssignment
from .topology import Pairs, as_coords, grid_pairs, point_set

# Below this many points one n x n matrix costs no more than a grid probe.
SPARSE_MIN_N = 32


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Directed communication graph on point ids 0..n-1: adj[a, b] iff b lies
    in a's wedge."""

    adj: np.ndarray

    @property
    def n(self) -> int:
        return len(self.adj)

    @functools.cached_property
    def out_edges(self) -> Dict[int, FrozenSet[int]]:
        return {i: frozenset(np.flatnonzero(row).tolist()) for i, row in enumerate(self.adj)}


def _wedge_rule(
    apex: np.ndarray, theta: np.ndarray, alpha: float | np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """dist from each apex to its target, and inside: the direction apex ->
    target lies in the closed wedge with bisector theta and aperture alpha, at
    any radius. Elementwise: coordinates sit on the last axis of ``apex`` and
    ``targets``, whose other axes broadcast to the result's shape, and
    ``theta`` and ``alpha`` (one scalar, or one per apex) broadcast into it.
    Pass ``apex[:, None]``, ``theta[:, None]`` and ``targets[None, :]`` for
    every apex against every target. ``inside`` is meaningless where dist is 0."""
    dx = targets[..., 0] - apex[..., 0]
    dy = targets[..., 1] - apex[..., 1]
    dist = np.hypot(dx, dy)
    # the angular difference is folded into |.| <= pi in place, in dx
    diff = np.arctan2(dy, dx, out=dx)
    del dy
    diff -= theta
    diff += math.pi
    np.mod(diff, TAU, out=diff)
    diff -= math.pi
    np.abs(diff, out=diff)
    return dist, diff <= 0.5 * alpha + EPS


def _id_arrays(
    points: Sequence[Point], assignment: OrientationAssignment
) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinates and bisectors of the ``point_set`` of the points, in id order."""
    pts = point_set(points)
    missing = [p.id for p in pts if p.id not in assignment.theta]
    if missing:
        raise MissingOrientation(f"no orientation for point ids {missing}")
    return pts.coords, np.array([assignment.theta[p.id] for p in pts], dtype=float)


def build_comm_graph(
    points: Sequence[Point],
    assignment: OrientationAssignment,
    r_override: Optional[float] = None,
) -> CommGraph:
    """Communication graph induced by the assignment's wedges.

    ``r_override`` replaces the assignment's radius when given.
    """
    r = assignment.guaranteed_radius if r_override is None else r_override
    coords, theta = _id_arrays(points, assignment)
    dist, inside = _wedge_rule(coords[:, None], theta[:, None], assignment.alpha, coords[None, :])
    adj = (dist <= r + EPS) & inside
    np.fill_diagonal(adj, False)
    return CommGraph(adj)


def _row_masks(adj: np.ndarray) -> List[int]:
    """Row i of a boolean matrix as an int with bit j set iff adj[i, j]."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _reach(masks: Sequence[int], start: int, within: int = -1) -> int:
    """Bitmask of the nodes reachable from ``start`` through the nodes of
    ``within``; masks[v] is v's out-neighbours."""
    reach = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~reach
        reach |= frontier
    return reach


def _masks_strongly_connected(masks: Sequence[int], n: int) -> bool:
    """Every node reaches every node."""
    full = (1 << n) - 1
    return all(_reach(masks, s) == full for s in range(n))


def strongly_connected(g: CommGraph) -> bool:
    """Node 0 reaches every node and every node reaches node 0."""
    if g.n <= 1:
        return True
    full = (1 << g.n) - 1
    return _reach(_row_masks(g.adj), 0) == full and _reach(_row_masks(g.adj.T), 0) == full


def strong_components(g: CommGraph) -> List[int]:
    """The strongly connected components of g, one bitmask of nodes each
    (Kosaraju). A depth-first pass over the out-edges orders the nodes by
    finishing time; then each node still unassigned, latest finisher first,
    collects its component as the nodes that reach it among those left."""
    out, into = _row_masks(g.adj), _row_masks(g.adj.T)
    unseen = left = (1 << g.n) - 1
    order: List[int] = []
    for s in range(g.n):
        if not unseen >> s & 1:
            continue
        unseen ^= 1 << s
        stack = [s]
        while stack:
            nxt = out[stack[-1]] & unseen
            if nxt:
                low = nxt & -nxt
                unseen ^= low
                stack.append(low.bit_length() - 1)
            else:
                order.append(stack.pop())
    components = []
    for v in reversed(order):
        if left >> v & 1:
            c = _reach(into, v, within=left)
            components.append(c)
            left ^= c
    return components


def is_strongly_connected_at(
    points: Sequence[Point], assignment: OrientationAssignment, r: float
) -> bool:
    """Strong-connectivity decision at an explicit radius."""
    return strongly_connected(build_comm_graph(points, assignment, r_override=r))


def _wedge_edges(
    i: np.ndarray, j: np.ndarray, coords: np.ndarray, theta: np.ndarray, alpha: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both directions of the pairs i[k], j[k] that are wedge edges, as ids a
    -> b (b lies in a's wedge) with their distances: the edges i -> j first,
    then j -> i, each in pair order."""
    a, b = np.concatenate([i, j]), np.concatenate([j, i])
    dist, inside = _wedge_rule(coords[a], theta[a], alpha, coords[b])
    return a[inside], b[inside], dist[inside]


Groups = Sequence[Tuple[Sequence[int], Optional[int]]]


def _certificate_edges(
    points: Sequence[Point], assignment: OrientationAssignment, groups: Groups
) -> Tuple[np.ndarray, np.ndarray]:
    """The edges a -> b of ``build_comm_graph(points, assignment)`` whose ends
    lie in groups at most two edges apart in the group tree, as id arrays.

    ``groups`` gives each group's member ids and the id of the node it hangs
    from (None at the top); a group's parent in the group tree is the group
    holding that node. Each group is paired once with itself, its parent, its
    grandparent and its earlier siblings, which covers every pair of groups
    at most two edges apart exactly once.
    """
    coords, theta = _id_arrays(points, assignment)
    group_of = [0] * len(coords)
    for g, (members, _) in enumerate(groups):
        for v in members:
            group_of[v] = g
    up = [None if hang is None else group_of[hang] for _, hang in groups]
    members = [list(m) for m, _ in groups]
    earlier: Dict[int, List[int]] = {}  # members of the groups seen so far, by parent group
    src: List[int] = []
    dst: List[int] = []
    for g, p in enumerate(up):
        near: List[int] = []
        if p is not None:
            siblings = earlier.setdefault(p, [])
            near = members[p] + siblings + (members[up[p]] if up[p] is not None else [])
            siblings.extend(members[g])
        for i, v in enumerate(members[g]):
            others = members[g][i + 1 :] + near
            src.extend([v] * len(others))
            dst.extend(others)
    i, j = np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)
    a, b, dist = _wedge_edges(i, j, coords, theta, assignment.alpha)
    keep = dist <= assignment.guaranteed_radius + EPS
    return a[keep], b[keep]


def certify_groups(
    points: Sequence[Point], assignment: OrientationAssignment, groups: Groups
) -> bool:
    """True when the edges of ``_certificate_edges`` alone connect the points
    strongly. They are edges of the communication graph at the assignment's
    radius, so True proves that graph strongly connected; False proves
    nothing, and the dense ``is_strongly_connected_at`` has to decide."""
    n = len(points)
    out = [0] * n
    into = [0] * n
    a, b = _certificate_edges(points, assignment, groups)
    for u, v in zip(a.tolist(), b.tolist()):
        out[u] |= 1 << v
        into[v] |= 1 << u
    full = (1 << n) - 1
    return _reach(out, 0) == full and _reach(into, 0) == full


def check_construction(
    points: Sequence[Point], assignment: OrientationAssignment, groups: Groups, failure: str
) -> OrientationAssignment:
    """The self-check every construction exits through: the group certificate,
    else the dense check at the assignment's radius, else
    ConstructionInvariantViolated(failure). Returns the assignment."""
    pts = point_set(points)
    r = assignment.guaranteed_radius
    if certify_groups(pts, assignment, groups) or is_strongly_connected_at(pts, assignment, r):
        return assignment
    raise ConstructionInvariantViolated(failure)


def _bottleneck_level(w: np.ndarray) -> float:
    """Smallest t at which the edges a -> b with w[a, b] <= t reach every node
    from node 0 (inf if none does). The reached set grows by its cheapest
    outgoing weight, taking every node at or below the level in one batch."""
    reached = np.zeros(len(w), dtype=bool)
    reached[0] = True
    best = w[0].copy()
    best[0] = np.inf
    level = 0.0
    while not reached.all():
        level = max(level, float(best.min()))
        if level == np.inf:
            break
        new = best <= level
        reached |= new
        best = np.minimum(best, w[new].min(axis=0))
        best[reached] = np.inf
    return level


def _csr_bottleneck_level(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, degree: np.ndarray
) -> float:
    """``_bottleneck_level`` of the edges src[k] -> dst[k] of weight w[k], where
    degree[v] counts the edges out of v. The edges sit in compressed sparse
    rows, and the reached set grows one node at a time, cheapest edge first:
    the largest weight it takes is the same level."""
    n = len(degree)
    order = np.argsort(src)
    dst, w = dst[order].tolist(), w[order].tolist()
    start = [0] + degree.cumsum().tolist()
    reached = [False] * n
    heap = [(0.0, 0)]
    level = 0.0
    left = n
    while heap:
        weight, v = heapq.heappop(heap)
        if reached[v]:
            continue
        reached[v] = True
        level = max(level, weight)
        left -= 1
        if not left:
            return level
        for k in range(start[v], start[v + 1]):
            if not reached[dst[k]]:
                heapq.heappush(heap, (w[k], dst[k]))
    return math.inf


def _pairs_bottleneck_level(
    pairs: Pairs, coords: np.ndarray, theta: np.ndarray, alpha: float
) -> float:
    """The larger of the two bottleneck levels over the wedge edges among
    ``pairs`` (both directions tested); inf when either sweep misses a node."""
    a, b, w = _wedge_edges(pairs[0], pairs[1], coords, theta, alpha)
    n = len(coords)
    out_degree, in_degree = np.bincount(a, minlength=n), np.bincount(b, minlength=n)
    if not (out_degree.all() and in_degree.all()):
        return math.inf
    level = _csr_bottleneck_level(a, b, w, out_degree)
    if level == math.inf:
        return level
    return max(level, _csr_bottleneck_level(b, a, w, in_degree))


def min_strong_radius(
    points: Sequence[Point], assignment: OrientationAssignment
) -> Optional[float]:
    """Smallest pairwise distance at which the graph is strongly connected.

    With W[a, b] = |ab| when b is in a's wedge and inf elsewhere, the graph at
    radius r is strongly connected iff B <= r + EPS, B being the larger
    bottleneck level from node 0 on W and on W transposed. The result is the
    smallest pairwise distance c with B <= c + EPS: the float a binary search
    of the sorted distances with ``is_strongly_connected_at`` finds, also when
    distances lie within EPS of each other. None when no radius suffices.

    Inputs of SPARSE_MIN_N points or more first probe R = 1, 2, 4, ...: the
    pairs within R come from ``topology.grid_pairs`` on cells R wide, and both
    sweeps run on their wedge edges alone. When both reach every node, B <= R,
    and every edge up to B and every distance in [B - EPS, B] is among those
    pairs, so B and c are exact. A probe whose grid offers more than a quarter
    of the n(n-1)/2 pairs as candidates, or whose R covers the bounding box,
    hands over to the n x n matrix; so does a smaller input, and the matrix is
    also what finds None.
    """
    coords, theta = _id_arrays(points, assignment)
    n = len(coords)
    if n <= 1:
        return 0.0
    if n >= SPARSE_MIN_N:
        span = float(np.hypot(*(coords.max(axis=0) - coords.min(axis=0))))
        r = 1.0
        while r < span:
            pairs = grid_pairs(coords, r, r, most=n * (n - 1) / 8)
            if pairs is None:
                break
            level = _pairs_bottleneck_level(pairs, coords, theta, assignment.alpha)
            if level < math.inf:
                d = pairs[2]
                return float(d[d + EPS >= level].min())
            r *= 2.0
    dist, inside = _wedge_rule(coords[:, None], theta[:, None], assignment.alpha, coords[None, :])
    np.fill_diagonal(dist, np.inf)
    w = np.where(inside, dist, np.inf)
    b = max(_bottleneck_level(w), _bottleneck_level(w.T))
    if b == np.inf:
        return None
    return float(dist[dist + EPS >= b].min())


# ---------------------------------------------------------------------------
# Plane coverage
# ---------------------------------------------------------------------------


def _interval_cover_circle(intervals: List[Tuple[float, float]]) -> bool:
    """Do closed arcs [start, start+width] jointly cover the full circle?"""
    arcs = []
    for s, w in intervals:
        if w >= TAU - EPS:
            return True
        s = normalize_angle(s)
        arcs.append((s, s + w))
        arcs.append((s - TAU, s + w - TAU))
    arcs.sort()
    reach = 0.0
    for s, e in arcs:
        if s > reach + EPS:
            break
        reach = max(reach, e)
        if reach >= TAU - EPS:
            return True
    return False


def _wedge_lines(wedges: Sequence[Wedge]) -> List[Tuple[float, float, float, float]]:
    """Boundary lines (px, py, ux, uy) of every wedge; a half-plane yields one line."""
    lines = []
    for w in wedges:
        seen_dirs: List[float] = []
        for sign in (-1.0, 1.0):
            b = normalize_angle(w.theta + sign * 0.5 * w.alpha)
            axis = math.fmod(b, math.pi)
            if any(abs(axis - d) < 1e-12 or abs(abs(axis - d) - math.pi) < 1e-12 for d in seen_dirs):
                continue
            seen_dirs.append(axis)
            lines.append((w.apex.x, w.apex.y, math.cos(b), math.sin(b)))
    return lines


def covers_plane(wedges: Sequence[Wedge]) -> bool:
    """Exact decision of directional plane coverage (wedge radii are ignored).

    Far-field: the angular intervals must cover the full circle. Near-field:
    the coverage pattern is constant on each cell of the boundary-line
    arrangement, so testing every vertex plus on-line samples and their small
    normal offsets (one sample lands in every face adjacent to each edge
    piece, bounded or not) decides coverage of the whole plane.
    """
    if not 1 <= len(wedges) <= 16:
        raise ValueError("covers_plane supports between 1 and 16 wedges")
    if not _interval_cover_circle([(w.theta - 0.5 * w.alpha, w.alpha) for w in wedges]):
        return False

    lines = _wedge_lines(wedges)
    # pairwise intersections, merged within EPS
    verts: List[Tuple[float, float]] = []
    for i in range(len(lines)):
        px, py, ux, uy = lines[i]
        for j in range(i + 1, len(lines)):
            qx, qy, vx, vy = lines[j]
            det = ux * vy - uy * vx
            if abs(det) < 1e-12:
                continue
            t = ((qx - px) * vy - (qy - py) * vx) / det
            verts.append((px + t * ux, py + t * uy))
    merged: List[Tuple[float, float]] = []
    for x, y in verts:
        if not any(abs(x - mx) <= EPS and abs(y - my) <= EPS for mx, my in merged):
            merged.append((x, y))

    ref = [(w.apex.x, w.apex.y) for w in wedges] + merged
    span = 1.0
    for i in range(len(ref)):
        for j in range(i + 1, len(ref)):
            span = max(span, abs(ref[i][0] - ref[j][0]) + abs(ref[i][1] - ref[j][1]))
    far = 2.0 * span + 1.0
    delta = 1e-6 * span

    on_line_tol = 1e-7 * span
    candidates: List[Tuple[float, float]] = list(merged)
    candidates.extend((w.apex.x, w.apex.y) for w in wedges)
    for px, py, ux, uy in lines:
        ts = sorted(
            (vx - px) * ux + (vy - py) * uy
            for vx, vy in merged
            if abs((vx - px) * uy - (vy - py) * ux) <= on_line_tol
        )
        samples = [ts[0] - far, ts[-1] + far] if ts else [-far, 0.0, far]
        for a, b in zip(ts, ts[1:]):
            if b - a > EPS:
                samples.append(0.5 * (a + b))
        nx, ny = -uy, ux
        for t in samples:
            sx, sy = px + t * ux, py + t * uy
            candidates.append((sx, sy))
            candidates.append((sx + delta * nx, sy + delta * ny))
            candidates.append((sx - delta * nx, sy - delta * ny))

    apex = as_coords([w.apex for w in wedges])
    theta = np.array([[w.theta] for w in wedges])
    alpha = np.array([[w.alpha] for w in wedges])
    dist, inside = _wedge_rule(apex[:, None], theta, alpha, np.asarray(candidates)[None, :])
    return bool((inside | (dist == 0.0)).any(axis=0).all())


# ---------------------------------------------------------------------------
# Brute-force feasibility
# ---------------------------------------------------------------------------

BRUTE_FORCE_MAX = 11


def candidate_bisectors(points: Sequence[Point], i: int, alpha: float) -> List[float]:
    """Bisectors that put the clockwise boundary of point i's wedge on another
    point q: direction(i, q) + alpha/2 for every q, sorted.

    Turning a closed wedge counter-clockwise until its clockwise boundary
    meets a covered point loses no covered point, so every coverage pattern
    of an exact closed wedge lies inside the pattern of one of these.
    Membership widens the wedge by EPS on each side; a pattern whose points
    span more than alpha, by at most 2 EPS, may lie inside none of them.
    """
    p = points[i]
    ds = [math.atan2(q.y - p.y, q.x - p.x) for q in points if q.id != p.id]
    return sorted({normalize_angle(d + 0.5 * alpha) for d in ds})


def _coverage_masks(
    points: Sequence[Point], i: int, thetas: Sequence[float], alpha: float, r: float
) -> List[int]:
    """For each bisector in ``thetas``, the bitmask of the points (by index)
    that point i's wedge covers at radius r."""
    coords = as_coords(points)
    # one apex row per bisector: the rule works in place on the apex-target shape
    apex = np.repeat(coords[i : i + 1], len(thetas), axis=0)
    dist, inside = _wedge_rule(
        apex[:, None], np.asarray(thetas, dtype=float)[:, None], alpha, coords[None, :]
    )
    covered = inside & (dist <= r + EPS)
    covered[:, i] = False
    return _row_masks(covered)


def feasible_by_bruteforce(
    points: Sequence[Point], alpha: float, r: float
) -> Tuple[bool, Optional[OrientationAssignment]]:
    """Exhaustively decide whether some orientation is strongly connected at r.

    Connectivity depends only on which points each wedge covers, and more
    edges never disconnect, so each point tries only its maximal coverage
    masks over ``candidate_bisectors`` (see there for the EPS caveat). A
    point that covers nothing decides False at once. Returns a witness
    assignment on success. Limited to n <= BRUTE_FORCE_MAX.
    """
    pts = sorted(points, key=lambda p: p.id)
    n = len(pts)
    if n > BRUTE_FORCE_MAX:
        raise TooManyPoints(f"brute force limited to {BRUTE_FORCE_MAX} points")
    if n <= 1:
        theta = {p.id: 0.0 for p in pts}
        return True, OrientationAssignment(alpha=alpha, theta=theta, guaranteed_radius=r)

    options: List[List[Tuple[int, float]]] = []
    for i in range(n):
        by_mask: Dict[int, float] = {}  # each mask with its smallest bisector
        thetas = candidate_bisectors(pts, i, alpha)
        for th, m in zip(thetas, _coverage_masks(pts, i, thetas, alpha, r)):
            by_mask.setdefault(m, th)
        options.append(
            [(m, th) for m, th in by_mask.items() if not any(m != o and m & o == m for o in by_mask)]
        )
    # 0 is maximal only as a point's one mask
    if any(opts[0][0] == 0 for opts in options):
        return False, None
    for combo in product(*options):
        if _masks_strongly_connected([m for m, _ in combo], n):
            theta = {pts[i].id: combo[i][1] for i in range(n)}
            return True, OrientationAssignment(alpha=alpha, theta=theta, guaranteed_radius=r)
    return False, None
