"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths wherever they check
one: plain Prim on the complete distance matrix, exhaustive spanning-tree
enumeration via Pruefer sequences, n x BFS reachability, and random-sampling
coverage probes. Eleven are reference implementations kept for differential
tests: the binary search for the minimum strong radius, the minimum strong
radius from n x n ``np.hypot`` distances and weights, the quadratic
random-UDG generator, the two quadratic tree groupings that walk the whole
residual tree again after every removal, the per-point coverage-mask loop
over ``math.hypot`` and ``angle_diff``, the closed-wedge rule that folds
angle differences with ``np.mod``, the dense degree-5 spanning tree
(an n x n distance matrix, tie-broken Prim and a degree repair that scans
every node pair), the brute force over every distinct coverage mask of
a nudged bisector grid, the one-pass Boruvka spanning forest that reads
every pair in its first round, and the candidate count of the grid stencil
that cells no smaller than the reach use. The same binary search over
``feasible_by_bruteforce`` gives the exact optimum radius over all
orientations, and ``mutual_reach_components`` groups the BFS reachability
into strongly connected components. Two are views the library no longer
offers: ``comm_matrix``, a communication graph's n x n adjacency matrix,
and ``strong_components``, its components as bitmasks.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter, deque
from itertools import product
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from sectornet.errors import DisconnectedInput, DuplicatePoint, TooFewPoints
from sectornet.geometry import EPS, Point, angle_diff, ccw_angle_between, direction, normalize_angle
from sectornet.orient180 import Group180
from sectornet.orient90 import Group90, choose_representatives
from sectornet.orientation import OrientationAssignment
from sectornet.topology import (
    MAX_TREE_DEGREE,
    RootedTree,
    build_udg,
    is_connected,
    point_set,
)
from sectornet.verifier import (
    _BLOCK,
    CommGraph,
    _bottleneck_level,
    _complex,
    _coverage_masks,
    _id_arrays,
    _masks_strongly_connected,
    _wedge_rule,
    component_labels,
    feasible_by_bruteforce,
    is_strongly_connected_at,
)


def prim_mst_length(coords: np.ndarray) -> float:
    """Total length of the unconstrained Euclidean MST (textbook Prim)."""
    n = len(coords)
    if n <= 1:
        return 0.0
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    total = 0.0
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        j = int(np.argmin(masked))
        total += float(masked[j])
        in_tree[j] = True
        best = np.minimum(best, dist[j])
    return total


def pruefer_min_spanning_length(
    coords: Sequence[Tuple[float, float]], max_degree: Optional[int] = None
) -> float:
    """Minimum total length over all labeled spanning trees (n <= 8),
    optionally restricted to trees of bounded maximum degree."""
    n = len(coords)
    dist = [
        [math.hypot(coords[i][0] - coords[j][0], coords[i][1] - coords[j][1]) for j in range(n)]
        for i in range(n)
    ]
    best = math.inf
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        if max_degree is not None and max(degree) > max_degree:
            continue
        deg = degree[:]
        seq_iter = list(seq)
        leaves = sorted(v for v in range(n) if deg[v] == 1)
        total = 0.0
        for v in seq_iter:
            leaf = leaves.pop(0)
            total += dist[leaf][v]
            deg[v] -= 1
            if deg[v] == 1:
                bisect.insort(leaves, v)
        total += dist[leaves[0]][leaves[1]]
        if total < best:
            best = total
    return best


def bfs_strongly_connected(n: int, out_edges: Dict[int, Iterable[int]]) -> bool:
    """Strong connectivity by running one BFS from every node."""
    if n <= 1:
        return True
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for w in out_edges.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            return False
    return True


def mutual_reach_components(n: int, out_edges: Dict[int, Iterable[int]]) -> List[FrozenSet[int]]:
    """Strongly connected components as the groups of nodes that reach each
    other: one BFS per node forwards and one backwards, then nodes with the
    same forward-and-backward set grouped, in order of their smallest node."""

    def reach(edges: Dict[int, List[int]], s: int) -> FrozenSet[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            for w in edges[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return frozenset(seen)

    fwd: Dict[int, List[int]] = {v: list(out_edges.get(v, ())) for v in range(n)}
    back: Dict[int, List[int]] = {v: [] for v in range(n)}
    for v in range(n):
        for w in fwd[v]:
            back[w].append(v)
    components: List[FrozenSet[int]] = []
    for v in range(n):
        c = reach(fwd, v) & reach(back, v)
        if c not in components:
            components.append(c)
    return components


def comm_matrix(g: CommGraph) -> np.ndarray:
    """The boolean n x n adjacency matrix of a communication graph, built
    from its ``edges`` on either form."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    adj[g.edges] = True
    return adj


def strong_components(g: CommGraph) -> List[int]:
    """The strongly connected components of g, one bitmask of nodes each, in
    the order ``component_labels`` numbers them."""
    label = component_labels(g)
    masks = [0] * (max(label, default=-1) + 1)
    for v, c in enumerate(label):
        masks[c] |= 1 << v
    return masks


def loop_coverage_mask(
    points: Sequence[Point], i: int, theta: float, alpha: float, r: float
) -> int:
    """Bitmask of the points (by index) that point i's wedge with bisector
    theta covers at radius r, one scalar test per point."""
    mask = 0
    p = points[i]
    for j, q in enumerate(points):
        if j == i:
            continue
        if p.dist(q) <= r + EPS and angle_diff(
            math.atan2(q.y - p.y, q.x - p.x), theta
        ) <= 0.5 * alpha + EPS:
            mask |= 1 << j
    return mask


def fold_wedge_rule(
    apex: np.ndarray, theta: np.ndarray, alpha, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The closed-wedge rule as the verifier evaluated it before it rotated
    differences: dist from each apex to its target (``np.hypot``), and inside,
    whether the direction arctan2(dy, dx), less theta and folded into [-pi, pi]
    by ``np.mod``, lies within alpha / 2 + EPS. Coordinates sit on the last
    axis of ``apex`` and ``targets``; everything broadcasts to the result's
    shape. A zero difference has direction arctan2(0, 0) = 0."""
    dx = targets[..., 0] - apex[..., 0]
    dy = targets[..., 1] - apex[..., 1]
    dist = np.hypot(dx, dy)
    diff = np.arctan2(dy, dx) - theta + math.pi
    diff = np.abs(np.mod(diff, 2 * math.pi) - math.pi)
    return dist, diff <= 0.5 * alpha + EPS


def tree_edges_cross(coords: np.ndarray, edges: Sequence[Tuple[int, int]]) -> bool:
    """Any proper crossing between segments that share no endpoint (vectorized)."""
    m = len(edges)
    if m < 2:
        return False
    e = np.array(edges)
    a = coords[e[:, 0]]
    b = coords[e[:, 1]]
    i, j = np.triu_indices(m, k=1)
    share = (
        (e[i, 0] == e[j, 0])
        | (e[i, 0] == e[j, 1])
        | (e[i, 1] == e[j, 0])
        | (e[i, 1] == e[j, 1])
    )

    def cr(o, p, q):
        return (p[:, 0] - o[:, 0]) * (q[:, 1] - o[:, 1]) - (p[:, 1] - o[:, 1]) * (
            q[:, 0] - o[:, 0]
        )

    d1 = cr(a[i], b[i], a[j])
    d2 = cr(a[i], b[i], b[j])
    d3 = cr(a[j], b[j], a[i])
    d4 = cr(a[j], b[j], b[i])
    crossing = (d1 * d2 < 0) & (d3 * d4 < 0) & ~share
    return bool(crossing.any())


def sampled_uncovered_point(
    wedges, rng: np.random.Generator, samples: int = 1_000_000
) -> Optional[Tuple[float, float]]:
    """First uncovered sample among ``samples`` random points in a large disk
    around the wedge apexes, plus samples//10 random far-field directions;
    None when all covered."""
    apex = np.array([(w.apex.x, w.apex.y) for w in wedges])
    theta = np.array([w.theta for w in wedges])
    half = np.array([0.5 * w.alpha for w in wedges])
    cx, cy = apex[:, 0].mean(), apex[:, 1].mean()
    spread = max(1.0, float(np.abs(apex - [cx, cy]).max()))

    n_far = samples // 10
    n_disk = samples
    chunk = 200_000
    eps = 1e-9

    def uncovered_in(px: np.ndarray, py: np.ndarray) -> Optional[Tuple[float, float]]:
        dx = px[:, None] - apex[None, :, 0]
        dy = py[:, None] - apex[None, :, 1]
        ang = np.arctan2(dy, dx)
        diff = np.abs(np.mod(ang - theta[None, :] + np.pi, 2 * np.pi) - np.pi)
        ok = (diff <= half[None, :] + eps) | ((dx == 0) & (dy == 0))
        bad = ~ok.any(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            return float(px[k]), float(py[k])
        return None

    remaining = n_disk
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        r = 10.0 * spread * np.sqrt(rng.random(m))
        a = rng.random(m) * 2 * np.pi
        hit = uncovered_in(cx + r * np.cos(a), cy + r * np.sin(a))
        if hit is not None:
            return hit
    a = rng.random(n_far) * 2 * np.pi
    far_r = 1e6 * spread
    return uncovered_in(cx + far_r * np.cos(a), cy + far_r * np.sin(a))


def _smallest_distance(points: Sequence[Point], ok: Callable[[float], bool]) -> Optional[float]:
    """Smallest pairwise distance r with ok(r), by binary search over the
    sorted distinct distances (ok must be monotone in r); None when even the
    largest distance fails."""
    pts = sorted(points, key=lambda p: p.id)
    n = len(pts)
    if n <= 1:
        return 0.0
    coords = np.array([(p.x, p.y) for p in pts], dtype=float)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    iu, ju = np.triu_indices(n, k=1)
    cands = np.unique(dist[iu, ju])
    if not ok(float(cands[-1])):
        return None
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(float(cands[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo])


def binary_search_min_strong_radius(
    points: Sequence[Point], assignment: OrientationAssignment
) -> Optional[float]:
    """Smallest pairwise distance r with ``is_strongly_connected_at(r)``."""
    return _smallest_distance(points, lambda r: is_strongly_connected_at(points, assignment, r))


def hypot_min_strong_radius(
    points: Sequence[Point], assignment: OrientationAssignment
) -> Optional[float]:
    """``min_strong_radius`` from n x n ``np.hypot`` distances and weights at
    every n, with no probe: the larger bottleneck level B of the wedge
    weights and their transpose, then the smallest distance c with
    c + EPS >= B over all pairs. The matrix is filled in row blocks."""
    coords, turn = _id_arrays(points, assignment)
    n = len(coords)
    if n <= 1:
        return 0.0
    z = _complex(coords)
    dist = np.empty((n, n))
    inside = np.empty((n, n), dtype=bool)
    for lo in range(0, n, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        d = z - z[rows, None]
        np.hypot(d.real, d.imag, out=dist[rows])
        inside[rows] = _wedge_rule(d, turn[rows, None], assignment.alpha)
    np.fill_diagonal(dist, np.inf)
    w = np.where(inside, dist, np.inf)
    del inside
    b = max(_bottleneck_level(w), _bottleneck_level(w.T))
    if b == np.inf:
        return None
    np.add(dist, EPS, out=w)  # the sweeps are done with w
    return float(dist.min(where=w >= b, initial=np.inf))


def exact_min_radius(points: Sequence[Point], alpha: float) -> Optional[float]:
    """Smallest pairwise distance at which some orientation of aperture alpha
    is strongly connected: the optimum over all orientations, decided by
    ``feasible_by_bruteforce`` and so limited to its BRUTE_FORCE_MAX points."""
    return _smallest_distance(points, lambda r: feasible_by_bruteforce(points, alpha, r)[0])


# Turn of the nudged grid: above membership EPS, below geometric feature
# scale, so it selects each open side of a breakpoint without tripping the
# closed-boundary tolerance.
NUDGE = 1e-7


def nudged_candidate_bisectors(points: Sequence[Point], i: int, alpha: float) -> List[float]:
    """A denser grid than ``candidate_bisectors``: toward each other point,
    plus both boundary alignments and their nudged open-side variants."""
    p = points[i]
    cand = set()
    for q in points:
        if q.id == p.id:
            continue
        d = math.atan2(q.y - p.y, q.x - p.x)
        cand.add(normalize_angle(d))
        for sign in (-1.0, 1.0):
            edge = d + sign * 0.5 * alpha
            cand.add(normalize_angle(edge))
            cand.add(normalize_angle(edge + NUDGE))
            cand.add(normalize_angle(edge - NUDGE))
    return sorted(cand)


def all_masks_feasible(
    points: Sequence[Point], alpha: float, r: float
) -> Tuple[bool, Optional[OrientationAssignment]]:
    """Reference for ``feasible_by_bruteforce``: the product of every distinct
    coverage mask of the nudged grid per point, zero masks skipped one
    combination at a time. Exponential in n; meant for n <= 5."""
    pts = sorted(points, key=lambda p: p.id)
    n = len(pts)
    if n <= 1:
        theta = {p.id: 0.0 for p in pts}
        return True, OrientationAssignment(alpha=alpha, theta=theta, guaranteed_radius=r)

    options: List[List[Tuple[int, float]]] = []
    for i in range(n):
        by_mask: Dict[int, float] = {}
        thetas = nudged_candidate_bisectors(pts, i, alpha)
        for th, m in zip(thetas, _coverage_masks(pts, i, thetas, alpha, r)):
            by_mask.setdefault(m, th)
        options.append(sorted(by_mask.items(), key=lambda kv: kv[1]))

    for combo in product(*options):
        masks = [m for m, _ in combo]
        if any(m == 0 for m in masks):
            continue
        if _masks_strongly_connected(masks, n):
            theta = {pts[i].id: combo[i][1] for i in range(n)}
            return True, OrientationAssignment(
                alpha=alpha, theta=theta, guaranteed_radius=r
            )
    return False, None


def one_pass_spanning_forest(n: int, i: np.ndarray, j: np.ndarray) -> List[Tuple[int, int]]:
    """Reference for ``topology._spanning_forest``: minimum spanning forest of
    the pairs (i[k], j[k]), pair k ranked k-th, by Boruvka rounds over every
    pair at once. Every component hooks onto the component across its first
    outgoing pair; two components hook onto each other only through one pair."""
    comp = ids = np.arange(n)
    ci, cj = i, j
    forest: List[Tuple[int, int]] = []
    while len(forest) < n - 1 and len(i):
        first = np.full(n, len(i))
        rank = np.arange(len(i))
        np.minimum.at(first, ci, rank)
        np.minimum.at(first, cj, rank)
        c = (first < len(i)).nonzero()[0]
        k = first[c]
        hook = ids.copy()
        hook[c] = ci[k] + cj[k] - c
        mutual = (hook[hook] == ids) & (ids < hook)
        hook[mutual] = ids[mutual]
        k = k[hook[c] != c]  # a mutual pair once, from its larger side
        forest.extend(zip(i[k].tolist(), j[k].tolist()))
        while (hook[hook] != hook).any():
            hook = hook[hook]
        comp = hook[comp]
        ci, cj = comp[i], comp[j]
        between = ci != cj
        i, j, ci, cj = i[between], j[between], ci[between], cj[between]
    return forest


def stencil_candidate_count(coords: np.ndarray, cell: float) -> int:
    """Candidates of the grid stencil for cells no smaller than the reach: each
    pair within one cell once, and every point against the cell above its own
    and the three cells to its right. Counted over a dictionary of cells."""
    cells = Counter((math.floor(x / cell), math.floor(y / cell)) for x, y in coords.tolist())
    return sum(
        k * (k - 1) // 2
        + k * (cells[col, row + 1] + cells[col + 1, row - 1] + cells[col + 1, row] + cells[col + 1, row + 1])
        for (col, row), k in cells.items()
    )


def quadratic_random_connected_udg(n: int, seed: int, box: float) -> List[Point]:
    """Reference for ``random_connected_udg``: the same draws, with the
    duplicate check scanning every earlier point and connectivity decided on
    the full unit disk graph."""
    if n < 1:
        raise ValueError("need n >= 1")
    if box <= 0:
        raise ValueError("need box > 0")
    rng = random.Random(seed)
    coords = [(rng.uniform(0.0, box), rng.uniform(0.0, box))]
    while len(coords) < n:
        bx, by = coords[rng.randrange(len(coords))]
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(0.0, 0.9)
        x = bx + rad * math.cos(ang)
        y = by + rad * math.sin(ang)
        if not (0.0 <= x <= box and 0.0 <= y <= box):
            continue
        if any(math.hypot(x - cx, y - cy) <= 1e-6 for cx, cy in coords):
            continue
        coords.append((x, y))
    pts = [Point(i, x, y) for i, (x, y) in enumerate(coords)]
    if not is_connected(build_udg(pts)):
        raise AssertionError("generated points do not form a connected unit disk graph")
    return pts


def _residual_order(root: int, children: Dict[int, List[int]]) -> List[int]:
    order = [root]
    i = 0
    while i < len(order):
        order.extend(children[order[i]])
        i += 1
    return order


def quadratic_partition_groups_180(t: RootedTree) -> List[Group180]:
    """Reference 180-degree grouping: after every removal, recompute the
    residual heights and take the smallest-id height-one node with its
    current children; a leftover root becomes a singleton group."""
    children = {v: list(t.children[v]) for v in t.parent}
    alive = set(t.parent)
    groups: List[Group180] = []
    while len(alive) > 1:
        order = _residual_order(t.root, children)
        heights = {v: 0 for v in order}
        for v in reversed(order):
            if children[v]:
                heights[v] = 1 + max(heights[c] for c in children[v])
        v = min(u for u in alive if heights[u] == 1)
        members = tuple(children[v])
        alive.difference_update(members)
        alive.discard(v)
        if v == t.root:
            attached = None
        else:
            attached = t.parent[v]
            children[attached].remove(v)
        children[v] = []
        groups.append(Group180(parent=v, members=members, attached_above=attached))
    if alive:
        groups.append(Group180(parent=t.root, members=(), attached_above=None))
    return groups


def quadratic_extract_groups_90(t: RootedTree) -> Tuple[List[Group90], List[int]]:
    """Reference 90-degree grouping: after every removal, recompute depth and
    size of the residual tree and remove the deepest node (ties: smallest id)
    whose subtree has at least 4 nodes while every child subtree has fewer."""
    children = {v: list(t.children[v]) for v in t.parent}
    alive = set(t.parent)
    groups: List[Group90] = []
    while len(alive) >= 4:
        order = _residual_order(t.root, children)
        depth = {t.root: 0}
        for v in order:
            for c in children[v]:
                depth[c] = depth[v] + 1
        size = {v: 1 for v in order}
        for v in reversed(order):
            for c in children[v]:
                size[v] += size[c]
        eligible = [
            v for v in order if size[v] >= 4 and all(size[c] < 4 for c in children[v])
        ]
        v = min(eligible, key=lambda u: (-depth[u], u))
        members = _residual_order(v, children)
        attach = None if v == t.root else t.parent[v]
        if attach is not None:
            children[attach].remove(v)
        for m in members:
            alive.discard(m)
            children[m] = []
        reps = choose_representatives(members, v, {m: list(t.children[m]) for m in members})
        groups.append(
            Group90(
                subtree_root=v,
                members=frozenset(members),
                representatives=reps,
                attach_parent=attach,
            )
        )
    return groups, sorted(alive)


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """n x n Euclidean distance matrix of an (n, 2) coordinate array."""
    d = coords[:, None, :] - coords[None, :, :]
    return np.hypot(d[..., 0], d[..., 1])


def _distinct_points(points: Sequence[Point]) -> Tuple[Sequence[Point], np.ndarray]:
    """Points sorted by id and their distance matrix.

    Raises ValueError on bad ids or coordinates, TooFewPoints on an empty
    input and DuplicatePoint when two points coincide within EPS.
    """
    pts = point_set(points)
    if len(pts) < 1:
        raise TooFewPoints("need at least one point")
    dist = pairwise_distances(pts.coords)
    close = np.argwhere(np.triu(dist <= EPS, k=1))
    if len(close):
        i, j = close[0]
        raise DuplicatePoint(f"points {i} and {j} coincide within {EPS}")
    return pts, dist


def _prim_edges(points: Sequence[Point], dist: np.ndarray) -> List[Tuple[int, int]]:
    """Prim restricted to UDG edges, ties broken by (distance, smaller id, larger id)."""
    n = len(points)
    weight = dist.copy()
    weight[weight > 1.0 + EPS] = np.inf
    np.fill_diagonal(weight, np.inf)

    start = min(range(n), key=lambda i: (-points[i].y, i))
    in_tree = np.zeros(n, dtype=bool)
    in_tree[start] = True
    best = weight[start].copy()
    best_from = np.full(n, start, dtype=int)
    edges: List[Tuple[int, int]] = []
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        lo = masked.min()
        if not np.isfinite(lo):
            raise DisconnectedInput("unit disk graph is not connected")
        tie = np.flatnonzero(masked == lo)
        j = min(
            (int(t) for t in tie),
            key=lambda t: (min(best_from[t], t), max(best_from[t], t)),
        )
        edges.append((int(best_from[j]), j))
        in_tree[j] = True
        improve = weight[j] < best
        best[improve] = weight[j][improve]
        best_from[improve] = j
        # equal-weight candidates switch only to a lexicographically smaller pair
        same = (~improve) & (weight[j] == best) & np.isfinite(best)
        for k in np.flatnonzero(same):
            old = (min(int(best_from[k]), int(k)), max(int(best_from[k]), int(k)))
            new = (min(j, int(k)), max(j, int(k)))
            if new < old:
                best_from[k] = j
    return edges


def _split_component(adj: Dict[int, set], block_a: int, block_b: int) -> set:
    """Nodes reachable from block_b when edge (block_a, block_b) is removed."""
    seen = {block_b}
    queue = deque([block_b])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if v == block_b and w == block_a:
                continue
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _repair_degree(
    adj: Dict[int, set], points: Sequence[Point], dist: np.ndarray
) -> None:
    """Swap equal-length edges until no vertex exceeds degree 5.

    A degree-6 MST vertex forces six equidistant neighbors at exact 60-degree
    spacing, so an equal-length rim replacement always exists.
    """
    while True:
        over = sorted(v for v in adj if len(adj[v]) > MAX_TREE_DEGREE)
        if not over:
            return
        v = over[0]
        done = False
        for u in sorted(adj[v], key=lambda u: (dist[v][u], u)):
            comp_u = _split_component(adj, v, u)
            limit = dist[v][u] + 1e-12
            cands = [
                (dist[x][y], min(x, y), max(x, y), x, y)
                for x in sorted(comp_u)
                for y in adj
                if y not in comp_u
                and y != v
                and dist[x][y] <= limit
                and len(adj[y]) < MAX_TREE_DEGREE
                and (x != u or len(adj[x]) <= MAX_TREE_DEGREE)
                and (x == u or len(adj[x]) < MAX_TREE_DEGREE)
            ]
            if not cands:
                continue
            _, _, _, x, y = min(cands)
            adj[v].discard(u)
            adj[u].discard(v)
            adj[x].add(y)
            adj[y].add(x)
            done = True
            break
        if not done:
            raise AssertionError(f"cannot repair degree-{len(adj[v])} vertex {v}")


def dense_bounded_degree_mst(points: Sequence[Point]) -> RootedTree:
    """Euclidean MST with max degree 5, rooted at a highest point (ties: smallest id).

    The dense reference for ``topology.bounded_degree_mst``: the same tree, or
    the same error, from an n x n distance matrix and tie-broken Prim. Raises
    ValueError on bad ids or coordinates, DuplicatePoint when two points
    coincide, and DisconnectedInput when the unit disk graph is not connected.
    """
    pts, dist = _distinct_points(points)
    n = len(pts)
    if n == 1:
        return RootedTree(root=0, parent={0: 0}, children={0: []})

    adj: Dict[int, set] = {i: set() for i in range(n)}
    for a, b in _prim_edges(pts, dist):
        adj[a].add(b)
        adj[b].add(a)
    _repair_degree(adj, pts, dist)

    root = min(range(n), key=lambda i: (-pts[i].y, i))
    parent = {root: root}
    children: Dict[int, List[int]] = {i: [] for i in range(n)}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        kids = [w for w in adj[v] if w not in parent]
        ref = 0.0 if v == root else direction(pts[v], pts[parent[v]])
        kids.sort(key=lambda w: (ccw_angle_between(ref, direction(pts[v], pts[w])), w))
        for w in kids:
            parent[w] = v
            children[v].append(w)
            queue.append(w)
    if len(parent) != n:
        raise DisconnectedInput("unit disk graph is not connected")
    return RootedTree(root=root, parent=parent, children=children)
