"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths wherever they check
one: plain Prim on the complete distance matrix, exhaustive spanning-tree
enumeration via Pruefer sequences, n x BFS reachability, and random-sampling
coverage probes. Five are reference implementations kept for differential
tests: the binary search for the minimum strong radius, the quadratic
random-UDG generator, the two quadratic tree groupings that walk the whole
residual tree again after every removal, and the per-point coverage-mask
loop over ``math.hypot`` and ``angle_diff``.
"""

from __future__ import annotations

import bisect
import math
import random
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from sectornet.geometry import EPS, Point, angle_diff
from sectornet.orient180 import Group180
from sectornet.orient90 import Group90, choose_representatives
from sectornet.orientation import OrientationAssignment
from sectornet.topology import RootedTree, build_udg, is_connected
from sectornet.verifier import is_strongly_connected_at


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


def binary_search_min_strong_radius(
    points: Sequence[Point], assignment: OrientationAssignment
) -> Optional[float]:
    """Smallest pairwise distance r with ``is_strongly_connected_at(r)``, by
    binary search over the sorted distinct distances (the predicate is
    monotone in r); None when even the largest distance fails."""
    pts = sorted(points, key=lambda p: p.id)
    n = len(pts)
    if n <= 1:
        return 0.0
    coords = np.array([(p.x, p.y) for p in pts], dtype=float)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    iu, ju = np.triu_indices(n, k=1)
    cands = np.unique(dist[iu, ju])

    def ok(r: float) -> bool:
        return is_strongly_connected_at(pts, assignment, r)

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
