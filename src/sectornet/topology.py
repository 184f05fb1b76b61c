"""Unit disk graph, connectivity, and a degree-5 Euclidean spanning tree.

The spanning tree is a Euclidean MST built with Prim plus a deterministic
tie-break; any degree-6 vertex (only possible under exact 60-degree ties) is
repaired by swapping one incident edge for an equal-length alternative, so
the tree keeps minimum total length with maximum degree five.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from .errors import DisconnectedInput, DuplicatePoint, TooFewPoints
from .geometry import EPS, Point, ccw_angle_between, direction

MAX_TREE_DEGREE = 5


@dataclass(frozen=True)
class Udg:
    """Unit disk graph: unordered id pairs at Euclidean distance <= 1."""

    n: int
    edges: FrozenSet[Tuple[int, int]]

    def adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


@dataclass(frozen=True)
class RootedTree:
    """Spanning tree with parent links; the root maps to itself.

    ``children`` lists each node's children sorted counterclockwise starting
    at the node's incoming-edge direction (angle 0 for the root), which keeps
    downstream group construction deterministic.
    """

    root: int
    parent: Dict[int, int]
    children: Dict[int, List[int]]

    @property
    def n(self) -> int:
        return len(self.parent)

    def nodes(self) -> List[int]:
        return sorted(self.parent)

    def degree(self, v: int) -> int:
        return len(self.children[v]) + (0 if v == self.root else 1)

    def edges(self) -> List[Tuple[int, int]]:
        return [(self.parent[v], v) for v in sorted(self.parent) if v != self.root]


def as_coords(points: Sequence[Point]) -> np.ndarray:
    """(n, 2) coordinates, also for n = 0."""
    return np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """n x n Euclidean distance matrix of an (n, 2) coordinate array."""
    d = coords[:, None, :] - coords[None, :, :]
    return np.hypot(d[..., 0], d[..., 1])


def check_point_ids(points: Sequence[Point]) -> None:
    ids = sorted(p.id for p in points)
    if ids != list(range(len(points))):
        raise ValueError("point ids must be distinct and contiguous from 0")
    for p in points:
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise ValueError(f"point {p.id} has non-finite coordinates")


def _distinct_points(points: Sequence[Point]) -> Tuple[List[Point], np.ndarray]:
    """Points sorted by id and their distance matrix.

    Raises ValueError on bad ids or coordinates, TooFewPoints on an empty
    input and DuplicatePoint when two points coincide within EPS.
    """
    check_point_ids(points)
    if len(points) < 1:
        raise TooFewPoints("need at least one point")
    pts = sorted(points, key=lambda p: p.id)
    dist = pairwise_distances(as_coords(pts))
    close = np.argwhere(np.triu(dist <= EPS, k=1))
    if len(close):
        i, j = close[0]
        raise DuplicatePoint(f"points {i} and {j} coincide within {EPS}")
    return pts, dist


def build_udg(points: Sequence[Point]) -> Udg:
    """Edges join id pairs within unit distance; duplicates are rejected."""
    pts, dist = _distinct_points(points)
    iu, ju = np.nonzero(np.triu(dist <= 1.0 + EPS, k=1))
    edges = frozenset((int(i), int(j)) for i, j in zip(iu, ju))
    return Udg(n=len(pts), edges=edges)


def is_connected(g: Udg) -> bool:
    """One connected component; a single point counts as connected."""
    if g.n <= 1:
        return True
    adj = g.adjacency()
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


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


def bounded_degree_mst(points: Sequence[Point]) -> RootedTree:
    """Euclidean MST with max degree 5, rooted at a highest point (ties: smallest id).

    This is where the constructions validate their input: raises ValueError
    on bad ids or coordinates, DuplicatePoint when two points coincide, and
    DisconnectedInput when the unit disk graph is not connected. Total edge
    length equals the unconstrained Euclidean MST length.
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


def _top_down(t: RootedTree) -> List[int]:
    """Nodes in breadth-first order from the root, each after its parent."""
    order = [t.root]
    i = 0
    while i < len(order):
        order.extend(t.children[order[i]])
        i += 1
    return order


def tree_heights(t: RootedTree) -> Dict[int, int]:
    """Height of every node: 0 at leaves, 1 + max over children otherwise."""
    heights = {v: 0 for v in t.parent}
    for v in reversed(_top_down(t)):
        if t.children[v]:
            heights[v] = 1 + max(heights[c] for c in t.children[v])
    return heights


def carve(t: RootedTree, k: int) -> Tuple[List[Tuple[int, List[int]]], List[int]]:
    """Cut the tree bottom-up into minimal subtrees of at least k nodes.

    The rule: repeatedly remove the deepest node (ties: smallest id) whose
    residual subtree has k or more nodes while each child's has fewer. A
    removal shrinks only the subtrees of the removed node's ancestors, so one
    post-order fold makes the same cuts: a node's residual subtree is the
    node followed by the residual subtrees of its uncut children, in
    ``children`` order, and the node is cut when that holds k or more nodes.

    Returns the cut nodes in removal order, which is (-depth, id) order, each
    with its residual subtree, and the nodes left uncut at the root.
    """
    order = _top_down(t)
    depth = {t.root: 0}
    for v in order[1:]:
        depth[v] = depth[t.parent[v]] + 1
    uncut: Dict[int, List[int]] = {}
    cuts: List[Tuple[int, List[int]]] = []
    for v in reversed(order):
        sub = [v]
        for c in t.children[v]:
            sub.extend(uncut.pop(c, ()))
        if len(sub) >= k:
            cuts.append((v, sub))
        else:
            uncut[v] = sub
    cuts.sort(key=lambda cut: (-depth[cut[0]], cut[0]))
    return cuts, uncut.get(t.root, [])
