"""Input rule, unit disk graph, connectivity, and a degree-5 Euclidean spanning tree.

``point_set`` is the input rule of every entry that takes a point set (ids
exactly 0..n-1, finite coordinates). The graph layers read one list: the pairs
within unit distance, sorted by (distance, smaller id, larger id). That strict
order makes the MST unique; Boruvka rounds over growing chunks of the list find
it, each chunk rid of its pairs inside one component, and stop once it spans,
so a dense input runs its rounds over few pairs. Any degree-6 vertex (only
possible under exact 60-degree ties) is repaired by swapping one incident edge
for an equal-length pair, so the tree keeps minimum total length with maximum
degree five. The grid that finds the pairs, ``grid_pairs``, takes any
power-of-two cell, also one smaller than the reach: the unit pairs come from
half-unit cells, which offer fewer candidates on dense inputs, and the
verifier's radius probes take cells no smaller than their radius.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DisconnectedInput, DuplicatePoint, TooFewPoints
from .geometry import EPS, Point, ccw_angle_between, direction

MAX_TREE_DEGREE = 5
Pairs = Tuple[np.ndarray, np.ndarray, np.ndarray]
# Pairs per point in the first chunk of ``_spanning_forest``.
_FIRST_CHUNK = 8


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


class PointSet(tuple):
    """Points sorted by id, the ids exactly 0..n-1, and ``coords``, their (n, 2)
    coordinates as a read-only array; made by ``point_set``."""


def point_set(points: Sequence[Point]) -> PointSet:
    """The points as one ``PointSet`` (which passes as it is); ValueError unless
    the ids run exactly 0..n-1 and every coordinate is finite."""
    if isinstance(points, PointSet):
        return points
    pts = PointSet(sorted(points, key=lambda p: p.id))
    if [p.id for p in pts] != list(range(len(pts))):
        raise ValueError("point ids must be distinct and contiguous from 0")
    pts.coords = as_coords(pts)
    pts.coords.flags.writeable = False
    if not np.isfinite(pts.coords).all():
        bad = ~np.isfinite(pts.coords).all(axis=1)
        raise ValueError(f"point {bad.argmax()} has non-finite coordinates")
    return pts


def grid_pairs(
    coords: np.ndarray, cell: float, reach: float, most: float = math.inf
) -> Optional[Pairs]:
    """Ids a and b and distance d of every pair within ``reach``, each pair once
    in no set order; None when the grid offers more than ``most`` candidates.

    Grid cells are ``cell`` wide, a power of two, so scaling and flooring is
    exact at any offset and such a pair lies at most m = ceil(reach / cell)
    columns and rows apart; the coordinates must be finite. A cell's
    coordinate pair viewed as complex sorts by column, then row; clipping to
    2**52 keeps the +-m steps exact and only adds candidates. In that order a
    point meets m + 1 runs: the later points of its own column up to m rows
    above, then each of the m columns to its right from m rows below to m
    rows above. With a cell no smaller than the reach, m = 1: the point's
    cell and the one above, and the three cells to its right.
    """
    n = len(coords)
    m = math.ceil(reach / cell)
    key = np.minimum(np.maximum(np.floor(coords * (1.0 / cell)), -(2.0**52)), 2.0**52)
    key = key.view(complex)[:, 0]
    order = np.argsort(key)
    key = key[order]
    # Rows are integers, so a run through row r ends where row r + 1 begins
    # and one left-side search finds every start and end; each of its 2(m + 1)
    # rows of queries is sorted, which the search runs faster on.
    step = np.arange(m + 1.0) + np.array([[-m * 1j], [(m + 1) * 1j]])
    lo, hi = np.searchsorted(key, key + step[..., None]).transpose(0, 2, 1)
    lo[:, 0] = np.arange(1, n + 1)
    count = (hi - lo).ravel()
    total = int(count.sum())
    if total > most:
        return None
    x, y = coords[order].T
    a = np.arange(n).repeat(m + 1).repeat(count)
    b = np.arange(total) + (lo.ravel() - count.cumsum() + count).repeat(count)
    dx, dy = x[a] - x[b], y[a] - y[b]
    # a cheap superset: the relative slack covers the rounding of both forms
    near = (dx * dx + dy * dy <= reach * reach * (1.0 + 1e-12)).nonzero()[0]
    d = np.hypot(dx[near], dy[near])
    within = d <= reach
    near = near[within]
    return order[a[near]], order[b[near]], d[within]


def _udg_pairs(coords: np.ndarray) -> Pairs:
    """Ids i < j and distance d of every pair within 1 + EPS, sorted by (d, i, j)."""
    n = len(coords)
    a, b, d = grid_pairs(coords, 0.5, 1.0 + EPS)
    i, j = np.minimum(a, b), np.maximum(a, b)
    ranked = d.argsort()
    ds = d[ranked]
    if (ds[1:] == ds[:-1]).any():  # tied distances: rank by (d, i, j)
        ranked = np.argsort(d + (i * n + j) * 1j)  # exact while n * n < 2**53
    return i[ranked], j[ranked], ds


def _distinct_points(points: Sequence[Point]) -> Tuple[PointSet, Pairs]:
    """``point_set`` of the points and its ``_udg_pairs``; TooFewPoints when
    empty, DuplicatePoint when two points coincide within EPS."""
    pts = point_set(points)
    if len(pts) < 1:
        raise TooFewPoints("need at least one point")
    i, j, d = pairs = _udg_pairs(pts.coords)
    close = int(np.searchsorted(d, EPS, "right"))
    if close:
        a, b = min(zip(i[:close].tolist(), j[:close].tolist()))
        raise DuplicatePoint(f"points {a} and {b} coincide within {EPS}")
    return pts, pairs


def build_udg(points: Sequence[Point]) -> Udg:
    """Edges join id pairs within unit distance; duplicates are rejected."""
    pts, (i, j, _) = _distinct_points(points)
    return Udg(n=len(pts), edges=frozenset(zip(i.tolist(), j.tolist())))


def is_connected(g: Udg) -> bool:
    """One connected component; a single point counts as connected."""
    i, j = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T
    return len(_spanning_forest(g.n, i, j)) >= g.n - 1


def _spanning_forest(n: int, i: np.ndarray, j: np.ndarray) -> List[Tuple[int, int]]:
    """Minimum spanning forest of the pairs (i[k], j[k]), pair k ranked k-th.

    The pairs are read in chunks of rank order, the first of ``_FIRST_CHUNK``
    pairs per point and each later one four times larger, until the forest
    spans. A chunk is relabelled by the components found so far, its pairs
    inside one component are dropped, and Boruvka rounds join the components
    across the rest: every component hooks onto the component across its
    first outgoing pair. Under a strict order those pairs belong to the one
    minimum forest, and two components hook onto each other only through one
    pair. The result is exact because Kruskal's choices on a prefix of the
    order depend on that prefix alone, and a sparse input reads one chunk.
    """
    comp = ids = np.arange(n)
    forest: List[Tuple[int, int]] = []
    start, size = 0, _FIRST_CHUNK * n
    while len(forest) < n - 1 and start < len(i):
        pi, pj = ci, cj = i[start : start + size], j[start : start + size]
        start, size = start + size, 4 * size
        while True:
            if forest:  # else comp is still the identity and no pair lies inside one
                ci, cj = comp[pi], comp[pj]
                between = ci != cj
                pi, pj, ci, cj = pi[between], pj[between], ci[between], cj[between]
            if len(forest) == n - 1 or not len(pi):
                break
            first = np.full(n, len(pi))
            rank = np.arange(len(pi))
            np.minimum.at(first, ci, rank)
            np.minimum.at(first, cj, rank)
            c = (first < len(pi)).nonzero()[0]
            k = first[c]
            hook = ids.copy()
            hook[c] = ci[k] + cj[k] - c
            mutual = (hook[hook] == ids) & (ids < hook)
            hook[mutual] = ids[mutual]
            k = k[hook[c] != c]  # a mutual pair once, from its larger side
            forest.extend(zip(pi[k].tolist(), pj[k].tolist()))
            while (hook[hook] != hook).any():
                hook = hook[hook]
            comp = hook[comp]
    return forest


def _split_component(adj: Dict[int, set], block_a: int, block_b: int) -> set:
    """Nodes reachable from block_b when edge (block_a, block_b) is removed."""
    seen = {block_a, block_b}  # in a tree, block_a is reachable only over that edge
    queue = deque([block_b])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen - {block_a}


def _repair_degree(adj: Dict[int, set], pairs: Pairs) -> None:
    """Swap equal-length edges until no vertex exceeds degree 5.

    A degree-6 MST vertex forces six equidistant neighbors at exact 60-degree
    spacing, so an equal-length rim replacement always exists among the unit
    disk pairs.
    """
    if all(len(nbrs) <= MAX_TREE_DEGREE for nbrs in adj.values()):
        return
    dist: Dict[int, Dict[int, float]] = {v: {} for v in adj}
    for a, b, d in zip(*(part.tolist() for part in pairs)):
        dist[a][b] = dist[b][a] = d
    while True:
        v = min((v for v in adj if len(adj[v]) > MAX_TREE_DEGREE), default=None)
        if v is None:
            return
        for u in sorted(adj[v], key=lambda u: (dist[v][u], u)):
            comp_u = _split_component(adj, v, u)
            limit = dist[v][u] + 1e-12
            cands = [
                (d, min(x, y), max(x, y), x, y)
                for x in sorted(comp_u)
                for y, d in dist[x].items()
                if y not in comp_u
                and y != v
                and d <= limit
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
            break
        else:
            raise AssertionError(f"cannot repair degree-{len(adj[v])} vertex {v}")


def bounded_degree_mst(points: Sequence[Point]) -> RootedTree:
    """Euclidean MST with max degree 5, rooted at a highest point (ties: smallest id).

    Raises ValueError where ``point_set`` does, DuplicatePoint when two points
    coincide, and DisconnectedInput when the unit disk graph is not connected.
    Total edge length equals the unconstrained Euclidean MST length.
    """
    pts, pairs = _distinct_points(points)
    n = len(pts)
    forest = _spanning_forest(n, pairs[0], pairs[1])
    if len(forest) < n - 1:
        raise DisconnectedInput("unit disk graph is not connected")

    adj: Dict[int, set] = {i: set() for i in range(n)}
    for a, b in forest:
        adj[a].add(b)
        adj[b].add(a)
    _repair_degree(adj, pairs)

    root = int(pts.coords[:, 1].argmax())  # the first highest: the smallest id
    parent = {root: root}
    children: Dict[int, List[int]] = {i: [] for i in range(n)}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        kids = [w for w in adj[v] if w not in parent]
        if len(kids) > 1:
            ref = 0.0 if v == root else direction(pts[v], pts[parent[v]])
            kids.sort(key=lambda w: (ccw_angle_between(ref, direction(pts[v], pts[w])), w))
        for w in kids:
            parent[w] = v
            children[v].append(w)
            queue.append(w)
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
