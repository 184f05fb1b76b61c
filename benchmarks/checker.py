"""Independent output checker: imports nothing from ``sectornet``.

It follows the library's documented semantics: an antenna at ``a`` with
bisector ``theta``, aperture ``alpha`` and radius ``r`` is a closed wedge, and
``a -> b`` is an edge when ``|ab| <= r + TOL`` and the angle between the
direction ``a -> b`` and ``theta`` is at most ``alpha / 2 + TOL``. The
tolerance is needed: the constructions align wedge boundaries with point
directions, so a rule without it rejects correct output by one rounding
step (see ``test_checker.py``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

TOL = 1e-9
TAU = 2.0 * math.pi
RADIUS_180 = 1.0 + math.sqrt(3.0)
RADIUS_90 = 7.0
RADIUS_90_SMALL = 2.0


def distances(xy: np.ndarray) -> np.ndarray:
    d = xy[None, :, :] - xy[:, None, :]
    return np.hypot(d[..., 0], d[..., 1])


def adjacency(
    xy: np.ndarray, theta: np.ndarray, alpha: float, r: float, tol: float = TOL
) -> np.ndarray:
    """``adj[a, b]`` is True when b lies in a's closed wedge of radius r."""
    dx = xy[None, :, 0] - xy[:, None, 0]
    dy = xy[None, :, 1] - xy[:, None, 1]
    off = np.arctan2(dy, dx) - theta[:, None]
    gap = np.abs(np.arctan2(np.sin(off), np.cos(off)))
    adj = (np.hypot(dx, dy) <= r + tol) & (gap <= 0.5 * alpha + tol)
    np.fill_diagonal(adj, False)
    return adj


def _reach_all(adj: np.ndarray) -> bool:
    """Every node reachable from node 0 (iterative depth-first search)."""
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    todo = [0]
    while todo:
        new = np.flatnonzero(adj[todo.pop()] & ~seen)
        seen[new] = True
        todo.extend(new.tolist())
    return bool(seen.all())


def is_strong(adj: np.ndarray) -> bool:
    """Strongly connected: node 0 reaches everything and everything reaches node 0."""
    if adj.shape[0] <= 1:
        return True
    return _reach_all(adj) and _reach_all(adj.T)


def mst_edges(xy: np.ndarray) -> np.ndarray:
    """Lengths of the edges of a Euclidean minimum spanning tree (dense Prim)."""
    n = xy.shape[0]
    dist = distances(xy)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    lengths = []
    for _ in range(n - 1):
        j = int(np.argmin(np.where(in_tree, np.inf, best)))
        lengths.append(best[j])
        in_tree[j] = True
        np.minimum(best, dist[j], out=best)
    return np.array(lengths)


def guaranteed_radius(alpha_deg: int, n: int) -> float:
    if alpha_deg == 180:
        return RADIUS_180
    return RADIUS_90_SMALL if n <= 3 else RADIUS_90


def check_orientation(
    xy: np.ndarray,
    alpha_deg: int,
    theta: dict,
    alpha: float,
    radius: float,
    r_star: Optional[float],
    verdict: bool,
) -> List[str]:
    """Problems with one orientation and what the library said about it.

    ``theta`` maps ids to bisectors, ``alpha`` and ``radius`` are the
    assignment's aperture and guaranteed radius, ``r_star`` is the library's
    minimum strong radius, and ``verdict`` is the library's strong
    connectivity verdict at ``radius``. An empty list means correct.
    """
    n = xy.shape[0]
    problems: List[str] = []
    if sorted(theta) != list(range(n)):
        return [f"ids {sorted(set(range(n)) ^ set(theta))[:5]} lack or add an angle"]
    th = np.array([theta[i] for i in range(n)], dtype=float)
    if not np.all((th >= 0.0) & (th < TAU)):
        problems.append("an angle lies outside [0, 2*pi)")
    if abs(alpha - math.radians(alpha_deg)) > 1e-12:
        problems.append(f"aperture {alpha!r} is not {alpha_deg} degrees")
    want = guaranteed_radius(alpha_deg, n)
    if radius != want:
        problems.append(f"guaranteed radius {radius!r}, expected {want!r}")
    strong = is_strong(adjacency(xy, th, alpha, want))
    if not strong:
        problems.append(f"not strongly connected at the guaranteed radius {want!r}")
    if verdict != strong:
        problems.append(f"library verdict {verdict} disagrees with the checker's {strong}")
    if r_star is None:
        problems.append("library found no strong radius")
        return problems
    dist = distances(xy)
    iu = np.triu_indices(n, k=1)
    if np.min(np.abs(dist[iu] - r_star)) > TOL:
        problems.append(f"r* = {r_star!r} is no pairwise distance")
    if r_star > want + TOL:
        problems.append(f"r* = {r_star!r} exceeds the guaranteed radius {want!r}")
    if not is_strong(adjacency(xy, th, alpha, r_star)):
        problems.append(f"not strongly connected at r* = {r_star!r}")
    if is_strong(adjacency(xy, th, alpha, r_star - 1e-6)):
        problems.append(f"already strongly connected at r* - 1e-6 = {r_star - 1e-6!r}")
    if n > 1 and r_star < float(mst_edges(xy).max()) - TOL:
        problems.append(f"r* = {r_star!r} is below the bottleneck MST edge")
    return problems


def check_spanning_tree(xy: np.ndarray, edges: Sequence[tuple]) -> List[str]:
    """Problems with a degree-5 spanning tree given as (parent, child) pairs:
    it must span with n - 1 edges, keep every degree at most 5, and have the
    Euclidean MST's total length within 1e-9 relative."""
    n = xy.shape[0]
    problems: List[str] = []
    if len(edges) != n - 1:
        problems.append(f"{len(edges)} edges for {n} points")
    degree = np.zeros(n, dtype=int)
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
        root[find(a)] = find(b)
    if n and len({find(i) for i in range(n)}) != 1:
        problems.append("tree does not span the points")
    if n and degree.max() > 5:
        problems.append(f"maximum degree {degree.max()}")
    if n > 1:
        e = np.array(edges)
        length = float(np.hypot(*(xy[e[:, 0]] - xy[e[:, 1]]).T).sum())
        best = float(mst_edges(xy).sum())
        if abs(length - best) > 1e-9 * best:
            problems.append(f"tree length {length!r}, MST length {best!r}")
    return problems


def check_partition(n: int, parts: Sequence[Sequence[int]]) -> List[str]:
    """Problems unless ``parts`` are disjoint and cover ids 0..n-1."""
    flat = [i for part in parts for i in part]
    if len(flat) != len(set(flat)):
        return ["groups overlap"]
    if set(flat) != set(range(n)):
        return ["groups miss points"]
    return []
