"""Ground truth for constructions: communication graphs, strong connectivity,
group certificates, minimum strong radius, plane coverage, and brute-force
feasibility.

One closed-wedge rule, ``_wedge_rule``, decides every coverage question. It
treats points as complex numbers, turns each difference by e^(-i theta) and
compares the one arctan2 of the result, which lies in [-pi, pi], with
alpha/2 + EPS. The communication graph has an edge a -> b exactly when b lies
in a's wedge. ``build_comm_graph`` finds it one of two ways. On inputs whose
pairs spread out it lists the pairs within the radius from the grid of
``topology.grid_pairs`` and keeps their wedge edges, so ``CommGraph`` holds
edge arrays and no n x n array is built; dense inputs and small ones get the
boolean n x n matrix, filled _BLOCK apex rows at a time so that no n x n
float or complex temporary exists. A graph is strongly connected when node 0
reaches every node forwards and backwards. One depth-first reach over
compressed sparse rows (``_edges_strongly_connected``) decides every
edge-list graph; the bitmask reach ``_reach``, one Python int of
out-neighbours per node, serves only the matrix form, the brute force and
the four-point masks. ``component_labels`` (Kosaraju) runs on the sparse
rows of either form. The constructions' one self-check is
``certify_groups``: both proofs use only pairs of nodes in groups at most
two edges apart in the group tree, and it tests only those. Its edges are
edges of the communication graph, so a strongly connected certificate
proves the whole graph strongly connected without building it. The minimum
strong radius comes from two bottleneck (minimax) reachability sweeps over
the wedge-restricted distances. On inputs whose pairs spread out, a probe at
R = 1, 2, 4, ... runs both sweeps on the pairs within R alone, found on the
same grid, and builds no n x n array; the first probe whose sweeps reach
every node gives the exact result. Dense inputs, small ones and those no
probe decides take the n x n weights, filled in row blocks as in
``build_comm_graph``. From _BAND_MIN_N points on the weights
are np.abs distances, within a relative _TOL of np.hypot; np.hypot then runs
only on the thin band of pairs around the fast level that can be the exact
level or the result (``_exact_band``), so the result is the float np.hypot
weights give. The certificate, the probes and the grid route of
``build_comm_graph`` get their edges from one builder, ``_wedge_edges``,
which tests both directions of a pair list measured once.

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
from .topology import as_coords, grid_pairs, point_set

# Below this many points one n x n matrix costs no more than the grid.
SPARSE_MIN_N = 32
# Apex rows per block where an n x n result is filled: a block's temporaries
# are O(_BLOCK * n).
_BLOCK = 64
# Fewest differences for which np.abs and its band check beat np.hypot.
_BAND_MIN = 128
# Fewest points for which the matrix route of min_strong_radius takes np.abs
# weights and an exact band rather than np.hypot weights.
_BAND_MIN_N = 32
# Relative band of the two np.abs users: np.abs of a complex difference is
# within _TOL of np.hypot (a test holds it to 4 ulp, about 9e-16).
_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Directed communication graph on point ids 0..n-1, with an edge a -> b
    iff b lies in a's wedge. It holds either the boolean n x n matrix
    ``matrix`` (``CommGraph(n, matrix)``) or the edges src[k] -> dst[k], each
    once in no set order (``CommGraph(n, src=..., dst=...)``); ``edges`` and
    ``out_edges`` are views that serve both forms."""

    n: int
    matrix: Optional[np.ndarray] = None
    src: Optional[np.ndarray] = None
    dst: Optional[np.ndarray] = None

    @functools.cached_property
    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Ids a and b of every edge a -> b."""
        if self.matrix is None:
            return self.src, self.dst
        return np.nonzero(self.matrix)

    @functools.cached_property
    def out_edges(self) -> Dict[int, FrozenSet[int]]:
        start, heads = _csr(self.n, *self.edges)
        return {v: frozenset(heads[start[v] : start[v + 1]]) for v in range(self.n)}


def _wedge_rule(d: np.ndarray, turn: np.ndarray, alpha: float | np.ndarray) -> np.ndarray:
    """Whether each direction d lies in its closed wedge, at any radius. d is
    the complex difference target - apex, turn = e^(-i theta) (``_turn``)
    turns the wedge's bisector theta to direction 0, and alpha is its
    aperture (one scalar, or one per apex); the three broadcast to the
    result's shape. d * turn has the angle off the bisector as its direction,
    and arctan2 gives that angle in [-pi, pi], so no fold is needed. A zero
    difference reads as direction 0."""
    w = d * turn
    np.copyto(w, turn, where=d == 0)
    off = np.arctan2(w.imag, w.real)
    return np.abs(off, out=off) <= 0.5 * alpha + EPS


def _id_arrays(
    points: Sequence[Point], assignment: OrientationAssignment
) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinates of the ``point_set`` of the points and the turns e^(-i theta)
    of their bisectors (``_wedge_rule``), in id order."""
    pts = point_set(points)
    try:
        theta = [assignment.theta[p.id] for p in pts]
    except KeyError:
        missing = [p.id for p in pts if p.id not in assignment.theta]
        raise MissingOrientation(f"no orientation for point ids {missing}") from None
    return pts.coords, _turn(theta)


def _turn(theta: Sequence[float]) -> np.ndarray:
    """e^(-i theta) for each bisector theta: a difference multiplied by it
    has its angle off the bisector as its direction."""
    return np.exp([t * -1j for t in theta])


def _complex(coords: np.ndarray) -> np.ndarray:
    """The (n, 2) C-contiguous coordinates as n complex numbers x + iy, a view."""
    return coords.view(complex)[:, 0]


def _wedge_edges(
    i: np.ndarray, j: np.ndarray, d: np.ndarray, coords: np.ndarray, turn: np.ndarray, alpha: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both directions of the pairs i[k], j[k] at distance d[k] that are wedge
    edges, as ids a -> b (b lies in a's wedge) with their distances: the edges
    i -> j first, then j -> i, each in pair order."""
    a, b = np.concatenate([i, j]), np.concatenate([j, i])
    z = _complex(coords)
    inside = _wedge_rule(z[b] - z[a], turn[a], alpha)
    return a[inside], b[inside], np.concatenate([d, d])[inside]


def _diagonal(coords: np.ndarray) -> float:
    """Length of the diagonal of the points' bounding box (n >= 1)."""
    return float(np.hypot(*(coords.max(axis=0) - coords.min(axis=0))))


def _grid_wedge_edges(
    coords: np.ndarray, turn: np.ndarray, alpha: float, reach: float, most: float
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The distance d of every pair within ``reach`` > 0, then the wedge edges
    a, b, dist among those pairs (``_wedge_edges``). The pairs come from
    ``grid_pairs`` on cells of the smallest power of two >= reach; None when
    that grid offers more than ``most`` candidates."""
    m, e = math.frexp(reach)  # reach = m * 2**e, 0.5 <= m < 1
    pairs = grid_pairs(coords, math.ldexp(1.0, e - (m == 0.5)), reach, most)
    if pairs is None:
        return None
    i, j, d = pairs
    return (d, *_wedge_edges(i, j, d, coords, turn, alpha))


def build_comm_graph(
    points: Sequence[Point],
    assignment: OrientationAssignment,
    r_override: Optional[float] = None,
) -> CommGraph:
    """Communication graph induced by the assignment's wedges: a -> b when b
    lies in a's wedge within r + EPS of a.

    ``r_override`` replaces the assignment's radius r when given. Inputs of
    SPARSE_MIN_N points or more with 0 < r + EPS below the bounding-box
    diagonal take the grid route: the graph holds the edges among the pairs
    of ``_grid_wedge_edges``, unless its grid offers more than half of the
    n(n-1)/2 pairs as candidates. Every other input, NaN and infinite radii
    among them, gets the n x n matrix. Both routes give the same edges.
    """
    r = assignment.guaranteed_radius if r_override is None else r_override
    coords, turn = _id_arrays(points, assignment)
    n = len(coords)
    reach = r + EPS
    if n >= SPARSE_MIN_N and 0 < reach < _diagonal(coords):
        found = _grid_wedge_edges(coords, turn, assignment.alpha, reach, most=n * (n - 1) / 4)
        if found is not None:
            _, a, b, _ = found
            return CommGraph(n, src=a, dst=b)
    z = _complex(coords)
    adj = np.empty((n, n), dtype=bool)
    for lo in range(0, n, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        d = z - z[rows, None]
        inside = _wedge_rule(d, turn[rows, None], assignment.alpha)
        np.logical_and(_within(d, reach), inside, out=adj[rows])
    adj.flat[:: n + 1] = False
    return CommGraph(n, adj)


def _abs(d: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """|d| for complex d by np.abs: several times faster than np.hypot, and
    within a relative _TOL of it. The bands of ``_within`` and of the matrix
    route of ``min_strong_radius`` rely on that bound alone."""
    return np.abs(d, out=out)


def _within(d: np.ndarray, reach: float) -> np.ndarray:
    """|d| <= reach for complex d, exactly as np.hypot decides it: ``_abs``
    decides every d outside the band within a relative _TOL of reach, and
    np.hypot the band. Below _BAND_MIN entries np.hypot alone costs less than
    that check."""
    if d.size < _BAND_MIN:
        return np.hypot(d.real, d.imag) <= reach
    tol = _TOL * abs(reach)
    near = _abs(d)
    within = near <= reach + tol
    inner = near <= reach - tol
    if np.count_nonzero(within) != np.count_nonzero(inner):
        band = within != inner
        within[band] = np.hypot(d.real[band], d.imag[band]) <= reach
    return within


def _row_masks(adj: np.ndarray) -> List[int]:
    """Row i of a boolean matrix as an int with bit j set iff adj[i, j]."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[k * width : (k + 1) * width], "little") for k in range(len(packed))]


def _reach(masks: Sequence[int], start: int) -> int:
    """Bitmask of the nodes reachable from ``start``; masks[v] is v's
    out-neighbours."""
    reach = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~reach
        reach |= frontier
    return reach


def _masks_strongly_connected(masks: Sequence[int], n: int) -> bool:
    """Every node reaches every node."""
    full = (1 << n) - 1
    return all(_reach(masks, s) == full for s in range(n))


def _csr(n: int, src: np.ndarray, *columns: np.ndarray) -> Tuple[List[int], ...]:
    """Compressed sparse rows of the edges out of src[k] among nodes 0..n-1:
    ``start``, then each of ``columns`` in source order, as lists. The row
    of v spans [start[v], start[v + 1])."""
    order = np.argsort(src)
    start = [0] + np.bincount(src, minlength=n).cumsum().tolist()
    return (start, *(c[order].tolist() for c in columns))


def _flood(start: List[int], heads: List[int], s: int, label: List[int], mark: int) -> int:
    """Labels ``mark`` on s and on every node that s reaches through nodes
    labelled -1 over the sparse rows ``start``, ``heads``; returns how many
    nodes it labelled."""
    label[s] = mark
    stack = [s]
    count = 1
    while stack:
        v = stack.pop()
        for w in heads[start[v] : start[v + 1]]:
            if label[w] < 0:
                label[w] = mark
                count += 1
                stack.append(w)
    return count


def _edges_strongly_connected(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """Node 0 reaches every node and every node reaches node 0 over the edges
    src[k] -> dst[k] among nodes 0..n-1: one depth-first reach over
    compressed sparse rows each way. The one reach of every edge-list graph."""
    if n <= 1:
        return True
    return all(_flood(*_csr(n, a, b), 0, [-1] * n, 0) == n for a, b in ((src, dst), (dst, src)))


def strongly_connected(g: CommGraph) -> bool:
    """Node 0 reaches every node and every node reaches node 0: one bitmask
    reach each way on a matrix, ``_edges_strongly_connected`` on edges."""
    n = g.n
    if g.matrix is None or n <= 1:
        return _edges_strongly_connected(n, *g.edges)
    full = (1 << n) - 1
    return _reach(_row_masks(g.matrix), 0) == full and _reach(_row_masks(g.matrix.T), 0) == full


def component_labels(g: CommGraph) -> List[int]:
    """Each node's strongly connected component, numbered 0, 1, ... as found
    (Kosaraju over compressed sparse rows). A depth-first pass over the
    out-edges orders the nodes by finishing time; then each node still
    unlabelled, latest finisher first, labels its component: the unlabelled
    nodes that reach it."""
    n = g.n
    src, dst = g.edges
    start, heads = _csr(n, src, dst)
    seen = [False] * n
    order: List[int] = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        # each entry holds a node and the iterator over its row's untried edges
        stack = [(s, iter(heads[start[s] : start[s + 1]]))]
        while stack:
            v, row = stack[-1]
            for w in row:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(heads[start[w] : start[w + 1]])))
                    break
            else:
                order.append(v)
                stack.pop()
    label = [-1] * n
    start, tails = _csr(n, dst, src)
    found = 0
    for v in reversed(order):
        if label[v] < 0:
            _flood(start, tails, v, label, found)
            found += 1
    return label


def is_strongly_connected_at(
    points: Sequence[Point], assignment: OrientationAssignment, r: float
) -> bool:
    """Strong-connectivity decision at an explicit radius."""
    return strongly_connected(build_comm_graph(points, assignment, r_override=r))


Groups = Sequence[Tuple[Sequence[int], Optional[int]]]


def _group_pairs(n: int, groups: Groups) -> Tuple[np.ndarray, np.ndarray]:
    """Ids i[k], j[k] of every pair of nodes in groups at most two edges apart
    in the group tree, each pair once (``_certificate_edges``)."""
    group_of = [0] * n
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
    return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)


def _certificate_edges(
    points: Sequence[Point], assignment: OrientationAssignment, groups: Groups
) -> Tuple[np.ndarray, np.ndarray]:
    """The edges a -> b of ``build_comm_graph(points, assignment)`` whose ends
    lie in groups at most two edges apart in the group tree, as id arrays.

    ``groups`` gives each group's member ids and the id of the node it hangs
    from (None at the top); a group's parent in the group tree is the group
    holding that node. Each group is paired once with itself, its parent, its
    grandparent and its earlier siblings, which covers every pair of groups
    at most two edges apart exactly once. Each pair is measured once, and
    only those within the radius go to the wedge rule.
    """
    coords, turn = _id_arrays(points, assignment)
    i, j = _group_pairs(len(coords), groups)
    z = _complex(coords)
    d = z[j] - z[i]
    d = np.hypot(d.real, d.imag)
    keep = d <= assignment.guaranteed_radius + EPS
    i, j, d = i[keep], j[keep], d[keep]
    return _wedge_edges(i, j, d, coords, turn, assignment.alpha)[:2]


def certify_groups(
    points: Sequence[Point], assignment: OrientationAssignment, groups: Groups
) -> bool:
    """True when the edges of ``_certificate_edges`` alone connect the points
    strongly (``_edges_strongly_connected``). They are edges of the
    communication graph at the assignment's radius, so True proves that graph
    strongly connected. Both constructions' proofs use only such pairs, within
    two group edges, so on their outputs False means the proof failed."""
    return _edges_strongly_connected(len(points), *_certificate_edges(points, assignment, groups))


def check_construction(
    points: Sequence[Point], assignment: OrientationAssignment, groups: Groups, failure: str
) -> OrientationAssignment:
    """The self-check every construction exits through: returns the assignment
    when ``certify_groups`` proves it, else raises
    ConstructionInvariantViolated(failure). No other check decides."""
    if not certify_groups(points, assignment, groups):
        raise ConstructionInvariantViolated(failure)
    return assignment


def _bottleneck_level(w: np.ndarray) -> float:
    """Smallest t at which the edges a -> b with w[a, b] <= t reach every node
    from node 0 (inf if none does). The reached set grows by its cheapest
    outgoing weight, taking every node at or below the level in one batch."""
    reached = np.zeros(len(w), dtype=bool)
    reached[0] = True
    best = w[0].copy()
    best[0] = np.inf
    level = 0.0
    left = len(w) - 1
    while left:
        level = max(level, float(best.min()))
        if level == np.inf:
            break
        new = best <= level
        left -= np.count_nonzero(new)
        reached |= new
        np.minimum(best, w[new].min(axis=0), out=best)
        best[reached] = np.inf
    return level


def _csr_bottleneck_level(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> float:
    """``_bottleneck_level`` of the edges src[k] -> dst[k] of weight w[k] among
    nodes 0..n-1. The edges sit in compressed sparse rows, and the reached
    set grows one node at a time, cheapest edge first: the largest weight it
    takes is the same level."""
    start, dst, w = _csr(n, src, dst, w)
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


def _edges_bottleneck_level(n: int, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """The larger of the two bottleneck levels over the edges a[k] -> b[k] of
    weight w[k]; inf when either sweep misses a node."""
    if not (np.bincount(a, minlength=n).all() and np.bincount(b, minlength=n).all()):
        return math.inf
    level = _csr_bottleneck_level(n, a, b, w)
    if level == math.inf:
        return level
    return max(level, _csr_bottleneck_level(n, b, a, w))


def _sweeps(w: np.ndarray) -> float:
    """The larger bottleneck level from node 0 on w and on w transposed: the
    smallest t at which the edges of weight <= t connect the nodes strongly."""
    return max(_bottleneck_level(w), _bottleneck_level(w.T))


def _fast_weights(z: np.ndarray, turn: np.ndarray, alpha: float) -> np.ndarray:
    """W[a, b] = ``_abs`` of z[b] - z[a] when b is in a's wedge, inf elsewhere
    and on the diagonal, filled _BLOCK apex rows at a time."""
    n = len(z)
    w = np.empty((n, n))
    for lo in range(0, n, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        d = z - z[rows, None]
        block = _abs(d, out=w[rows])
        block[~_wedge_rule(d, turn[rows, None], alpha)] = np.inf
    np.fill_diagonal(w, np.inf)
    return w


def _exact_band(z: np.ndarray, w: np.ndarray, b: float) -> Tuple[float, np.ndarray]:
    """The exact level B and the np.hypot distances of the pairs that can be
    the result, from the level b of the fast weights w (``_fast_weights``).

    Each fast distance lies within a relative _TOL of its np.hypot distance.
    So b lies within _TOL B of B; B is the exact distance of a wedge edge
    whose fast weight lies within 3 _TOL b of b; and the result, a distance
    in [B - EPS, B], has a fast distance of at least
    (b - EPS)(1 - _TOL) - _TOL b. The band is the pairs whose fast distance
    lies between that and b(1 + 3 _TOL), found _BLOCK rows at a time. If its
    wedge edges share one exact distance, that is B. Otherwise both sweeps
    run again on w with those edges set to their exact distances: every
    weight outside the band lies on the same side of B as its exact
    distance, so the threshold graphs near B are the exact ones and the
    rerun's level is B."""
    lo, hi = (b - EPS) * (1 - _TOL) - _TOL * b, b * (1 + 3 * _TOL)
    n = len(z)
    pairs = []
    for top in range(0, n, _BLOCK):
        near = _abs(z - z[top : top + _BLOCK, None])
        i, j = np.nonzero((near >= lo) & (near <= hi))
        pairs.append((i + top, j))
    i, j = (np.concatenate(c) for c in zip(*pairs))
    off = i != j
    i, j = i[off], j[off]
    d = z[j] - z[i]
    dist = np.hypot(d.real, d.imag)
    edge = w[i, j] < np.inf
    level = dist[edge]
    if level.min() == level.max():
        return float(level[0]), dist
    w[i[edge], j[edge]] = level
    return _sweeps(w), dist


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
    pairs within R come from ``_grid_wedge_edges`` on cells R wide, and both
    sweeps run on their wedge edges alone. When both reach every node, B <= R,
    and every edge up to B and every distance in [B - EPS, B] is among those
    pairs, so B and c are exact. A probe whose grid offers more than a quarter
    of the n(n-1)/2 pairs as candidates, or whose R covers the bounding box,
    hands over to the n x n matrix; so does a smaller input, and the matrix is
    also what finds None. From _BAND_MIN_N points on, the matrix holds the
    ``_fast_weights`` alone, and np.hypot runs only on the few pairs of
    ``_exact_band``; smaller matrices take np.hypot distances throughout.
    """
    coords, turn = _id_arrays(points, assignment)
    n = len(coords)
    if n <= 1:
        return 0.0
    if n >= SPARSE_MIN_N:
        span = _diagonal(coords)
        r = 1.0
        while r < span:
            found = _grid_wedge_edges(coords, turn, assignment.alpha, r, most=n * (n - 1) / 8)
            if found is None:
                break
            d, a, b, w = found
            level = _edges_bottleneck_level(n, a, b, w)
            if level < math.inf:
                return float(d[d + EPS >= level].min())
            r *= 2.0
    z = _complex(coords)
    if n < _BAND_MIN_N:
        d = z - z[:, None]
        dist = np.hypot(d.real, d.imag)
        np.fill_diagonal(dist, np.inf)
        level = _sweeps(np.where(_wedge_rule(d, turn[:, None], assignment.alpha), dist, np.inf))
    else:
        w = _fast_weights(z, turn, assignment.alpha)
        level = _sweeps(w)
        if level < np.inf:
            level, dist = _exact_band(z, w, level)
    if level == np.inf:
        return None
    return float(dist.min(where=dist + EPS >= level, initial=np.inf))


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

    apex = _complex(as_coords([w.apex for w in wedges]))
    d = _complex(np.asarray(candidates)) - apex[:, None]
    turn = _turn([w.theta for w in wedges])[:, None]
    inside = _wedge_rule(d, turn, np.array([[w.alpha] for w in wedges]))
    return bool((inside | (d == 0)).any(axis=0).all())


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
    z = _complex(as_coords(points))
    d = z - z[i]
    covered = _wedge_rule(d, _turn(thetas)[:, None], alpha)
    covered &= np.hypot(d.real, d.imag) <= r + EPS
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
