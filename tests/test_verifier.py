import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_masks_feasible,
    bfs_strongly_connected,
    binary_search_min_strong_radius,
    comm_matrix,
    exact_min_radius,
    hypot_min_strong_radius,
    mutual_reach_components,
    sampled_uncovered_point,
    strong_components,
)
from sectornet import verifier
from sectornet.errors import MissingOrientation, TooManyPoints
from sectornet.fileio import read_points
from sectornet.geometry import EPS, Point, Wedge
from sectornet.instances import collinear_witness, random_connected_udg
from sectornet.orient180 import orient_all_180, plan_groups_180
from sectornet.orient90 import orient_all_90, orient_small
from sectornet.orientation import OrientationAssignment
from sectornet.topology import bounded_degree_mst, build_udg
from sectornet.verifier import (
    BRUTE_FORCE_MAX,
    CommGraph,
    _masks_strongly_connected,
    _row_masks,
    build_comm_graph,
    certify_groups,
    check_construction,
    covers_plane,
    feasible_by_bruteforce,
    is_strongly_connected_at,
    min_strong_radius,
    strongly_connected,
)
from test_topology import OFFSETS, jittered_lattice
from test_wedge_rule import APERTURES, point_sets

PI = math.pi


def P(i, x, y):
    return Point(i, float(x), float(y))


def graph_from(edges, n):
    adj = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        adj[a, b] = True
    return CommGraph(n, adj)


class TestBuildCommGraph:
    def test_facing_pair(self):
        pts = [P(0, 0, 0), P(1, 1, 0)]
        a = OrientationAssignment(alpha=PI / 2, theta={0: 0.0, 1: PI}, guaranteed_radius=1.0)
        g = build_comm_graph(pts, a)
        assert g.out_edges == {0: frozenset({1}), 1: frozenset({0})}

    def test_same_direction_only_one_edge(self):
        pts = [P(0, 0, 0), P(1, 1, 0)]
        a = OrientationAssignment(alpha=PI / 2, theta={0: 0.0, 1: 0.0}, guaranteed_radius=2.0)
        g = build_comm_graph(pts, a)
        assert g.out_edges == {0: frozenset({1}), 1: frozenset()}

    def test_single_point(self):
        a = OrientationAssignment(alpha=PI, theta={0: 0.0}, guaranteed_radius=1.0)
        g = build_comm_graph([P(0, 0, 0)], a)
        assert g.n == 1 and g.out_edges == {0: frozenset()}

    def test_missing_orientation(self):
        a = OrientationAssignment(alpha=PI, theta={0: 0.0}, guaranteed_radius=1.0)
        with pytest.raises(MissingOrientation):
            build_comm_graph([P(0, 0, 0), P(1, 1, 0)], a)

    def test_edges_monotone_in_radius(self):
        rng = random.Random(2)
        pts = random_connected_udg(25, 7, 4.0)
        theta = {p.id: rng.uniform(0, 2 * PI) for p in pts}
        a = OrientationAssignment(alpha=PI / 2, theta=theta, guaranteed_radius=1.0)
        for _ in range(20):
            r1 = rng.uniform(0.1, 4)
            r2 = r1 + rng.uniform(0, 3)
            g1 = build_comm_graph(pts, a, r_override=r1)
            g2 = build_comm_graph(pts, a, r_override=r2)
            for v in g1.out_edges:
                assert g1.out_edges[v] <= g2.out_edges[v]


class TestAtMostOnePoint:
    """build_comm_graph, min_strong_radius and is_strongly_connected_at agree
    on n <= 1: every point needs a theta, and such a graph is strong."""

    @pytest.mark.parametrize("pts, theta", [([], {}), ([], {0: 1.0}), ([P(0, 3, 4)], {0: 1.0})])
    def test_oriented(self, pts, theta):
        a = OrientationAssignment(alpha=PI / 2, theta=theta, guaranteed_radius=1.0)
        assert build_comm_graph(pts, a).n == len(pts)
        assert min_strong_radius(pts, a) == 0.0
        assert is_strongly_connected_at(pts, a, 1.0)

    @pytest.mark.parametrize("theta", [{}, {1: 1.0}])
    def test_one_point_without_theta(self, theta):
        a = OrientationAssignment(alpha=PI / 2, theta=theta, guaranteed_radius=1.0)
        pts = [P(0, 3, 4)]
        with pytest.raises(MissingOrientation):
            build_comm_graph(pts, a)
        with pytest.raises(MissingOrientation):
            min_strong_radius(pts, a)
        with pytest.raises(MissingOrientation):
            is_strongly_connected_at(pts, a, 1.0)


class TestStronglyConnected:
    def test_two_cycle(self):
        assert strongly_connected(graph_from([(0, 1), (1, 0)], 2))

    def test_single_edge(self):
        assert not strongly_connected(graph_from([(0, 1)], 2))

    def test_three_cycle(self):
        assert strongly_connected(graph_from([(0, 1), (1, 2), (2, 0)], 3))

    def test_agrees_with_bfs_oracle(self):
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randint(2, 64)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and rng.random() < rng.choice([0.03, 0.1, 0.3])
            ]
            g = graph_from(edges, n)
            assert strongly_connected(g) == bfs_strongly_connected(n, g.out_edges)

    def test_scc_count(self):
        assert len(strong_components(graph_from([(0, 1), (1, 0), (2, 3)], 4))) == 3


def as_sets(masks):
    """Bitmasks of nodes as frozensets of node ids."""
    return [frozenset(v for v in range(m.bit_length()) if m >> v & 1) for m in masks]


class TestStrongComponents:
    """Kosaraju over compressed sparse rows against the mutual-reach oracle."""

    def test_partition_matches_oracle(self):
        rng = np.random.default_rng(20)
        for k in range(2600):
            n = k % 13
            density = (0.0, 1.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.3))[k // 13 % 4]
            adj = rng.random((n, n)) < density
            np.fill_diagonal(adj, False)
            g = CommGraph(n, adj)
            got = sorted(as_sets(strong_components(g)), key=min)
            assert got == mutual_reach_components(n, g.out_edges), adj
            # the same edges in another order, held as arrays
            src, dst = np.nonzero(adj)
            shuffled = np.random.default_rng(k).permutation(len(src))
            sparse = CommGraph(n, src=src[shuffled], dst=dst[shuffled])
            assert sorted(as_sets(strong_components(sparse)), key=min) == got

    def test_chain_is_all_singletons(self):
        n = 3000
        components = strong_components(graph_from([(v, v + 1) for v in range(n - 1)], n))
        assert sorted(components) == [1 << v for v in range(n)]

    def test_two_cycles_joined_one_way(self):
        g = graph_from([(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)], 4)
        assert sorted(strong_components(g)) == [0b0011, 0b1100]


def agree(adj):
    """The bitmask reach on the matrix and the sparse reach on its edges, each
    run both ways, against the component count and the per-start BFS oracle;
    returns the common verdict."""
    n = len(adj)
    g = CommGraph(n, adj)
    src, dst = np.nonzero(adj)
    sparse = CommGraph(n, src=src, dst=dst)
    verdict = strongly_connected(g)
    assert strongly_connected(sparse) == verdict
    # the empty graph has no component at all
    assert verdict == (len(strong_components(g)) <= 1)
    assert verdict == bfs_strongly_connected(n, g.out_edges)
    assert sparse.out_edges == g.out_edges
    assert verdict == _masks_strongly_connected(_row_masks(adj), n)
    return verdict


class TestReachMatchesReferences:
    """n on either side of the byte (8) and word (64) boundaries of the
    packed rows."""

    SIZES = (0, 1, 2, 7, 8, 9, 63, 64, 65, 130)

    def test_random_matrices(self):
        rng = np.random.default_rng(6)
        for n in self.SIZES:
            verdicts = set()
            for density in (0.0, 0.5 / max(n, 1), 2.0 / max(n, 1), 4.0 / max(n, 1), 0.3, 1.0):
                for _ in range(8):
                    verdicts.add(agree(rng.random((n, n)) < density))
            if n >= 2:
                assert verdicts == {True, False}, n

    @pytest.mark.parametrize("n", SIZES[2:])
    def test_cycle_missing_one_edge(self, n):
        # a directed cycle is strong; without the edge into a node nothing
        # reaches that node, wherever it sits in the packed row
        cycle = np.zeros((n, n), dtype=bool)
        cycle[np.arange(n), (np.arange(n) + 1) % n] = True
        assert agree(cycle)
        for v in {0, 1, n // 2, n - 2, n - 1}:
            cut = cycle.copy()
            cut[(v - 1) % n, v] = False
            assert not agree(cut)
            assert not agree(cut.T.copy())

    def test_comm_graphs_at_and_below_min_strong_radius(self):
        # acceptance-suite instances: strong at r*, not strong at the next
        # smaller pairwise distance
        checked = 0
        for seed in range(0, 1000, 50):
            n = 5 + seed % 196
            pts = random_connected_udg(n, seed, max(1.0, math.sqrt(n)))
            for a in (orient_all_180(pts), orient_all_90(pts)):
                r = min_strong_radius(pts, a)
                assert agree(comm_matrix(build_comm_graph(pts, a, r_override=r)))
                dists = np.unique([p.dist(q) for p in pts for q in pts if p.id < q.id])
                below = dists[dists < r]
                if len(below):
                    assert not agree(comm_matrix(build_comm_graph(pts, a, r_override=float(below[-1]))))
                    checked += 1
        assert checked >= 30


class TestMinStrongRadius:
    def test_facing_pair_distance(self):
        pts = [P(0, 0, 0), P(1, 0, 2.5)]
        a = OrientationAssignment(alpha=PI / 2, theta={0: PI / 2, 1: 3 * PI / 2}, guaranteed_radius=1.0)
        assert min_strong_radius(pts, a) == pytest.approx(2.5)

    def test_facing_away_infeasible(self):
        pts = [P(0, 0, 0), P(1, 1, 0)]
        a = OrientationAssignment(alpha=PI / 2, theta={0: PI, 1: 0.0}, guaranteed_radius=1.0)
        assert min_strong_radius(pts, a) is None

    def test_collinear_triple_needs_two(self):
        # derived by enumerating edges at r=1 (no edge 2->0, graph not strong)
        # and r=2 (adds 0->2 and 2->0, cycle closes)
        pts = collinear_witness(3)
        a = OrientationAssignment(alpha=PI / 2, theta={0: 0.0, 1: PI, 2: PI}, guaranteed_radius=1.0)
        g1 = build_comm_graph(pts, a, r_override=1.0)
        assert g1.out_edges == {0: frozenset({1}), 1: frozenset({0}), 2: frozenset({1})}
        g2 = build_comm_graph(pts, a, r_override=2.0)
        assert g2.out_edges == {0: frozenset({1, 2}), 1: frozenset({0}), 2: frozenset({0, 1})}
        assert min_strong_radius(pts, a) == pytest.approx(2.0)

    def test_returned_radius_is_tight(self):
        rng = random.Random(4)
        for seed in range(15):
            pts = random_connected_udg(12, seed, 3.0)
            theta = {p.id: rng.uniform(0, 2 * PI) for p in pts}
            a = OrientationAssignment(alpha=PI, theta=theta, guaranteed_radius=1.0)
            r = min_strong_radius(pts, a)
            if r is None:
                continue
            assert strongly_connected(build_comm_graph(pts, a, r_override=r))
            dists = sorted(
                {pts[i].dist(pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))}
            )
            below = [d for d in dists if d < r]
            if below:
                assert not strongly_connected(build_comm_graph(pts, a, r_override=below[-1]))
            # monotone: strong at every candidate radius above the minimum
            for d in dists:
                if d > r:
                    assert strongly_connected(build_comm_graph(pts, a, r_override=d))


def square_lattice(k, spacing=1.0):
    return [P(i * k + j, i * spacing, j * spacing) for i in range(k) for j in range(k)]


def hex_lattice(radius):
    coords = [
        (q + r / 2.0, r * math.sqrt(3) / 2.0)
        for q in range(-radius, radius + 1)
        for r in range(-radius, radius + 1)
        if abs(q + r) <= radius
    ]
    return [P(i, x, y) for i, (x, y) in enumerate(coords)]


def near_tie_triangle(a, b):
    """Triangle with sides |01| = 1, |12| = 1 + a, |20| = 1 + b, each 90-degree
    wedge aimed at the next vertex, so the graph is the cycle 0 -> 1 -> 2 -> 0."""
    l1, l2 = 1.0 + a, 1.0 + b
    x = (l2 * l2 - l1 * l1 + 1.0) / 2.0
    pts = [P(0, 0, 0), P(1, 1, 0), P(2, x, math.sqrt(l2 * l2 - x * x))]
    theta = {
        p.id: math.atan2(q.y - p.y, q.x - p.x) for p, q in zip(pts, pts[1:] + pts[:1])
    }
    return pts, OrientationAssignment(alpha=PI / 2, theta=theta, guaranteed_radius=1.0)


class TestMinStrongRadiusMatchesBinarySearch:
    """The bottleneck sweeps return the very float (or None) the binary search
    over the pairwise distances returns."""

    @staticmethod
    def same(pts, a):
        r = min_strong_radius(pts, a)
        assert r == binary_search_min_strong_radius(pts, a)
        return r

    def test_random_theta(self):
        rng = random.Random(21)
        results = []
        for seed in range(80):
            n = rng.randint(2, 40)
            pts = random_connected_udg(n, seed, rng.choice([1.0, math.sqrt(n), n / 2.0]))
            for alpha in (PI, PI / 2):
                if seed % 2:
                    theta = {p.id: rng.uniform(0, 2 * PI) for p in pts}
                else:
                    # aim at another point, jittered, so feasible cases are common
                    theta = {}
                    for p in pts:
                        q = rng.choice([q for q in pts if q.id != p.id])
                        theta[p.id] = math.atan2(q.y - p.y, q.x - p.x) + rng.uniform(-0.3, 0.3)
                a = OrientationAssignment(alpha=alpha, theta=theta, guaranteed_radius=1.0)
                results.append(self.same(pts, a))
        assert any(r is None for r in results)
        assert sum(r is not None for r in results) > 40

    def test_lattices(self):
        rng = random.Random(5)
        lattices = [square_lattice(k) for k in (2, 3, 5, 7)]
        lattices += [square_lattice(4, spacing=0.1), hex_lattice(1), hex_lattice(2), hex_lattice(3)]
        for pts in lattices:
            for alpha in (PI, PI / 2):
                # multiples of 45 degrees put lattice neighbours on wedge boundaries
                for _ in range(6):
                    theta = {p.id: rng.randrange(8) * PI / 4 for p in pts}
                    self.same(pts, OrientationAssignment(alpha=alpha, theta=theta, guaranteed_radius=1.0))
            self.same(pts, orient_all_180(pts))
            self.same(pts, orient_all_90(pts))

    def test_constructed_orientations(self):
        for seed in range(6):
            pts = random_connected_udg(120, seed, math.sqrt(120))
            assert self.same(pts, orient_all_180(pts)) is not None
            assert self.same(pts, orient_all_90(pts)) is not None

    def test_distances_within_eps_of_the_bottleneck(self):
        # the bottleneck edge is |20|; |01| = 1 is within EPS of it and wins
        pts, a = near_tie_triangle(3e-10, 7e-10)
        assert self.same(pts, a) == pts[0].dist(pts[1]) < pts[2].dist(pts[0])
        # |01| is not within EPS of |20| = 1 + 1.2e-9, but |12| is
        pts, a = near_tie_triangle(6e-10, 1.2e-9)
        assert self.same(pts, a) == pts[1].dist(pts[2]) < pts[2].dist(pts[0])

    def test_one_and_two_points(self):
        a = OrientationAssignment(alpha=PI / 2, theta={0: 1.0}, guaranteed_radius=1.0)
        assert self.same([P(0, 3, 4)], a) == 0.0
        pts = [P(0, 0, 0), P(1, 0.3, 0.4)]
        facing = OrientationAssignment(
            alpha=PI / 2, theta={0: math.atan2(0.4, 0.3), 1: math.atan2(-0.4, -0.3)}, guaranteed_radius=1.0
        )
        assert self.same(pts, facing) == pts[0].dist(pts[1])
        away = OrientationAssignment(alpha=PI, theta={0: PI, 1: PI}, guaranteed_radius=1.0)
        assert self.same(pts, away) is None
        # closer than EPS: the answer is still their distance, never 0
        close = [P(0, 0, 0), P(1, 5e-10, 0)]
        a = OrientationAssignment(alpha=PI, theta={0: 0.0, 1: PI}, guaranteed_radius=1.0)
        assert self.same(close, a) == 5e-10

    def test_missing_orientation(self):
        pts = [P(0, 0, 0), P(1, 1, 0), P(2, 2, 0)]
        a = OrientationAssignment(alpha=PI, theta={0: 0.0, 2: PI}, guaranteed_radius=1.0)
        with pytest.raises(MissingOrientation):
            min_strong_radius(pts, a)
        with pytest.raises(MissingOrientation):
            binary_search_min_strong_radius(pts, a)


class DenseRoute(Exception):
    pass


def sparse_route(pts, a):
    """min_strong_radius with the matrix sweep made to raise, so the result
    must come from a sparse probe."""

    def refuse(w):
        raise DenseRoute(f"n={len(pts)} took the n x n matrix")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "_bottleneck_level", refuse)
        return min_strong_radius(pts, a)


def walk(n, seed):
    """A random walk of steps 0.6 to 1 long, heading within 60 degrees of +x:
    a long chain whose unit disk graph is connected and sparse."""
    rng = random.Random(seed)
    pts = [P(0, 0, 0)]
    for i in range(1, n):
        ang, step = rng.uniform(-PI / 3, PI / 3), rng.uniform(0.6, 1.0)
        pts.append(P(i, pts[-1].x + step * math.cos(ang), pts[-1].y + step * math.sin(ang)))
    return pts


def jittered_hex(k, seed):
    """k x k hex lattice with spacing 0.9, each point moved by up to 0.04 per axis."""
    jitter = np.random.default_rng(seed).uniform(-0.04, 0.04, size=(k * k, 2))
    h = 0.9 * math.sqrt(3.0) / 2.0
    return [
        P(v, 0.9 * (v % k + 0.5 * (v // k % 2)) + jitter[v, 0], h * (v // k) + jitter[v, 1])
        for v in range(k * k)
    ]


def facing_pairs(pts, alpha):
    """Along a row sorted by id, even ids face +x and odd ids face -x: strong
    at twice the spacing (3 -> 1 -> 0 and 0 -> 2 -> 3) and not below."""
    return OrientationAssignment(
        alpha=alpha, theta={p.id: 0.0 if p.id % 2 == 0 else PI for p in pts}, guaranteed_radius=1.0
    )


class TestSparseRouteMatchesBinarySearch:
    """Inputs of SPARSE_MIN_N points or more probe R = 1, 2, 4, ... on the
    grid before any n x n matrix; each result is the very float (or None) of
    the binary search. ``sparse_route`` pins the inputs that a probe must
    decide, so the sparse path cannot go dead unnoticed."""

    @staticmethod
    def same(r, pts, a):
        assert r == binary_search_min_strong_radius(pts, a)
        return r

    @pytest.mark.parametrize("lattice", [jittered_lattice, jittered_hex])
    def test_jittered_lattices_with_shuffled_ids(self, lattice):
        grid = lattice(30, 1)
        ids = list(range(len(grid)))
        random.Random(2).shuffle(ids)
        pts = [P(i, p.x, p.y) for i, p in zip(ids, grid)]
        for a in (orient_all_180(pts), orient_all_90(pts)):
            assert self.same(sparse_route(pts, a), pts, a) <= a.guaranteed_radius

    def test_walks(self):
        for seed in range(4):
            pts = walk(100 + 50 * seed, seed)
            for a in (orient_all_180(pts), orient_all_90(pts)):
                self.same(sparse_route(pts, a), pts, a)

    def test_coincident_points(self):
        # a pair at distance 0 is an edge only where the rule puts the zero
        # direction inside the wedge; the probe must agree with the matrix
        base = walk(120, 7)
        built = orient_all_180(base)
        pts = base + [P(120, base[60].x, base[60].y)]
        for turn in (0.0, PI / 2, PI):
            theta = {**built.theta, 120: built.theta[60] + turn}
            a = OrientationAssignment(alpha=PI, theta=theta, guaranteed_radius=1.0)
            self.same(sparse_route(pts, a), pts, a)

    def test_spread_blobs(self):
        # random_connected_udg grows a blob from its own points, so even a box
        # of n / 2 holds a compact cluster: these take the matrix
        for seed in range(4):
            pts = random_connected_udg(40 + 30 * seed, seed, (40 + 30 * seed) / 2)
            for a in (orient_all_180(pts), orient_all_90(pts)):
                self.same(min_strong_radius(pts, a), pts, a)

    @pytest.mark.parametrize("spacing", [1, 2, 4])
    def test_pairs_exactly_at_a_probe_radius(self, spacing):
        # integer rows and lattices put whole classes of pairs at R itself
        row = [P(i, spacing * i, 0) for i in range(40)]
        for alpha in (PI, PI / 2):
            a = facing_pairs(row, alpha)
            assert self.same(sparse_route(row, a), row, a) == 2 * spacing
        # the unit lattice's orientations, scaled: 180 degrees is strong at the
        # spacing; 90 degrees needs more, where the grid is too full to probe
        unit = [P(i, i % 8, i // 8) for i in range(64)]
        lattice = [P(p.id, spacing * p.x, spacing * p.y) for p in unit]
        a = orient_all_180(unit)
        assert self.same(sparse_route(lattice, a), lattice, a) == spacing
        a = orient_all_90(unit)
        self.same(min_strong_radius(lattice, a), lattice, a)

    def test_distances_within_eps_of_the_bottleneck(self):
        # the bottleneck is 2; the last point moved in by 5e-10 puts the pair
        # (37, 39) within EPS below it, and that distance is the answer
        row = [P(i, i, 0) for i in range(39)] + [P(39, 39 - 5e-10, 0)]
        a = facing_pairs(row, PI / 2)
        assert self.same(sparse_route(row, a), row, a) == row[39].x - 37 < 2

    def test_row_offset_by_1e9(self):
        row = [P(i, 1e9 + 0.75 * i, -1e9) for i in range(40)]
        for alpha in (PI, PI / 2):
            a = facing_pairs(row, alpha)
            assert self.same(sparse_route(row, a), row, a) == 1.5
        for a in (orient_all_180(row), orient_all_90(row)):
            self.same(sparse_route(row, a), row, a)

    def test_random_theta(self):
        rng = random.Random(12)
        results = []
        probed = 0
        for seed in range(9):
            pts = (jittered_lattice, jittered_hex)[seed % 2](15, seed)
            for alpha in (PI, PI / 2):
                if seed % 3 == 0:
                    theta = {p.id: rng.uniform(0, 2 * PI) for p in pts}
                else:
                    # aim at a random neighbour within 1, jittered: feasible often
                    theta = {}
                    for p in pts:
                        q = rng.choice([q for q in pts if q.id != p.id and p.dist(q) <= 1.0])
                        theta[p.id] = math.atan2(q.y - p.y, q.x - p.x) + rng.uniform(-0.3, 0.3)
                a = OrientationAssignment(alpha=alpha, theta=theta, guaranteed_radius=1.0)
                try:
                    r = sparse_route(pts, a)
                    probed += 1
                except DenseRoute:
                    r = min_strong_radius(pts, a)
                results.append(self.same(r, pts, a))
        assert any(r is None for r in results)
        assert sum(r is not None for r in results) >= 6
        assert probed >= 4

    def test_lattice_peak_memory_is_linear(self):
        # n = 5041: an n x n float matrix alone is 203 MB
        pts = jittered_lattice(71, 0)
        for a in (orient_all_180(pts), orient_all_90(pts)):
            tracemalloc.start()
            try:
                r = min_strong_radius(pts, a)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert r <= a.guaranteed_radius
            assert peak < 32 * 2**20


def swept(pts, a):
    """min_strong_radius and how many bottleneck sweeps its matrix ran: none
    when a probe decided, 2 for one forward and one backward sweep, 4 when
    the exact band reran them."""
    sweeps = 0
    real = verifier._bottleneck_level

    def count(w):
        nonlocal sweeps
        sweeps += 1
        return real(w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "_bottleneck_level", count)
        r = min_strong_radius(pts, a)
    return r, sweeps


def offset_lattice(k, spacing, offset):
    """k x k square lattice at (offset, -offset): equal lattice distances
    come out a few ulp of the coordinates apart."""
    return [P(v, offset + spacing * (v % k), -offset + spacing * (v // k)) for v in range(k * k)]


def skewed_abs(level, p):
    """A stand-in for verifier._abs that is off by the relative p, up on the
    distances at or below ``level`` and down on those above it."""

    def skew(d, out=None):
        exact = np.hypot(d.real, d.imag)
        near = exact * np.where(exact <= level, 1.0 + p, 1.0 - p)
        if out is None:
            return near
        out[...] = near
        return out

    return skew


def two_columns():
    """Two unit-spaced columns of eighth-spaced points facing each other at
    180 degrees, with level B = 1: the pair at y = 0 is 1 apart and the pair
    at y = 1/8 is 1 + 2**-43 apart. Column x = 0 also holds the points
    (0, lo) and (0, hi), where hi is the smallest float with hi + EPS >= 1
    and lo the float below it, so the result is hi and a level off B by more
    than an ulp or two gives another float."""
    hi = 1.0 - EPS
    while hi + EPS < 1.0:
        hi = np.nextafter(hi, 2.0)
    while np.nextafter(hi, 0.0) + EPS >= 1.0:
        hi = np.nextafter(hi, 0.0)
    lo, hi = float(np.nextafter(hi, 0.0)), float(hi)
    far = 1.0 + 2.0**-43
    xy = [(0.0, 0.0), (0.0, lo), (0.0, hi)] + [(0.0, k / 8) for k in range(1, 16)]
    xy += [(far if k == 1 else 1.0, k / 8) for k in range(16)]
    pts = [P(v, x, y) for v, (x, y) in enumerate(xy)]
    theta = {p.id: 0.0 if p.x == 0 else PI for p in pts}
    return pts, OrientationAssignment(alpha=PI, theta=theta, guaranteed_radius=1.0), lo, hi


class TestExactBand:
    """From _BAND_MIN_N points on, the matrix route sweeps np.abs weights and
    takes np.hypot on the band of ``_exact_band`` alone. Every result is the
    float (or None) of the n x n np.hypot route it replaced, kept as
    ``oracles.hypot_min_strong_radius``; ``swept`` pins the route each
    instance takes."""

    def same(self, pts, a):
        r, sweeps = swept(pts, a)
        assert len(pts) >= verifier._BAND_MIN_N and sweeps in (2, 4)
        assert r == hypot_min_strong_radius(pts, a)
        return r, sweeps

    def test_abs_is_within_four_ulp_of_hypot(self):
        # the premise of both bands: np.abs is within a relative _TOL
        rng = np.random.default_rng(4)
        size = 100_000
        d = 10.0 ** rng.uniform(-300, 300, size) * np.exp(1j * rng.uniform(0, 2 * PI, size))
        diffs = [d]
        for offset in (0.0, 1.0, 1e3, 1e6, 1e9, -1e9):
            z = verifier._complex(np.array([(offset + p.x, offset - p.y) for p in jittered_lattice(30, 1)]))
            diffs.append((z - z[:, None]).ravel())
        for d in diffs:
            exact = np.hypot(d.real, d.imag)
            assert (np.abs(verifier._abs(d) - exact) <= 4 * np.finfo(float).eps * exact).all()
        assert 4 * np.finfo(float).eps < verifier._TOL

    def test_matches_the_hypot_route(self):
        runs = []
        rng = random.Random(8)
        for seed in range(4):
            pts = random_connected_udg(32 + 30 * seed, seed, 2.0)
            runs += [self.same(pts, orient_all_180(pts)), self.same(pts, orient_all_90(pts))]
            theta = {p.id: rng.uniform(0, 2 * PI) for p in pts}
            runs.append(self.same(pts, OrientationAssignment(alpha=PI, theta=theta, guaranteed_radius=1.0)))
        for k, spacing, offset in ((6, 0.25, 0.0), (8, 0.125, 1e4), (7, 0.2, 1e6), (6, 0.3, 1e9)):
            pts = offset_lattice(k, spacing, offset)
            runs += [self.same(pts, orient_all_180(pts)), self.same(pts, orient_all_90(pts))]
        # a row at spacing 0.1 is strong at 0.2; the last point moved in by
        # 5e-10 puts the distance of the pair (37, 39) within EPS below it
        row = [P(i, 0.1 * i, 0) for i in range(39)] + [P(39, 3.9 - 5e-10, 0)]
        for alpha in (PI, PI / 2):
            r, sweeps = self.same(row, facing_pairs(row, alpha))
            assert r == row[39].x - row[37].x < 0.2 and sweeps == 4
        assert any(r is None for r, _ in runs)
        assert any(sweeps == 2 and r is not None for r, sweeps in runs)
        assert any(sweeps == 4 for _, sweeps in runs)

    def test_coincident_points(self):
        # b = 0: every point on one spot, and the zero direction in each wedge
        pts = [P(v, 0.5, -0.25) for v in range(40)]
        a = OrientationAssignment(alpha=PI / 2, theta={v: 0.0 for v in range(40)}, guaranteed_radius=1.0)
        assert self.same(pts, a) == (0.0, 2)
        # 0 < b < EPS: the band reaches below 0, the result is the closest pair
        cluster = [P(v, 1e-11 * v * v, 0.0) for v in range(40)]
        a = OrientationAssignment(alpha=PI, theta={v: PI / 2 for v in range(40)}, guaranteed_radius=1.0)
        r, _ = self.same(cluster, a)
        assert r == cluster[1].x < EPS
        # a spot shared by two points beside a dense blob
        blob = random_connected_udg(60, 3, 2.0)
        pts = blob + [P(60, blob[7].x, blob[7].y)]
        built = orient_all_90(blob)
        for turn in (0.0, PI / 4, PI / 2, PI):
            theta = {**built.theta, 60: built.theta[7] + turn}
            self.same(pts, OrientationAssignment(alpha=PI / 2, theta=theta, guaranteed_radius=7.0))

    def test_none(self):
        pts = random_connected_udg(50, 2, 2.0)
        away = OrientationAssignment(alpha=PI / 2, theta={p.id: 0.0 for p in pts}, guaranteed_radius=1.0)
        assert self.same(pts, away) == (None, 2)

    def test_fast_distances_off_by_almost_tol(self):
        # the band holds for any fast distance within _TOL of np.hypot: skew
        # them by 0.9 _TOL, up to B and down above it, so that the fast level
        # comes from the pair 1 + 2**-43 apart, 1.1e-13 above B
        pts, a, lo, hi = two_columns()
        assert lo + EPS < 1.0 <= hi + EPS < 1.0 + 2.0**-43
        assert hypot_min_strong_radius(pts, a) == hi
        graph = comm_matrix(build_comm_graph(pts, a))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier, "_abs", skewed_abs(1.0, 0.9 * verifier._TOL))
            assert self.same(pts, a) == (hi, 4)
            assert (comm_matrix(build_comm_graph(pts, a)) == graph).all()

    def test_band_is_small(self):
        # np.hypot runs on a few pairs, not on a matrix
        sizes = []
        real = verifier._exact_band

        def sized(z, w, b):
            level, dist = real(z, w, b)
            sizes.append(len(dist))
            return level, dist

        pts = random_connected_udg(400, 5, 6.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier, "_exact_band", sized)
            for a in (orient_all_180(pts), orient_all_90(pts)):
                self.same(pts, a)
        assert sizes and max(sizes) <= 8

    def test_dense_blob_peak_memory(self):
        # n = 1000: the fast weights are the one n x n array, 7.6 MiB
        pts = random_connected_udg(1000, 1, 6.0)
        for a in (orient_all_180(pts), orient_all_90(pts)):
            tracemalloc.start()
            try:
                r, sweeps = swept(pts, a)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sweeps == 2 and r <= a.guaranteed_radius
            assert peak < 12 * 2**20


BAD_INPUTS = [
    pytest.param(
        [P(0, 0, 0), P(1, bad, 0.5), P(2, 1, 0)], r"^point 1 has non-finite coordinates$", id=str(bad)
    )
    for bad in (math.nan, math.inf, -math.inf)
] + [
    pytest.param(
        [P(0, 0, 0), P(5, 0.5, 0.5), P(7, 1, 0)],
        r"^point ids must be distinct and contiguous from 0$",
        id="ids-0-5-7",
    )
]
TRIANGLE_TREE = bounded_degree_mst([P(0, 0, 0), P(1, 0.5, 0.5), P(2, 1, 0)])
POINT_SET_ENTRIES = {
    "min_strong_radius": lambda pts, a: min_strong_radius(pts, a),
    "build_comm_graph": lambda pts, a: build_comm_graph(pts, a),
    "certify_groups": lambda pts, a: certify_groups(pts, a, [([p.id for p in pts], None)]),
    "is_strongly_connected_at": lambda pts, a: is_strongly_connected_at(pts, a, 2.0),
    "check_construction": lambda pts, a: check_construction(pts, a, [([p.id for p in pts], None)], "failed"),
    "bounded_degree_mst": lambda pts, a: bounded_degree_mst(pts),
    "build_udg": lambda pts, a: build_udg(pts),
    "orient_all_180": lambda pts, a: orient_all_180(pts),
    "orient_all_90": lambda pts, a: orient_all_90(pts),
    "orient_small": lambda pts, a: orient_small(pts),
    "plan_groups_180": lambda pts, a: plan_groups_180(pts, TRIANGLE_TREE),
}


@pytest.mark.parametrize("pts, message", BAD_INPUTS)
@pytest.mark.parametrize("entry", list(POINT_SET_ENTRIES.values()), ids=list(POINT_SET_ENTRIES))
def test_non_finite_coordinates_are_rejected(entry, pts, message):
    # one input rule for every graph-level entry: ids exactly 0..n-1, as
    # nothing relabels them, and finite coordinates, as no distance, angle or
    # grid cell holds a NaN or an infinity
    a = OrientationAssignment(
        alpha=PI, theta={p.id: PI * (p.id > 0) for p in pts}, guaranteed_radius=2.0
    )
    with pytest.raises(ValueError, match=message):
        entry(pts, a)


# walk steps in 1024ths of a unit: 0.25 to 0.75 rightwards and up to 0.5 up
# or down, so walks spread along x; eighth-unit steps make exact ties common
STEPS = [(sx, sy) for sx in range(256, 769, 128) for sy in range(-512, 513, 128)]
STEPS += [(sx, sy) for sx in range(256, 769, 37) for sy in range(-512, 513, 41)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    steps=st.integers(1, 150).flatmap(
        lambda n: st.lists(st.sampled_from(STEPS), min_size=n, max_size=n)
    ),
    facing=st.booleans(),
    alpha=st.sampled_from([PI, PI / 2]),
    dx=OFFSETS,
    dy=OFFSETS,
    rnd=st.randoms(use_true_random=False),
)
def test_min_strong_radius_is_unchanged_by_translation_and_relabelling(
    steps, facing, alpha, dx, dy, rnd
):
    # offsets up to 1e9 keep every coordinate, difference and distance exact,
    # so the result is the same float, whichever route and probe decide it
    cells = np.cumsum(steps, axis=0).tolist()
    pts = [P(i, x / 1024, y / 1024) for i, (x, y) in enumerate(cells)]
    if facing and len(pts) > 1:
        # even ids aim at the next walk point, odd ids at the previous one:
        # strong at a short radius, so long walks take a sparse probe
        theta = {}
        for p in pts:
            q = pts[p.id + 1 if p.id % 2 == 0 and p.id + 1 < len(pts) else p.id - 1]
            theta[p.id] = math.atan2(q.y - p.y, q.x - p.x)
    else:
        # eighths of a turn, so wedge boundaries fall on lattice directions
        theta = {p.id: (sx + sy) % 8 * PI / 4 for p, (sx, sy) in zip(pts, steps)}
    a = OrientationAssignment(alpha=alpha, theta=theta, guaranteed_radius=1.0)
    r = min_strong_radius(pts, a)
    assert min_strong_radius([P(p.id, p.x + dx, p.y + dy) for p in pts], a) == r
    ids = list(range(len(pts)))
    rnd.shuffle(ids)
    relabelled = [P(ids[p.id], p.x, p.y) for p in pts]
    theta = {ids[v]: t for v, t in theta.items()}
    assert min_strong_radius(relabelled, OrientationAssignment(alpha=alpha, theta=theta, guaranteed_radius=1.0)) == r


class TestCoversPlane:
    @pytest.mark.parametrize("count", [0, 17])
    def test_wedge_count_out_of_range(self, count):
        with pytest.raises(ValueError, match="between 1 and 16 wedges"):
            covers_plane([Wedge(P(k, k, 0), PI / 2, PI, 1.0) for k in range(count)])

    def test_four_quadrants(self):
        qs = [Wedge(P(0, 0, 0), PI / 4 + k * PI / 2, PI / 2, 1.0) for k in range(4)]
        assert covers_plane(qs)

    def test_opposite_half_planes(self):
        hs = [
            Wedge(P(0, 0, 0), PI / 2, PI, 1.0),
            Wedge(P(1, 1, 0), 3 * PI / 2, PI, 1.0),
        ]
        assert covers_plane(hs)

    def test_three_quadrants(self):
        qs = [Wedge(P(0, 0, 0), PI / 4 + k * PI / 2, PI / 2, 1.0) for k in range(3)]
        assert not covers_plane(qs)

    def test_parallel_strip_gap(self):
        hs = [
            Wedge(P(0, 0, 0), PI / 2, PI, 1.0),
            Wedge(P(1, 0, -1), 3 * PI / 2, PI, 1.0),
        ]
        assert not covers_plane(hs)

    def test_agrees_with_sampling(self):
        rng = np.random.default_rng(21)
        pyrng = random.Random(21)
        for _ in range(12):
            k = pyrng.randint(1, 8)
            wedges = [
                Wedge(
                    P(i, pyrng.uniform(-1, 1), pyrng.uniform(-1, 1)),
                    pyrng.uniform(0, 2 * PI),
                    pyrng.choice([PI / 2, PI, 2 * PI / 3]),
                    1.0,
                )
                for i in range(k)
            ]
            if covers_plane(wedges):
                assert sampled_uncovered_point(wedges, rng, samples=100_000) is None


def agreement_sets(rng, count):
    """Sets of 2 to 5 points with shuffled ids: the random and square-lattice
    sets of ``point_sets``, then cells of a hexagonal lattice and of an
    integer row."""
    yield from point_sets(rng, count // 2)
    hexagon = [(x + 0.5 * y, 0.5 * math.sqrt(3) * y) for x in range(3) for y in range(3)]
    row = [(float(x), 0.0) for x in range(6)]
    for k in range(count - count // 2):
        n = rng.randint(2, 5)
        coords = rng.sample(hexagon if k % 2 else row, n)
        ids = rng.sample(range(n), n)
        yield sorted((Point(i, x, y) for i, (x, y) in zip(ids, coords)), key=lambda p: p.id)


class TestBruteForce:
    def test_agrees_with_all_masks_oracle(self):
        # at every pairwise distance d, at d - 1e-9 and at d + 1e-12
        calls = 0
        for pts in agreement_sets(random.Random(9), 400):
            dists = sorted({p.dist(q) for p in pts for q in pts if p.id < q.id})
            for alpha in APERTURES:
                for d in dists:
                    for r in (d - 1e-9, d, d + 1e-12):
                        got = feasible_by_bruteforce(pts, alpha, r)[0]
                        assert got == all_masks_feasible(pts, alpha, r)[0], (pts, alpha, r)
                        calls += 1
        assert calls > 10_000

    def test_collinear_four_below_two(self):
        feasible, witness = feasible_by_bruteforce(collinear_witness(4), PI / 2, 1.999999)
        assert not feasible and witness is None

    def test_collinear_four_at_two(self):
        feasible, witness = feasible_by_bruteforce(collinear_witness(4), PI / 2, 2.0)
        assert feasible
        g = build_comm_graph(collinear_witness(4), witness, r_override=2.0)
        assert strongly_connected(g)

    def test_single_point(self):
        feasible, witness = feasible_by_bruteforce([P(0, 0, 0)], PI / 2, 1.0)
        assert feasible and witness is not None

    def test_too_many_points(self):
        with pytest.raises(TooManyPoints):
            feasible_by_bruteforce([P(i, i, 0) for i in range(BRUTE_FORCE_MAX + 1)], PI / 2, 2.0)

    def test_monotone_in_radius(self):
        rng = random.Random(8)
        for _ in range(10):
            pts = [P(i, rng.uniform(0, 2), rng.uniform(0, 2)) for i in range(4)]
            r1 = rng.uniform(0.5, 2.5)
            r2 = r1 + rng.uniform(0, 1.5)
            f1, _ = feasible_by_bruteforce(pts, PI / 2, r1)
            f2, _ = feasible_by_bruteforce(pts, PI / 2, r2)
            if f1:
                assert f2


def random_row(n, seed):
    """n points on the x axis, consecutive gaps uniform in [0.5, 1]."""
    rng = random.Random(seed)
    xs = [0.0]
    while len(xs) < n:
        xs.append(xs[-1] + rng.uniform(0.5, 1.0))
    return [P(i, x, 0) for i, x in enumerate(xs)]


def test_constructions_between_optimum_and_guarantee():
    instances = [read_points(Path(__file__).parent / "data" / "hung_triplet_n10.txt")]
    for n in range(6, 11):
        for seed in range(6):
            instances += [random_connected_udg(n, seed, math.sqrt(n)), random_row(n, seed)]
    for pts in instances:
        for orient in (orient_all_180, orient_all_90):
            a = orient(pts)
            achieved = min_strong_radius(pts, a)
            assert exact_min_radius(pts, a.alpha) <= achieved <= a.guaranteed_radius, (pts, orient)
