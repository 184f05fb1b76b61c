"""The two routes of build_comm_graph: spread inputs of SPARSE_MIN_N points or
more list their pairs on the grid and hold edge arrays; every other input
gets the n x n matrix. The grid route must give the matrix route's edges
exactly, and every view and verdict on them must agree."""

import math
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import bfs_strongly_connected, comm_matrix, mutual_reach_components
from sectornet import instances, verifier
from sectornet.geometry import EPS, Point
from sectornet.orient180 import orient_all_180
from sectornet.orient90 import orient_all_90
from sectornet.orientation import OrientationAssignment
from sectornet.topology import as_coords, grid_pairs
from sectornet.verifier import build_comm_graph, component_labels, strongly_connected
from test_topology import jittered_lattice
from test_verifier import P, facing_pairs, jittered_hex, walk

sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))
from treegen import near_unit_tree  # noqa: E402

PI = math.pi


def matrix_route(pts, a, r):
    """build_comm_graph with the grid route shut off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "SPARSE_MIN_N", math.inf)
        g = build_comm_graph(pts, a, r_override=r)
    assert g.matrix is not None
    return g


def edge_set(src, dst):
    return set(zip(src.tolist(), dst.tolist()))


def same_graph(pts, a, r):
    """build_comm_graph at r against the matrix route: the same edges, each
    once, the same ``comm_matrix`` and ``out_edges``, and a
    strong-connectivity verdict that matches the per-start BFS oracle.
    Returns whether the grid route was taken."""
    g, m = build_comm_graph(pts, a, r_override=r), matrix_route(pts, a, r)
    src, dst = g.edges
    assert len(src) == np.count_nonzero(m.matrix)
    assert edge_set(src, dst) == edge_set(*np.nonzero(m.matrix))
    assert np.array_equal(comm_matrix(g), m.matrix)
    assert g.out_edges == m.out_edges
    assert strongly_connected(g) == strongly_connected(m) == bfs_strongly_connected(len(pts), m.out_edges)
    return g.matrix is None


def random_theta(pts, alpha, seed):
    rng = random.Random(seed)
    theta = {p.id: rng.uniform(0, 2 * PI) for p in pts}
    return OrientationAssignment(alpha=alpha, theta=theta, guaranteed_radius=1.0)


def handover(coords):
    """The largest power-of-two cell whose grid offers at most half of the
    n(n-1)/2 pairs as candidates: radii up to it take the grid route, radii
    just above it the matrix."""
    n = len(coords)
    cell = 1.0
    while grid_pairs(coords, 2 * cell, 2 * cell, most=n * (n - 1) / 4) is not None:
        cell *= 2
    return cell


class TestGridRouteMatchesMatrix:
    def test_near_unit_trees(self):
        taken = 0
        for seed in range(20):
            coords, _ = near_unit_tree(300, seed)
            pts = [Point(i, x, y) for i, (x, y) in enumerate(coords)]
            for a in (orient_all_180(pts), orient_all_90(pts)):
                taken += same_graph(pts, a, a.guaranteed_radius)
        assert taken >= 20

    @pytest.mark.parametrize("lattice", [jittered_lattice, jittered_hex])
    def test_jittered_lattices(self, lattice):
        pts = lattice(16, 3)
        assignments = [orient_all_180(pts), orient_all_90(pts)]
        assignments += [random_theta(pts, alpha, seed) for seed, alpha in enumerate((PI, PI / 2))]
        taken = 0
        for a in assignments:
            for r in (0.9, 1.0, 2.0, 1.0 + math.sqrt(3.0), 3.0):
                taken += same_graph(pts, a, r)
        assert taken == 5 * len(assignments)

    @pytest.mark.parametrize("spacing", [0.75, 1, 2])
    def test_rows(self, spacing):
        # integer multiples of the spacing put whole classes of pairs at r
        row = [P(i, spacing * i, 0) for i in range(60)]
        for alpha in (PI, PI / 2):
            for a in (facing_pairs(row, alpha), random_theta(row, alpha, 7)):
                for r in (spacing, 2 * spacing, 3 * spacing, 2 * spacing - EPS / 2):
                    assert same_graph(row, a, r)

    @pytest.mark.parametrize("dx, dy", [(0, 0), (10**9, -(10**9)), (-999_999_937, 31), (123_456_789, 10**9)])
    def test_integer_offsets(self, dx, dy):
        # coordinates in 1024ths stay exact under these offsets, so the edges
        # are those of the walk at the origin
        rng = random.Random(3)
        steps = [(rng.randrange(256, 769), rng.randrange(-512, 513)) for _ in range(150)]
        cells = np.cumsum(steps, axis=0).tolist()
        pts = [P(i, x / 1024, y / 1024) for i, (x, y) in enumerate(cells)]
        shifted = [P(p.id, p.x + dx, p.y + dy) for p in pts]
        for a in (orient_all_180(pts), orient_all_90(pts)):
            for r in (1.0, a.guaranteed_radius):
                assert same_graph(shifted, a, r)
                at_origin = build_comm_graph(pts, a, r_override=r).edges
                assert edge_set(*build_comm_graph(shifted, a, r_override=r).edges) == edge_set(*at_origin)

    @pytest.mark.parametrize("name", ["row", "lattice", "walk"])
    def test_radii_at_the_hand_over(self, name):
        pts = {
            "row": [P(i, i, 0) for i in range(64)],
            "lattice": jittered_lattice(20, 3),
            "walk": walk(200, 1),
        }[name]
        cell = handover(as_coords(pts))
        for a in (orient_all_180(pts), orient_all_90(pts)):
            # r + EPS just under the cell keeps the grid; at or over it, the
            # grid of twice the cell offers more than half the pairs
            assert same_graph(pts, a, cell - 2 * EPS)
            assert not same_graph(pts, a, cell - EPS / 2)
            assert not same_graph(pts, a, cell)


class TestRadiusEdgeCases:
    """r_override values at which the grid is not usable or not needed; each
    gives exactly the matrix route's edges."""

    @staticmethod
    def lattice_with_a_coincident_pair():
        # point 64 sits on point 10 and faces +x, so the zero direction puts
        # 10 in its wedge; point 10 faces -x and misses 64
        pts = jittered_lattice(8, 2)
        pts.append(P(64, pts[10].x, pts[10].y))
        a = random_theta(pts, PI / 2, 4)
        theta = {**a.theta, 10: PI, 64: 0.0}
        return pts, OrientationAssignment(alpha=PI / 2, theta=theta, guaranteed_radius=1.0)

    @pytest.mark.parametrize(
        "r, grid",
        [
            (-1.0, False),
            (-EPS, False),  # r + EPS is 0, below every power-of-two cell
            (-EPS / 2, True),
            (0.0, True),
            (math.inf, False),
            (math.nan, False),
        ],
    )
    def test_radius(self, r, grid):
        pts, a = self.lattice_with_a_coincident_pair()
        assert same_graph(pts, a, r) == grid
        g = build_comm_graph(pts, a, r_override=r)
        if 0 <= r + EPS < 1:
            # below every distinct pair's distance only the coincident edge is left
            assert edge_set(*g.edges) == {(64, 10)}

    @pytest.mark.parametrize("beyond", [0.0, 1.0])
    def test_radius_at_or_beyond_the_diagonal(self, beyond):
        pts, a = self.lattice_with_a_coincident_pair()
        coords = as_coords(pts)
        diagonal = float(np.hypot(*(coords.max(axis=0) - coords.min(axis=0))))
        assert not same_graph(pts, a, diagonal + beyond)


def partition(labels):
    """The node sets that share a label, sorted."""
    groups = {}
    for v, c in enumerate(labels):
        groups.setdefault(c, []).append(v)
    return sorted(groups.values())


class TestComponentsOnTheGridRoute:
    def test_chain_on_a_row(self):
        # every point faces +x and reaches only the next one: 200 singletons
        row = [P(i, 0.9 * i, 0) for i in range(200)]
        a = OrientationAssignment(alpha=PI / 2, theta={p.id: 0.0 for p in row}, guaranteed_radius=1.0)
        g = build_comm_graph(row, a)
        assert g.matrix is None
        assert sorted(component_labels(g)) == list(range(200))
        assert not strongly_connected(g)

    def test_labels_match_the_mutual_reach_oracle(self):
        pts = jittered_hex(12, 5)
        for seed in range(6):
            a = random_theta(pts, (PI, PI / 2)[seed % 2], seed)
            for r in (1.0, 1.5):
                g = build_comm_graph(pts, a, r_override=r)
                assert g.matrix is None
                expected = sorted(sorted(c) for c in mutual_reach_components(len(pts), g.out_edges))
                assert partition(component_labels(g)) == expected


def test_blob_matrix_route_peak_memory():
    # n = 1000 in a 6 x 6 box at r = 7: every pair is within r, so the graph
    # is the n x n matrix (1 MB); its rows are filled 64 apexes at a time, and
    # no n x n float or complex array exists (one would be 8 or 16 MB)
    pts = instances.random_connected_udg(1000, 1, 6.0)
    a = orient_all_90(pts)
    build_comm_graph(pts, a)
    tracemalloc.start()
    try:
        g = build_comm_graph(pts, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.matrix is not None and a.guaranteed_radius == 7.0
    assert peak < 8 * 2**20


def test_lattice_peak_memory_is_linear_in_nodes_and_edges():
    # n = 10,000 at r = 7: the matrix route's n x n float arrays are 800 MB
    # each; the grid route holds a few arrays per candidate pair and edge
    pts = jittered_lattice(100, 0)
    a = orient_all_90(pts)
    tracemalloc.start()
    try:
        g = build_comm_graph(pts, a)
        strong = strongly_connected(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert strong and g.matrix is None
    edges = len(g.edges[0])
    assert edges > 40 * len(pts)
    assert peak < 512 * (len(pts) + edges)
