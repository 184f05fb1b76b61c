import math
import random

import pytest

from sectornet import orient90
from sectornet.errors import DisconnectedInput, DuplicatePoint, TooFewPoints, TooManyPoints
from sectornet.geometry import Point
from sectornet.instances import collinear_witness, random_connected_udg
from sectornet.orient90 import (
    RADIUS_90,
    choose_representatives,
    extract_groups_90,
    orient_all_90,
    orient_small,
)
from sectornet.topology import RootedTree, bounded_degree_mst
from sectornet.verifier import (
    build_comm_graph,
    is_strongly_connected_at,
    min_strong_radius,
    strongly_connected,
)

PI = math.pi


def P(i, x, y):
    return Point(i, float(x), float(y))


def with_shuffled_ids(coords, rng):
    ids = list(range(len(coords)))
    rng.shuffle(ids)
    return [P(i, x, y) for i, (x, y) in zip(ids, coords)]


def collinear_group_instances():
    """Rows and square lattices with shuffled ids: their spanning trees hold
    fully collinear 90-degree groups, many of odd size."""
    # five collinear points whose lowest id sits inside the row
    yield "fault row", [P(i, 0.8 * k, 0) for k, i in enumerate((1, 2, 0, 3, 4))]
    for seed in range(60):
        rng = random.Random(seed)
        for n in (5, 7, 9, 13):
            xs = [0.0]
            for _ in range(n - 1):
                xs.append(xs[-1] + rng.uniform(0.5, 1.0))
            yield f"row{n} seed {seed}", with_shuffled_ids([(x, 0.0) for x in xs], rng)
        for k in (5, 8, 12):
            coords = [(i, j) for j in range(k) for i in range(k)]
            yield f"square{k} seed {seed}", with_shuffled_ids(coords, rng)


def path_tree(n):
    parent = {0: 0}
    children = {i: [] for i in range(n)}
    for i in range(1, n):
        parent[i] = i - 1
        children[i - 1].append(i)
    return RootedTree(root=0, parent=parent, children=children)


class TestOrientSmall:
    def test_two_points_face_each_other(self):
        pts = [P(0, 0, 0), P(1, 1, 0)]
        a = orient_small(pts)
        assert a.theta[0] == pytest.approx(0.0)
        assert a.theta[1] == pytest.approx(PI)
        assert min_strong_radius(pts, a) == pytest.approx(1.0)

    def test_acute_triangle(self):
        pts = [P(0, 0, 0), P(1, 1, 0), P(2, 0.5, 0.8)]
        a = orient_small(pts)
        assert strongly_connected(build_comm_graph(pts, a, r_override=2.0))

    def test_degenerate_collinear_triangle(self):
        pts = collinear_witness(3)
        a = orient_small(pts)
        assert strongly_connected(build_comm_graph(pts, a, r_override=2.0))

    def test_too_many(self):
        with pytest.raises(TooManyPoints):
            orient_small([P(i, 0.3 * i, 0) for i in range(4)])

    def test_disconnected(self):
        with pytest.raises(DisconnectedInput):
            orient_small([P(0, 0, 0), P(1, 2.5, 0)])

    @pytest.mark.parametrize("n", [2, 3])
    def test_coincident_points(self, n):
        with pytest.raises(DuplicatePoint):
            orient_small([P(i, 0.5 * i, 0) for i in range(n - 1)] + [P(n - 1, 0, 0)])

    def test_coincident_checked_before_connectivity(self):
        with pytest.raises(DuplicatePoint):
            orient_small([P(0, 0, 0), P(1, 0, 0), P(2, 5, 0)])


class TestExtractGroups:
    def test_path_of_four_single_group(self):
        groups, remainder = extract_groups_90(path_tree(4))
        assert len(groups) == 1
        assert groups[0].members == frozenset({0, 1, 2, 3})
        assert groups[0].subtree_root == 0
        assert groups[0].attach_parent is None
        assert remainder == []

    def test_path_of_seven_bottom_four_plus_three(self):
        groups, remainder = extract_groups_90(path_tree(7))
        assert len(groups) == 1
        assert groups[0].members == frozenset({3, 4, 5, 6})
        assert groups[0].subtree_root == 3
        assert groups[0].attach_parent == 2
        assert remainder == [0, 1, 2]

    def test_root_with_two_three_chains(self):
        # no proper subtree reaches 4 nodes, so the whole 7-node tree is one group
        parent = {0: 0, 1: 0, 2: 1, 3: 2, 4: 0, 5: 4, 6: 5}
        children = {0: [1, 4], 1: [2], 2: [3], 3: [], 4: [5], 5: [6], 6: []}
        t = RootedTree(root=0, parent=parent, children=children)
        groups, remainder = extract_groups_90(t)
        assert len(groups) == 1
        assert groups[0].members == frozenset(range(7))
        assert remainder == []

    def test_removal_keeps_groups_at_least_four(self):
        for seed in range(20):
            n = 10 + 9 * seed
            pts = random_connected_udg(n, seed, max(1.0, math.sqrt(n)))
            tree = bounded_degree_mst(pts)
            groups, remainder = extract_groups_90(tree)
            assert all(len(g.members) >= 4 for g in groups)
            assert len(remainder) <= 3
            covered = set(remainder)
            for g in groups:
                assert not (covered & g.members)
                covered |= g.members
            assert covered == set(tree.parent)


class TestChooseRepresentatives:
    def test_four_chain_takes_all(self):
        children = {0: [1], 1: [2], 2: [3], 3: []}
        reps = choose_representatives([0, 1, 2, 3], 0, children)
        assert sorted(reps) == [0, 1, 2, 3]

    def test_star_takes_all(self):
        children = {0: [1, 2, 3], 1: [], 2: [], 3: []}
        reps = choose_representatives([0, 1, 2, 3], 0, children)
        assert sorted(reps) == [0, 1, 2, 3]

    def test_root_child_two_grandchildren(self):
        children = {0: [1], 1: [2, 3], 2: [], 3: []}
        reps = choose_representatives([0, 1, 2, 3], 0, children)
        assert sorted(reps) == [0, 1, 2, 3]

    def test_larger_group_keeps_reps_close(self):
        # root with four 3-chains: reps stay within hop 2 of each other
        children = {0: [1, 4, 7, 10]}
        for base in (1, 4, 7, 10):
            children[base] = [base + 1]
            children[base + 1] = [base + 2]
            children[base + 2] = []
        members = list(range(13))
        reps = choose_representatives(members, 0, children)
        assert 0 in reps
        assert len(reps) == 4


class TestOrientAll90:
    def test_four_points_one_group(self):
        pts = [P(0, 0, 0.9), P(1, 0.7, 0.3), P(2, 0.1, 0), P(3, 0.9, 1.0)]
        a = orient_all_90(pts)
        r = min_strong_radius(pts, a)
        assert r is not None and r <= 3.0 + 1e-9

    def test_collinear_seven(self):
        pts = collinear_witness(7)
        a = orient_all_90(pts)
        r = min_strong_radius(pts, a)
        assert r is not None and r <= RADIUS_90 + 1e-9

    def test_hundred_points_seed_one(self):
        pts = random_connected_udg(100, 1, 10.0)
        a = orient_all_90(pts)
        assert a.guaranteed_radius == pytest.approx(RADIUS_90)
        assert strongly_connected(build_comm_graph(pts, a, r_override=RADIUS_90))

    def test_small_input_delegates(self):
        pts = [P(0, 0, 0), P(1, 0.6, 0.4), P(2, 1.2, 0)]
        a = orient_all_90(pts)
        assert a.guaranteed_radius == pytest.approx(2.0)
        assert strongly_connected(build_comm_graph(pts, a, r_override=2.0))

    def test_pointer_edges_short(self):
        # every non-representative points at a representative within distance 3
        for seed in (3, 11, 19):
            pts = random_connected_udg(80, seed, 9.0)
            tree = bounded_degree_mst(pts)
            groups, _ = extract_groups_90(tree)
            by_id = {p.id: p for p in pts}
            for g in groups:
                for m in g.members:
                    if m in g.representatives:
                        continue
                    nearest = min(by_id[m].dist(by_id[r]) for r in g.representatives)
                    assert nearest <= 3.0 + 1e-9

    def test_hex_lattice_degenerate_groups(self):
        # lattice subtrees can make every root-containing 4-subset degenerate
        # while the group is not collinear; the covering-search fallback
        # still produces a verified assignment
        coords = []
        for q in range(-2, 3):
            for r in range(-2, 3):
                if abs(q + r) <= 2:
                    coords.append((q + r / 2.0, r * math.sqrt(3) / 2.0))
        pts = [P(i, x, y) for i, (x, y) in enumerate(coords)]
        a = orient_all_90(pts)
        r = min_strong_radius(pts, a)
        assert r is not None and r <= RADIUS_90 + 1e-9

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            orient_all_90([P(0, 0, 0)])

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_coincident_points(self, n):
        with pytest.raises(DuplicatePoint):
            orient_all_90([P(i, 0.5 * i, 0) for i in range(n - 1)] + [P(n - 1, 0, 0)])

    @pytest.mark.parametrize(
        "pts",
        [
            [P(0, 0, 0), P(1, 0, 0), P(2, 5, 0)],
            [P(0, 0, 0), P(1, 0.5, 0), P(2, 1, 0), P(3, 1, 0), P(4, 9, 0)],
        ],
    )
    def test_coincident_checked_before_connectivity(self, pts):
        with pytest.raises(DuplicatePoint):
            orient_all_90(pts)

    @pytest.mark.parametrize(
        "pts",
        [
            [P(0, 0, 0), P(1, 0.5, 0), P(2, 3, 0)],
            [P(0, 0, 0), P(1, 0.5, 0), P(2, 1, 0), P(3, 0.5, 0.5), P(4, 9, 9)],
        ],
    )
    def test_disconnected(self, pts):
        with pytest.raises(DisconnectedInput):
            orient_all_90(pts)

    def test_rule_miss_takes_the_plane_cover_search(self, monkeypatch):
        # a general-position group whose four-point rule misses is searched
        # at radius 7, like a degenerate group, and the result still checks out
        searched = []
        real_search = orient90.search_cover_orientation

        def search(quad, r):
            searched.append(r)
            return real_search(quad, r)

        monkeypatch.setattr(orient90, "four_point_thetas", lambda qc: None)
        monkeypatch.setattr(orient90, "search_cover_orientation", search)
        pts = random_connected_udg(40, 11, math.sqrt(40))
        a = orient_all_90(pts)
        assert searched and set(searched) == {RADIUS_90}
        assert len(searched) == len(a.diagnostics["group_sizes"])
        assert is_strongly_connected_at(pts, a, RADIUS_90)

    def test_square_grid(self):
        pts = [P(i, float(i % 6), float(i // 6)) for i in range(36)]
        a = orient_all_90(pts)
        assert strongly_connected(build_comm_graph(pts, a, r_override=RADIUS_90))

    def test_random_suite_strong_at_seven(self):
        for seed in range(30):
            n = 5 + 6 * seed
            pts = random_connected_udg(n, seed + 200, max(1.0, math.sqrt(n)))
            a = orient_all_90(pts)
            r = min_strong_radius(pts, a)
            assert r is not None and r <= RADIUS_90 + 1e-9
            if a.diagnostics["all_groups_full"]:
                assert a.diagnostics["applicable_bound"] == 5.0
            assert r <= a.diagnostics["applicable_bound"] + 1e-9

    def test_odd_collinear_groups_strong_at_seven(self):
        # the last point of a collinear group faces back along the line; with
        # strict alternation an odd group left it facing away from everyone
        bad = []
        for name, pts in collinear_group_instances():
            a = orient_all_90(pts)
            r = min_strong_radius(pts, a)
            if not is_strongly_connected_at(pts, a, RADIUS_90) or r is None or r > RADIUS_90 + 1e-9:
                bad.append((name, r))
        assert bad == []
