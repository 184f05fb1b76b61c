import math
import random

import pytest

from sectornet.errors import DisconnectedInput, DuplicatePoint, TooFewPoints
from sectornet.geometry import Point, Wedge, angle_diff, direction, point_in_wedge
from sectornet.instances import random_connected_udg
from sectornet.orient180 import (
    RADIUS_180,
    orient_all_180,
    pair_smallest_angle,
    partition_groups_180,
    plan_groups_180,
)
from sectornet.topology import bounded_degree_mst
from sectornet.verifier import build_comm_graph, min_strong_radius, strongly_connected

PI = math.pi


def P(i, x, y):
    return Point(i, float(x), float(y))


def kids_at(angles_deg, dist=1.0):
    parent = P(0, 0, 0)
    kids = [
        P(i + 1, dist * math.cos(math.radians(a)), dist * math.sin(math.radians(a)))
        for i, a in enumerate(angles_deg)
    ]
    return parent, kids


class TestPartition:
    def test_path_of_three(self):
        # a(root) - b - c: b is the only height-one node, then the root is left
        pts = [P(0, 0, 1), P(1, 0.8, 0.6), P(2, 1.6, 0.2)]
        tree = bounded_degree_mst(pts)
        assert tree.root == 0
        groups = partition_groups_180(tree)
        assert [(g.parent, g.members) for g in groups] == [(1, (2,)), (0, ())]
        assert groups[0].attached_above == 0 and groups[1].attached_above is None

    def test_star_root_absorbed(self):
        # the root itself reaches height one and forms the final group
        pts = [P(0, 0, 0.3), P(1, -0.9, 0), P(2, 0.9, 0)]
        tree = bounded_degree_mst(pts)
        groups = partition_groups_180(tree)
        assert len(groups) == 1
        assert groups[0].parent == 0 and sorted(groups[0].members) == [1, 2]

    def test_multilevel_regression(self):
        # two-level tree: leaves hang under 1 and 2, which hang under root 0
        pts = [
            P(0, 0.0, 2.0),
            P(1, -0.5, 1.5),
            P(2, 0.5, 1.5),
            P(3, -1.1, 0.9),
            P(4, -0.2, 0.7),
            P(5, 0.9, 0.8),
        ]
        tree = bounded_degree_mst(pts)
        assert tree.root == 0
        assert sorted(tree.children[1]) == [3, 4] and tree.children[2] == [5]
        groups = partition_groups_180(tree)
        assert [(g.parent, tuple(sorted(g.members))) for g in groups] == [
            (1, (3, 4)),
            (2, (5,)),
            (0, ()),
        ]
        # groups partition the node set
        seen = sorted(i for g in groups for i in (g.parent, *g.members))
        assert seen == [0, 1, 2, 3, 4, 5]


class TestPairSmallestAngle:
    def test_three_children_smallest_gap(self):
        p, kids = kids_at([0, 100, 250])
        a, b = pair_smallest_angle(p, kids)
        assert {a.id, b.id} == {1, 2}

    def test_equilateral_any_pair_at_sqrt3(self):
        p, kids = kids_at([0, 120, 240])
        a, b = pair_smallest_angle(p, kids)
        assert a.dist(b) == pytest.approx(math.sqrt(3))
        assert pair_smallest_angle(p, kids) == (a, b)  # deterministic

    def test_exact_tie_broken_by_id(self):
        # directions 0, pi/2, pi are exact floats, so both 90-degree pairs tie
        p = P(0, 0, 0)
        kids = [P(1, 1, 0), P(2, 0, 1), P(3, -1, 0)]
        a, b = pair_smallest_angle(p, kids)
        assert (a.id, b.id) == (1, 2)

    def test_four_children(self):
        p, kids = kids_at([0, 90, 180, 270])
        a, b = pair_smallest_angle(p, kids)
        assert (a.id, b.id) == (1, 2)
        assert a.dist(b) == pytest.approx(math.sqrt(2))

    def test_bound_sqrt3_for_three_or_four_children(self):
        rng = random.Random(17)
        for _ in range(300):
            k = rng.choice([3, 4])
            p, kids = kids_at(
                [rng.uniform(0, 360) for _ in range(k)], dist=1.0
            )
            kids = [
                P(c.id, c.x * rng.uniform(0.3, 1.0), c.y * rng.uniform(0.3, 1.0))
                for c in kids
            ]
            kids = [c for c in kids if (c.x, c.y) != (0.0, 0.0)]
            if len(kids) < 3:
                continue
            a, b = pair_smallest_angle(p, kids)
            assert a.dist(b) <= math.sqrt(3) + 1e-9


class TestOrientAll180:
    def test_two_points(self):
        pts = [P(0, 0, 0), P(1, 1, 0)]
        a = orient_all_180(pts)
        assert a.theta[0] == pytest.approx(PI / 2)
        assert a.theta[1] == pytest.approx(3 * PI / 2)
        assert min_strong_radius(pts, a) == pytest.approx(1.0)

    def test_collinear_triple_strong_at_two(self):
        pts = [P(0, 0, 0), P(1, 1, 0), P(2, 2, 0)]
        a = orient_all_180(pts)
        assert strongly_connected(build_comm_graph(pts, a, r_override=2.0))

    def test_triplet_rule_with_collinear_child(self):
        # middle root with children on both sides exercises the triplet rule
        # with the second child exactly on the boundary line
        pts = [P(0, 0, 0), P(1, 1, 0), P(2, -1, 0)]
        a = orient_all_180(pts)
        assert strongly_connected(build_comm_graph(pts, a, r_override=RADIUS_180))

    def test_fifty_point_instance_seed_42(self):
        pts = random_connected_udg(50, 42, 7.0)
        a = orient_all_180(pts)
        assert a.guaranteed_radius == pytest.approx(RADIUS_180)
        assert strongly_connected(build_comm_graph(pts, a, r_override=RADIUS_180))

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            orient_all_180([P(0, 0, 0)])

    def test_disconnected(self):
        with pytest.raises(DisconnectedInput):
            orient_all_180([P(0, 0, 0), P(1, 4, 0)])

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_coincident_points(self, n):
        with pytest.raises(DuplicatePoint):
            orient_all_180([P(i, 0.5 * i, 0) for i in range(n - 1)] + [P(n - 1, 0, 0)])

    def test_coincident_checked_before_connectivity(self):
        with pytest.raises(DuplicatePoint):
            orient_all_180([P(0, 0, 0), P(1, 0.5, 0), P(2, 0.5, 0), P(3, 9, 0)])

    def test_random_suite_strong_at_bound(self):
        for seed in range(30):
            n = 5 + 6 * seed
            pts = random_connected_udg(n, seed, max(1.0, math.sqrt(n)))
            a = orient_all_180(pts)
            r = min_strong_radius(pts, a)
            assert r is not None and r <= RADIUS_180 + 1e-9


def directional_cover(theta, apex, q):
    w = Wedge(apex, theta, PI, 1e18)
    return point_in_wedge(w, q)


def theta_pairs(group, theta):
    """Members of one group whose half-plane bisectors differ by pi: the pairs
    that take complementary half-planes."""
    ids = (group.parent,) + group.members
    return [
        (i, j)
        for k, i in enumerate(ids)
        for j in ids[k + 1 :]
        if abs(angle_diff(theta[i], theta[j]) - PI) <= 1e-9
    ]


class TestPairProperties:
    def test_plane_partition_of_pairs(self):
        rng = random.Random(23)
        for seed in range(20):
            pts = random_connected_udg(20, seed, 4.0)
            tree = bounded_degree_mst(pts)
            groups, theta = plan_groups_180(pts, tree)
            by_id = {p.id: p for p in pts}
            for g in groups:
                for i, j in theta_pairs(g, theta):
                    for _ in range(40):
                        q = P(99999, rng.uniform(-8, 8), rng.uniform(-8, 8))
                        assert directional_cover(theta[i], by_id[i], q) or directional_cover(
                            theta[j], by_id[j], q
                        )

    def test_unit_hop_property(self):
        rng = random.Random(29)
        for seed in range(20):
            pts = random_connected_udg(20, seed + 50, 4.0)
            tree = bounded_degree_mst(pts)
            groups, theta = plan_groups_180(pts, tree)
            by_id = {p.id: p for p in pts}
            for g in groups:
                # every parent with children pairs with exactly one of them
                partners = [j for i, j in theta_pairs(g, theta) if i == g.parent]
                assert len(partners) == (1 if g.members else 0)
                if not partners:
                    continue
                p = by_id[g.parent]
                partner = by_id[partners[0]]
                for _ in range(40):
                    ang = rng.uniform(0, 2 * PI)
                    rad = rng.uniform(0, 1)
                    q = P(99999, p.x + rad * math.cos(ang), p.y + rad * math.sin(ang))
                    if (q.x, q.y) in {(p.x, p.y), (partner.x, partner.y)}:
                        continue
                    assert directional_cover(theta[p.id], p, q) or directional_cover(
                        theta[partner.id], partner, q
                    )

    def test_pair_mutual_visibility_on_boundary(self):
        pts = random_connected_udg(30, 77, 5.0)
        tree = bounded_degree_mst(pts)
        groups, theta = plan_groups_180(pts, tree)
        by_id = {p.id: p for p in pts}
        for g in groups:
            for i, j in theta_pairs(g, theta):
                assert angle_diff(theta[i], direction(by_id[i], by_id[j])) <= PI / 2 + 1e-9
                assert angle_diff(theta[j], direction(by_id[j], by_id[i])) <= PI / 2 + 1e-9
