import math
import random

import pytest

from sectornet import fourpoint, orient90
from sectornet.errors import ConstructionInvariantViolated, NotGeneralPosition
from sectornet.fourpoint import FourPointResult, _dmax, orient_four, search_orient_four
from sectornet.geometry import Point, QuadKind, classify_quad, normalize_angle
from sectornet.orientation import OrientationAssignment
from sectornet.verifier import build_comm_graph, covers_plane, feasible_by_bruteforce, strongly_connected
from test_certificate import differential_instances

PI = math.pi


def P(i, x, y):
    return Point(i, float(x), float(y))


def random_general_quad(rng, scale=2.0):
    while True:
        pts = [P(i, rng.uniform(0, scale), rng.uniform(0, scale)) for i in range(4)]
        if classify_quad(pts).kind is not QuadKind.DEGENERATE:
            return pts


def assert_guarantees(pts, res):
    # the quad may carry any distinct ids; build_comm_graph takes 0..n-1
    rank = {p.id: k for k, p in enumerate(sorted(pts, key=lambda p: p.id))}
    quad = [Point(rank[p.id], p.x, p.y) for p in pts]
    theta = {rank[i]: t for i, t in res.theta.items()}
    a = OrientationAssignment(alpha=0.5 * PI, theta=theta, guaranteed_radius=res.dmax)
    assert strongly_connected(build_comm_graph(quad, a))
    assert covers_plane(a.wedges(quad))


class TestOrientFour:
    def test_unit_square(self):
        pts = [P(0, 0, 1), P(1, 1, 1), P(2, 1, 0), P(3, 0, 0)]
        res = orient_four(pts)
        assert res.case == "convex"
        assert res.dmax == pytest.approx(math.sqrt(2))
        assert_guarantees(pts, res)

    def test_nonconvex_interior_point(self):
        pts = [P(0, 0, 0), P(1, 2, 2), P(2, 4, 0), P(3, 2, 1)]
        res = orient_four(pts)
        assert res.case == "nonconvex"
        assert res.dmax == pytest.approx(4.0)
        assert_guarantees(pts, res)

    def test_collinear_rejected(self):
        with pytest.raises(NotGeneralPosition):
            orient_four([P(i, i, 0) for i in range(4)])

    def test_random_quads(self):
        rng = random.Random(101)
        for _ in range(200):
            pts = random_general_quad(rng)
            res = orient_four(pts)
            assert_guarantees(pts, res)

    def test_far_field_partition(self):
        # the four quarter intervals tile the circle: sorted bisectors are
        # exactly pi/2 apart
        rng = random.Random(55)
        for _ in range(50):
            pts = random_general_quad(rng)
            res = orient_four(pts)
            thetas = sorted(res.theta.values())
            gaps = [normalize_angle(b - a) for a, b in zip(thetas, thetas[1:])]
            gaps.append(normalize_angle(thetas[0] - thetas[-1]))
            for g in gaps:
                assert g == pytest.approx(PI / 2, abs=1e-9)

    def test_scaling_invariance(self):
        rng = random.Random(77)
        for _ in range(30):
            pts = random_general_quad(rng)
            s = rng.uniform(0.5, 20.0)
            scaled = [P(p.id, p.x * s, p.y * s) for p in pts]
            r1 = orient_four(pts)
            r2 = orient_four(scaled)
            assert r2.dmax == pytest.approx(s * r1.dmax, rel=1e-12)
            for i in r1.theta:
                assert r2.theta[i] == pytest.approx(r1.theta[i], abs=1e-9)


class TestRuleMiss:
    """orient_four raises instead of falling back to the search."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        for name in ("search_orient_four", "search_cover_orientation"):
            monkeypatch.setattr(fourpoint, name, lambda *args, name=name: calls.append(name))
        return calls

    @pytest.mark.parametrize("case, pts", [
        ("convex", [P(0, 0, 1), P(1, 1, 1), P(2, 1, 0), P(3, 0, 0)]),
        ("nonconvex", [P(0, 0, 0), P(1, 2, 2), P(2, 4, 0), P(3, 2, 1)]),
    ])
    def test_rule_returns_none(self, monkeypatch, searches, case, pts):
        monkeypatch.setattr(fourpoint, "four_point_thetas", lambda qc: None)
        with pytest.raises(ConstructionInvariantViolated) as err:
            orient_four(pts)
        assert str(err.value) == (
            f"four-point rule failed on a {case} quadruple; "
            "preserve this instance as a regression fixture"
        )
        assert searches == []

    def test_rule_turns_one_bisector(self, monkeypatch, searches):
        pts = [P(0, 0, 1), P(1, 1, 1), P(2, 1, 0), P(3, 0, 0)]
        real_rule = fourpoint.four_point_thetas

        def turned(qc):
            theta = real_rule(qc)
            return {**theta, 2: theta[2] + PI}

        monkeypatch.setattr(fourpoint, "four_point_thetas", turned)
        with pytest.raises(ConstructionInvariantViolated, match="^four-point rule failed on a convex"):
            orient_four(pts)
        assert searches == []


def test_rule_holds_the_lemma_in_every_90_degree_group(monkeypatch):
    """Every four-point rule call of orient_all_90 on the differential
    instances gives a theta strongly connected at dmax whose wedges cover the
    plane. orient_all_90 relies on this lemma without checking it per group."""
    quads = []
    real_rule = orient90.four_point_thetas

    def rule(qc):
        theta = real_rule(qc)
        quads.append((list(qc.hull) + ([qc.interior] if qc.interior else []), theta))
        return theta

    monkeypatch.setattr(orient90, "four_point_thetas", rule)
    for _, pts in differential_instances():
        orient90.orient_all_90(pts)
    assert len(quads) > 1000, len(quads)
    for quad, theta in quads:
        assert theta is not None
        assert_guarantees(quad, FourPointResult(theta=theta, dmax=_dmax(quad), case=""))


class TestSearchOrientFour:
    def test_unit_square(self):
        pts = [P(0, 0, 1), P(1, 1, 1), P(2, 1, 0), P(3, 0, 0)]
        res = search_orient_four(pts)
        assert_guarantees(pts, res)

    def test_random_quad_seed7(self):
        rng = random.Random(7)
        pts = random_general_quad(rng)
        res = search_orient_four(pts)
        assert_guarantees(pts, res)

    def test_near_degenerate_rejected(self):
        pts = [P(0, 0, 0), P(1, 1, 1e-13), P(2, 2, 0), P(3, 1, 1)]
        with pytest.raises(NotGeneralPosition):
            search_orient_four(pts)

    def test_existence_matches_constructive(self):
        rng = random.Random(31)
        for _ in range(15):
            pts = random_general_quad(rng)
            orient_four(pts)  # succeeds
            res = search_orient_four(pts)  # must also find one
            assert_guarantees(pts, res)


@pytest.mark.parametrize(
    "quad",
    [
        [P(0, 0, 1), P(1, 1.1, 1), P(2, 1, 0), P(3, 0, 0.2)],
        [P(0, 0, 0), P(1, 2, 2), P(2, 4, 0), P(3, 2, 1)],
    ],
    ids=["convex", "nonconvex"],
)
def test_any_distinct_ids_give_the_same_theta(quad):
    # the four-point and brute-force helpers work by position, so ids 2, 5, 9
    # and 11 give the theta of ids 0 to 3, remapped
    ids = (2, 5, 9, 11)
    relabelled = [P(ids[p.id], p.x, p.y) for p in reversed(quad)]

    def remapped(theta):
        return {ids[i]: t for i, t in theta.items()}

    assert orient_four(relabelled).theta == remapped(orient_four(quad).theta)
    assert search_orient_four(relabelled).theta == remapped(search_orient_four(quad).theta)
    found, a = feasible_by_bruteforce(quad, 0.5 * PI, _dmax(quad))
    found_relabelled, b = feasible_by_bruteforce(relabelled, 0.5 * PI, _dmax(quad))
    assert found and found_relabelled
    assert b.theta == remapped(a.theta)
