import math
import random

import pytest

from sectornet.errors import CoincidentPoints
from sectornet.geometry import (
    Point,
    QuadKind,
    Wedge,
    ccw_angle_between,
    classify_quad,
    direction,
    point_in_wedge,
)

PI = math.pi


def P(i, x, y):
    return Point(i, float(x), float(y))


class TestDirection:
    def test_positive_x_axis(self):
        assert direction(P(0, 0, 0), P(1, 1, 0)) == 0.0

    def test_positive_y_axis(self):
        assert direction(P(0, 0, 0), P(1, 0, 1)) == pytest.approx(PI / 2)

    def test_diagonal_down_left(self):
        assert direction(P(0, 1, 1), P(1, 0, 0)) == pytest.approx(5 * PI / 4)

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPoints):
            direction(P(0, 2, 3), P(1, 2, 3))

    def test_reverse_differs_by_pi(self):
        rng = random.Random(11)
        for _ in range(200):
            a = P(0, rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = P(1, rng.uniform(-5, 5), rng.uniform(-5, 5))
            if (a.x, a.y) == (b.x, b.y):
                continue
            d = abs(direction(a, b) - direction(b, a))
            assert min(d, 2 * PI - d) == pytest.approx(PI, abs=1e-12)


class TestPointInWedge:
    def setup_method(self):
        self.w = Wedge(P(0, 0, 0), 0.0, PI / 2, 1.0)

    def test_on_bisector_at_radius(self):
        assert point_in_wedge(self.w, P(1, 1, 0))

    def test_closed_angular_boundary(self):
        assert point_in_wedge(self.w, P(1, 0.5, 0.5))

    def test_radius_violation(self):
        assert not point_in_wedge(self.w, P(1, 0.8, 0.8))

    def test_apex_not_covered(self):
        assert not point_in_wedge(self.w, P(1, 0, 0))

    def test_monotone_in_radius(self):
        rng = random.Random(5)
        for _ in range(300):
            w1 = Wedge(P(0, 0, 0), rng.uniform(0, 2 * PI), rng.choice([PI / 2, PI]), rng.uniform(0.2, 2))
            w2 = Wedge(w1.apex, w1.theta, w1.alpha, w1.r + rng.uniform(0, 2))
            q = P(1, rng.uniform(-2, 2), rng.uniform(-2, 2))
            if point_in_wedge(w1, q):
                assert point_in_wedge(w2, q)

    def test_full_aperture_is_disk_test(self):
        rng = random.Random(6)
        for _ in range(300):
            w = Wedge(P(0, 0, 0), rng.uniform(0, 2 * PI), 2 * PI, 1.0)
            q = P(1, rng.uniform(-2, 2), rng.uniform(-2, 2))
            in_disk = 0 < math.hypot(q.x, q.y) <= 1.0 + 1e-9
            assert point_in_wedge(w, q) == in_disk


class TestClassifyQuad:
    def test_unit_square_clockwise(self):
        pts = [P(0, 0, 1), P(1, 1, 1), P(2, 1, 0), P(3, 0, 0)]
        qc = classify_quad(pts)
        assert qc.kind is QuadKind.CONVEX
        assert [p.id for p in qc.hull] == [0, 1, 2, 3]

    def test_triangle_with_interior(self):
        pts = [P(0, 0, 0), P(1, 2, 2), P(2, 4, 0), P(3, 2, 1)]
        qc = classify_quad(pts)
        assert qc.kind is QuadKind.TRIANGLE_WITH_INTERIOR
        assert {p.id for p in qc.hull} == {0, 1, 2}
        assert qc.interior.id == 3

    def test_collinear_degenerate(self):
        pts = [P(i, i, 0) for i in range(4)]
        assert classify_quad(pts).kind is QuadKind.DEGENERATE

    def test_duplicate_degenerate(self):
        pts = [P(0, 0, 0), P(1, 0, 0), P(2, 1, 1), P(3, 2, 0)]
        assert classify_quad(pts).kind is QuadKind.DEGENERATE

    def test_permutation_invariant(self):
        rng = random.Random(9)
        for _ in range(100):
            pts = [P(i, rng.uniform(0, 1), rng.uniform(0, 1)) for i in range(4)]
            base = classify_quad(pts)
            order = list(range(4))
            rng.shuffle(order)
            other = classify_quad([pts[i] for i in order])
            assert base.kind == other.kind
            if base.kind is not QuadKind.DEGENERATE:
                assert {p.id for p in base.hull} == {p.id for p in other.hull}
                if base.interior is not None:
                    assert base.interior.id == other.interior.id


class TestCcwAngle:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(0.0, PI / 2, PI / 2), (PI / 2, 0.0, 3 * PI / 2), (1.0, 1.0, 0.0)],
    )
    def test_examples(self, a, b, expected):
        assert ccw_angle_between(a, b) == pytest.approx(expected, abs=1e-12)
