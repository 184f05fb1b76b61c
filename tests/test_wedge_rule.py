"""The closed-wedge rule ``verifier._wedge_rule`` against its scalar forms: the
per-point coverage-mask loop kept in the oracles and the public
``geometry.point_in_wedge``."""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_coverage_mask
from sectornet.fourpoint import QUARTER, _search_grid
from sectornet.geometry import EPS, Point, Wedge, point_in_wedge
from sectornet.orientation import OrientationAssignment
from sectornet.verifier import (
    _coverage_masks,
    _row_masks,
    _wedge_rule,
    build_comm_graph,
    candidate_bisectors,
    feasible_by_bruteforce,
    is_strongly_connected_at,
)

PI = math.pi
APERTURES = (PI / 2, 2 * PI / 3, PI)


def point_sets(rng, count):
    """Random sets of 2 to 5 points plus integer-lattice sets, ids shuffled."""
    for k in range(count):
        n = rng.randint(2, 5)
        if k % 3 == 2:
            cells = rng.sample([(x, y) for x in range(3) for y in range(3)], n)
            coords = [(float(x), float(y)) for x, y in cells]
        else:
            coords = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(n)]
        ids = rng.sample(range(n), n)
        yield sorted((Point(i, x, y) for i, (x, y) in zip(ids, coords)), key=lambda p: p.id)


class TestCoverageMasksMatchLoop:
    def test_brute_force_grids(self):
        rng = random.Random(3)
        for pts in point_sets(rng, 150):
            alpha = rng.choice(APERTURES)
            r = rng.choice([1.0, 2.0, math.sqrt(2), rng.uniform(0.3, 3.0)])
            for i in range(len(pts)):
                thetas = candidate_bisectors(pts, i, alpha)
                expected = [loop_coverage_mask(pts, i, t, alpha, r) for t in thetas]
                assert _coverage_masks(pts, i, thetas, alpha, r) == expected

    def test_nudged_boundary_variants_split(self):
        # A point on the boundary ray is covered by the aligned bisector and
        # by a 1e-7 turn into the wedge, and not by a 1e-7 turn out of it.
        pts = [Point(0, 0.0, 0.0), Point(1, 1.0, 0.0)]
        thetas = [PI / 4, PI / 4 - 1e-7, PI / 4 + 1e-7]
        expected = [loop_coverage_mask(pts, 0, t, PI / 2, 1.0) for t in thetas]
        assert expected == [0b10, 0b10, 0]
        assert _coverage_masks(pts, 0, thetas, PI / 2, 1.0) == expected

    def test_plane_cover_search_grids(self):
        rng = random.Random(4)
        quads = [p for p in point_sets(rng, 200) if len(p) == 4]
        quads.append([Point(i, float(i), 0.0) for i in range(4)])
        quads.append([Point(0, 0.0, 0.0), Point(1, 1.0, 0.0), Point(2, 0.0, 1.0), Point(3, 1.0, 1.0)])
        assert len(quads) > 30
        for pts in quads:
            grid = _search_grid(pts)
            dmax = max(p.dist(q) for p in pts for q in pts)
            for r in (dmax, 0.8 * dmax):
                for i in range(4):
                    expected = [loop_coverage_mask(pts, i, t, QUARTER, r) for t in grid]
                    assert _coverage_masks(pts, i, grid, QUARTER, r) == expected


class TestWedgeRuleMatchesPointInWedge:
    def targets(self, rng, apex, theta, alpha, r):
        """Random points near the wedge, points on both boundary rays, along
        the bisector at r and r +- 2e-9, and the apex itself."""
        out = [
            (apex.x + rng.uniform(-1.5, 1.5) * r, apex.y + rng.uniform(-1.5, 1.5) * r)
            for _ in range(40)
        ]
        for d in (theta - 0.5 * alpha, theta + 0.5 * alpha, theta):
            for t in (0.3 * r, r, r - 2e-9, r + 2e-9):
                out.append((apex.x + t * math.cos(d), apex.y + t * math.sin(d)))
        out.append((apex.x, apex.y))
        return out

    def test_seeded_wedges(self):
        rng = random.Random(5)
        for alpha in (PI / 2, PI):
            for _ in range(100):
                apex = Point(0, rng.uniform(-3, 3), rng.uniform(-3, 3))
                theta = rng.uniform(0, 2 * PI)
                r = rng.uniform(0.2, 4.0)
                wedge = Wedge(apex, theta, alpha, r)
                targets = self.targets(rng, apex, wedge.theta, alpha, r)
                dist, inside = _wedge_rule(
                    np.array([[[apex.x, apex.y]]]),
                    np.array([[wedge.theta]]),
                    alpha,
                    np.array(targets)[None, :],
                )
                got = (inside & (dist <= r + EPS) & (dist > 0.0))[0].tolist()
                assert got == [point_in_wedge(wedge, Point(1, x, y)) for x, y in targets]

    def test_boundary_and_radius_cases(self):
        apex = Point(0, 0.0, 0.0)
        for alpha in (PI / 2, PI):
            wedge = Wedge(apex, 0.0, alpha, 1.0)
            targets = [
                (math.cos(0.5 * alpha), math.sin(0.5 * alpha)),
                (math.cos(0.5 * alpha), -math.sin(0.5 * alpha)),
                (1.0, 0.0),
                (1.0 + 2e-9, 0.0),
                (1.0 - 2e-9, 0.0),
                (0.0, 0.0),
            ]
            dist, inside = _wedge_rule(
                np.zeros((1, 1, 2)), np.zeros((1, 1)), alpha, np.array(targets)[None, :]
            )
            got = (inside & (dist <= 1.0 + EPS) & (dist > 0.0))[0].tolist()
            assert got == [True, True, True, False, True, False]
            assert got == [point_in_wedge(wedge, Point(1, x, y)) for x, y in targets]

    def test_one_aperture_per_apex(self):
        apex = np.zeros((2, 2))
        target = np.array([[0.0, 1.0]])
        _, inside = _wedge_rule(
            apex[:, None], np.zeros((2, 1)), np.array([[PI / 2], [PI]]), target[None, :]
        )
        assert inside[:, 0].tolist() == [False, True]


coordinate = st.floats(min_value=0.0, max_value=1.5, allow_nan=False).map(lambda v: round(v, 3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    coords=st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=5, unique=True),
    alpha=st.sampled_from(APERTURES),
    r=st.floats(min_value=0.2, max_value=4.0),
)
def test_brute_force_witness_passes_and_graph_rows_match_masks(coords, alpha, r):
    pts = [Point(i, x, y) for i, (x, y) in enumerate(coords)]
    feasible, witness = feasible_by_bruteforce(pts, alpha, r)
    if feasible:
        assert is_strongly_connected_at(pts, witness, r)
        assignment = witness
    else:
        assert witness is None
        assignment = OrientationAssignment(
            alpha=alpha, theta={p.id: 0.7 * p.id for p in pts}, guaranteed_radius=r
        )
    rows = _row_masks(build_comm_graph(pts, assignment).adj)
    for i, p in enumerate(pts):
        assert rows[i] == _coverage_masks(pts, i, [assignment.theta[p.id]], alpha, r)[0]
