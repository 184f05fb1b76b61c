"""The closed-wedge rule ``verifier._wedge_rule`` against its scalar forms (the
per-point coverage-mask loop kept in the oracles and the public
``geometry.point_in_wedge``) and against the rule it replaced, which folded
angle differences with ``np.mod`` (``oracles.fold_wedge_rule``): the same
``inside`` everywhere, and bitwise the same distances wherever the verifier
returns one."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import comm_matrix, fold_wedge_rule, loop_coverage_mask
from sectornet import verifier
from sectornet.fourpoint import QUARTER, _search_grid
from sectornet.geometry import EPS, Point, Wedge, point_in_wedge
from sectornet.instances import random_connected_udg
from sectornet.orientation import OrientationAssignment
from sectornet.topology import as_coords
from sectornet.verifier import (
    _bottleneck_level,
    _coverage_masks,
    _row_masks,
    _turn,
    _wedge_edges,
    _wedge_rule,
    build_comm_graph,
    candidate_bisectors,
    feasible_by_bruteforce,
    is_strongly_connected_at,
    min_strong_radius,
)

PI = math.pi
APERTURES = (PI / 2, 2 * PI / 3, PI)


def as_complex(xy):
    """Coordinates on the last axis as complex numbers x + iy."""
    return np.ascontiguousarray(xy, dtype=float).view(complex)[..., 0]


def rule(apex, theta, alpha, targets):
    """dist and inside of the verifier's rule in the oracle's signature:
    coordinates on the last axis of ``apex`` and ``targets``."""
    d = as_complex(targets) - as_complex(apex)
    turn = _turn(np.ravel(theta)).reshape(np.shape(theta))
    return np.hypot(d.real, d.imag), _wedge_rule(d, turn, alpha)


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
                dist, inside = rule(
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
            dist, inside = rule(
                np.zeros((1, 1, 2)), np.zeros((1, 1)), alpha, np.array(targets)[None, :]
            )
            got = (inside & (dist <= 1.0 + EPS) & (dist > 0.0))[0].tolist()
            assert got == [True, True, True, False, True, False]
            assert got == [point_in_wedge(wedge, Point(1, x, y)) for x, y in targets]

    def test_one_aperture_per_apex(self):
        apex = np.zeros((2, 2))
        target = np.array([[0.0, 1.0]])
        _, inside = rule(
            apex[:, None], np.zeros((2, 1)), np.array([[PI / 2], [PI]]), target[None, :]
        )
        assert inside[:, 0].tolist() == [False, True]


def bits(x):
    """The float64 values of x as integers, so that equality is bitwise."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def lattice(kind, k, offset):
    """Exact k x k square (spacing 1) or hex (spacing 1, rows sqrt(3)/2 apart)
    lattice shifted by ``offset`` on both axes."""
    h = math.sqrt(3.0) / 2.0 if kind == "hex" else 1.0
    shift = 0.5 if kind == "hex" else 0.0
    return np.array(
        [(offset + i + shift * (j % 2), -offset + j * h) for j in range(k) for i in range(k)]
    )


def fifteen_degrees(n, rng):
    """Bisectors on multiples of 15 degrees, also beyond one turn either way."""
    return np.radians(15.0 * np.array([rng.randrange(-48, 49) for _ in range(n)]))


def with_coincident_pairs(coords, rng, count):
    """The coordinates plus ``count`` copies of randomly chosen points."""
    return np.concatenate([coords, coords[rng.sample(range(len(coords)), count)]])


def instances():
    """(label, coords, theta): jittered blobs with random bisectors, exact
    lattices at offsets up to 1e9 with bisectors on multiples of 15 degrees,
    and both again with coincident pairs."""
    rng = random.Random(11)
    for n, seed in ((40, 1), (90, 2), (150, 3)):
        coords = as_coords(random_connected_udg(n, seed, math.sqrt(n)))
        theta = np.array([rng.uniform(-2 * PI, 4 * PI) for _ in range(n)])
        yield f"blob n={n}", coords, theta
        yield f"blob n={n} coincident", with_coincident_pairs(coords, rng, 5), np.concatenate(
            [theta, theta[:5] + PI]
        )
    for kind in ("square", "hex"):
        for offset in (0.0, 1e3, 1e6, 123_456_789.0, 1e9):
            coords = lattice(kind, 9, offset)
            yield f"{kind} +{offset:g}", coords, fifteen_degrees(len(coords), rng)
            coords = with_coincident_pairs(coords, rng, 4)
            yield f"{kind} +{offset:g} coincident", coords, fifteen_degrees(len(coords), rng)


INSTANCES = list(instances())
IDS = [label for label, _, _ in INSTANCES]


def band_radii(coords):
    """Radii whose reach r + EPS lies within an ulp of some pairs' distance,
    where np.abs of a complex difference, up to 2 ulp off np.hypot, can
    misjudge the pair, plus a few plain ones."""
    dist, _ = fold_wedge_rule(coords[:, None], 0.0, PI, coords[None, :])
    pairs = np.unique(dist[dist > 0])
    radii = [1.0, 2.5, float(pairs[-1])]
    for d in random.Random(len(coords)).sample(pairs.tolist(), 6):
        radii += [float(np.nextafter(d, d + k)) - EPS for k in (-1, 1)] + [d - EPS]
    return radii


def assignment(theta, alpha, r=1.0):
    return OrientationAssignment(
        alpha=alpha, theta=dict(enumerate(theta.tolist())), guaranteed_radius=r
    )


def points(coords):
    return [Point(i, x, y) for i, (x, y) in enumerate(coords.tolist())]


@pytest.mark.parametrize("label, coords, theta", INSTANCES, ids=IDS)
class TestRotatedRuleMatchesFold:
    def test_every_apex_against_every_target(self, label, coords, theta):
        for alpha in APERTURES + (1e-3, 2 * PI - 1e-3):
            args = coords[:, None], theta[:, None], alpha, coords[None, :]
            dist, inside = fold_wedge_rule(*args)
            got_dist, got_inside = rule(*args)
            assert np.array_equal(got_inside, inside)
            assert np.array_equal(bits(got_dist), bits(dist))

    def test_one_aperture_per_apex_up_to_a_full_turn(self, label, coords, theta):
        # covers_plane passes each wedge's aperture as a column
        rng = np.random.default_rng(len(coords))
        alpha = rng.choice([PI / 2, PI, 1.5 * PI, 2 * PI - 2 * EPS, 2 * PI], size=(len(coords), 1))
        _, inside = fold_wedge_rule(coords[:, None], theta[:, None], alpha, coords[None, :])
        assert np.array_equal(rule(coords[:, None], theta[:, None], alpha, coords[None, :])[1], inside)
        assert inside[alpha[:, 0] == 2 * PI].all()

    def test_wedge_edges_and_their_distances(self, label, coords, theta):
        # each pair is measured once, and both directions take its distance
        i, j = np.triu_indices(len(coords), k=1)
        d = np.hypot(*(coords[j] - coords[i]).T)
        for alpha in (PI / 2, PI):
            a, b, dist = _wedge_edges(i, j, d, coords, _turn(theta), alpha)
            fa, fb = np.concatenate([i, j]), np.concatenate([j, i])
            fdist, finside = fold_wedge_rule(coords[fa], theta[fa], alpha, coords[fb])
            assert np.array_equal(a, fa[finside]) and np.array_equal(b, fb[finside])
            assert np.array_equal(bits(dist), bits(fdist[finside]))

    def test_matrix_route_of_build_comm_graph(self, label, coords, theta, monkeypatch):
        monkeypatch.setattr(verifier, "SPARSE_MIN_N", math.inf)
        pts = points(coords)
        for alpha in (PI / 2, PI):
            dist, inside = fold_wedge_rule(coords[:, None], theta[:, None], alpha, coords[None, :])
            for r in band_radii(coords):
                expected = (dist <= r + EPS) & inside
                np.fill_diagonal(expected, False)
                g = build_comm_graph(pts, assignment(theta, alpha), r_override=r)
                assert np.array_equal(g.matrix, expected), r

    def test_matrix_route_of_min_strong_radius(self, label, coords, theta, monkeypatch):
        monkeypatch.setattr(verifier, "SPARSE_MIN_N", math.inf)
        pts = points(coords)
        for alpha in (PI / 2, PI, 2 * PI):
            dist, inside = fold_wedge_rule(coords[:, None], theta[:, None], alpha, coords[None, :])
            np.fill_diagonal(dist, np.inf)
            w = np.where(inside, dist, np.inf)
            b = max(_bottleneck_level(w), _bottleneck_level(w.T))
            expected = None if b == np.inf else float(dist[dist + EPS >= b].min())
            got = min_strong_radius(pts, assignment(theta, alpha))
            assert got == expected and (got is None or bits(got) == bits(expected))

    def test_coverage_masks(self, label, coords, theta):
        pts = points(coords[:12])
        for alpha in (PI / 2, PI):
            for i in range(len(pts)):
                thetas = theta[:12].tolist()
                dist, inside = fold_wedge_rule(
                    coords[i : i + 1][None], theta[:12, None], alpha, coords[None, :12]
                )
                covered = inside & (dist <= 1.5 + EPS)
                covered[:, i] = False
                assert _coverage_masks(pts, i, thetas, alpha, 1.5) == _row_masks(covered)


def test_band_radii_catch_the_abs_shortcut():
    # deciding by np.abs alone would get some pair wrong at some radius of
    # the build_comm_graph test above, so that test checks the exact redo
    wrong = 0
    for _, coords, _ in INSTANCES:
        z = as_complex(coords)
        d = z[None, :] - z[:, None]
        near, dist = np.abs(d), np.hypot(d.real, d.imag)
        wrong += sum(((near <= r + EPS) != (dist <= r + EPS)).any() for r in band_radii(coords))
    assert wrong > 0


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
    rows = _row_masks(comm_matrix(build_comm_graph(pts, assignment)))
    for i, p in enumerate(pts):
        assert rows[i] == _coverage_masks(pts, i, [assignment.theta[p.id]], alpha, r)[0]
