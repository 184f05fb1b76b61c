import math
import random

import pytest

from oracles import exact_min_radius, quadratic_random_connected_udg
from sectornet.geometry import EPS, angle_diff, direction
from sectornet.instances import (
    SQRT3,
    Witness180,
    check_witness_180,
    collinear_witness,
    random_connected_udg,
    witness_180,
)
from sectornet.topology import build_udg, is_connected
from sectornet.verifier import feasible_by_bruteforce


class TestCollinearWitness:
    def test_two(self):
        pts = collinear_witness(2)
        assert [(p.x, p.y) for p in pts] == [(0.0, 0.0), (1.0, 0.0)]

    def test_four(self):
        pts = collinear_witness(4)
        assert [(p.x, p.y) for p in pts] == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]

    def test_one_rejected(self):
        with pytest.raises(ValueError):
            collinear_witness(1)

    def test_bruteforce_threshold(self):
        pts = collinear_witness(4)
        assert not feasible_by_bruteforce(pts, math.pi / 2, 2.0 - 1e-6)[0]
        assert feasible_by_bruteforce(pts, math.pi / 2, 2.0)[0]

    @pytest.mark.parametrize("n", range(3, 11))
    def test_exact_optimum_is_two(self, n):
        assert exact_min_radius(collinear_witness(n), math.pi / 2) == 2.0


class TestWitness180:
    def test_sizes(self):
        assert len(witness_180(2).points) == 10
        assert len(witness_180(3).points) == 13

    def test_exact_optimum_is_sqrt3(self):
        r = exact_min_radius(witness_180(2).points, math.pi)
        assert r == 1.7320508075688767 and abs(r - SQRT3) <= 1e-12

    def test_checker_passes_near_bound(self):
        for arms in (2, 3):
            w = witness_180(arms)
            assert check_witness_180(w, SQRT3 - 1e-6)

    def test_structure(self):
        w = witness_180(2)
        pts = w.points
        p = pts[w.p_id]
        udg = build_udg(pts)
        assert is_connected(udg)
        adj = udg.adjacency()
        by_id = {q.id: q for q in pts}
        # every UDG edge has unit length
        for a, b in udg.edges:
            assert by_id[a].dist(by_id[b]) == pytest.approx(1.0, abs=1e-12)
        # p has exactly three neighbors at mutual 120 degrees
        nbrs = adj[p.id]
        assert len(nbrs) == 3
        dirs = sorted(direction(p, by_id[i]) for i in nbrs)
        for a, b in zip(dirs, dirs[1:]):
            assert angle_diff(a, b) == pytest.approx(2 * math.pi / 3, abs=1e-9)
        # all adjacent-edge angles are 120 degrees
        for v in pts:
            vn = adj[v.id]
            for i in range(len(vn)):
                for j in range(i + 1, len(vn)):
                    ang = angle_diff(direction(v, by_id[vn[i]]), direction(v, by_id[vn[j]]))
                    assert ang == pytest.approx(2 * math.pi / 3, abs=1e-9)

    def test_cross_split_separation(self):
        w = witness_180(3)
        pts = w.points
        worst = min(
            pts[i].dist(pts[j])
            for i in w.right_set
            if i != w.p_id
            for j in w.left_set
        )
        assert worst >= SQRT3 - 1e-9

    def test_swapped_split_fails(self):
        w = witness_180(2)
        swapped = Witness180(
            points=w.points, p_id=w.p_id, left_set=w.right_set, right_set=w.left_set
        )
        assert not check_witness_180(swapped, SQRT3 - 1e-6)

    def test_radius_precondition(self):
        w = witness_180(2)
        with pytest.raises(ValueError):
            check_witness_180(w, 1.8)


class TestRandomConnectedUdg:
    def test_single(self):
        pts = random_connected_udg(1, 0, 1.0)
        assert len(pts) == 1

    def test_connected(self):
        pts = random_connected_udg(50, 42, 7.0)
        assert is_connected(build_udg(pts))

    def test_reproducible(self):
        a = random_connected_udg(40, 9, 6.0)
        b = random_connected_udg(40, 9, 6.0)
        assert [(p.id, p.x, p.y) for p in a] == [(p.id, p.x, p.y) for p in b]

    def test_inside_box(self):
        pts = random_connected_udg(30, 5, 3.0)
        assert all(0 <= p.x <= 3 and 0 <= p.y <= 3 for p in pts)

    def test_no_near_duplicates(self):
        pts = random_connected_udg(60, 8, 5.0)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert pts[i].dist(pts[j]) > EPS

    @pytest.mark.parametrize(
        "n, seed, box",
        [(1, 3, 1.0), (2, 0, 1.0), (60, 1, 1.0), (200, 7, 0.5), (30, 4, 1e9)]
        + [(n, seed, math.sqrt(n)) for n in (10, 100, 400) for seed in (0, 11)],
    )
    def test_matches_quadratic_reference(self, n, seed, box):
        pts = random_connected_udg(n, seed, box)
        ref = quadratic_random_connected_udg(n, seed, box)
        assert [(p.id, p.x, p.y) for p in pts] == [(p.id, p.x, p.y) for p in ref]

    def test_matches_quadratic_reference_on_near_duplicates(self, monkeypatch):
        class CrowdedRandom(random.Random):
            """Half the offsets from the anchor are 0, 0.5, 1, 1.5 or 2 times
            1e-6, so draws hit, graze or just miss the rejection distance."""

            def uniform(self, a, b):
                u = super().uniform(a, b)
                if b == 0.9 and self.random() < 0.5:
                    return self.randrange(5) * 0.5e-6
                return u

        monkeypatch.setattr(random, "Random", CrowdedRandom)
        for n, seed, box in [(150, 1, 1.0), (300, 2, math.sqrt(300))]:
            pts = random_connected_udg(n, seed, box)
            ref = quadratic_random_connected_udg(n, seed, box)
            assert [(p.id, p.x, p.y) for p in pts] == [(p.id, p.x, p.y) for p in ref]

    def test_draw_beyond_unit_distance_raises(self, monkeypatch):
        class FarRandom(random.Random):
            def uniform(self, a, b):
                return 1.5 if b == 0.9 else super().uniform(a, b)

        monkeypatch.setattr(random, "Random", FarRandom)
        with pytest.raises(AssertionError):
            random_connected_udg(2, 0, 10.0)
        with pytest.raises(AssertionError):
            quadratic_random_connected_udg(2, 0, 10.0)
