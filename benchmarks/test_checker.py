"""Tests of the benchmark's own checker and tree generator.

    python3 -m pytest benchmarks -q
"""

import math

import numpy as np
import pytest

import checker
from treegen import HI, LO, check_tree, near_unit_tree

QUARTER = 0.5 * math.pi


def facing_pair(d):
    xy = np.array([(0.0, 0.0), (d, 0.0)])
    return xy, np.array([0.0, math.pi])


def square_cycle(rot):
    """Unit square turned by ``rot``; every 90-degree wedge has the next
    corner (counterclockwise) on its boundary and misses the other two at
    radius 1, so the only edges form one directed 4-cycle."""
    c, s = math.cos(rot), math.sin(rot)
    xy = np.array([(c * x - s * y, s * x + c * y) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))])
    theta = []
    for i in range(4):
        (ax, ay), (bx, by) = xy[i], xy[(i + 1) % 4]
        theta.append((math.atan2(by - ay, bx - ax) - 0.25 * math.pi) % (2 * math.pi))
    return xy, np.array(theta)


def test_facing_pair_strong_exactly_from_its_distance():
    xy, theta = facing_pair(1.0)
    assert checker.is_strong(checker.adjacency(xy, theta, QUARTER, 1.0))
    assert not checker.is_strong(checker.adjacency(xy, theta, QUARTER, 1.0 - 1e-6))


def test_rejects_one_antenna_turned_by_pi():
    xy, theta = facing_pair(1.0)
    theta[1] = (theta[1] + math.pi) % (2 * math.pi)
    assert not checker.is_strong(checker.adjacency(xy, theta, QUARTER, 5.0))
    xy, theta = square_cycle(0.3)
    assert checker.is_strong(checker.adjacency(xy, theta, QUARTER, 1.0))
    theta[2] = (theta[2] + math.pi) % (2 * math.pi)
    assert not checker.is_strong(checker.adjacency(xy, theta, QUARTER, 1.0))


def test_zero_tolerance_rejects_a_correct_90_degree_orientation():
    xy, theta = square_cycle(0.01)
    assert checker.is_strong(checker.adjacency(xy, theta, QUARTER, 1.0))
    assert not checker.is_strong(checker.adjacency(xy, theta, QUARTER, 1.0, tol=0.0))


def test_check_orientation_accepts_truth_and_names_faults():
    xy, theta = facing_pair(1.0)
    ids = {0: theta[0], 1: theta[1]}
    assert checker.check_orientation(xy, 90, ids, QUARTER, 2.0, 1.0, True) == []
    problems = checker.check_orientation(xy, 90, ids, QUARTER, 2.0, 1.5, False)
    assert any("no pairwise distance" in p for p in problems)
    assert any("verdict" in p for p in problems)
    assert checker.check_orientation(xy, 180, ids, math.pi, 2.0, 1.0, True) == [
        f"guaranteed radius 2.0, expected {checker.RADIUS_180!r}"
    ]


def test_mst_and_tree_checks():
    xy = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 3.0)])
    assert sorted(checker.mst_edges(xy)) == [1.0, 1.0, 3.0]
    assert checker.check_spanning_tree(xy, [(0, 1), (1, 2), (1, 3)]) == []
    assert checker.check_spanning_tree(xy, [(0, 1), (0, 2), (1, 3)])  # longer than the MST
    star = np.array([(0.0, 0.0)] + [(math.cos(k), math.sin(k)) for k in range(6)])
    assert any("degree" in p for p in checker.check_spanning_tree(star, [(0, k) for k in range(1, 7)]))
    assert checker.check_partition(4, [(0, 1), (2, 3)]) == []
    assert checker.check_partition(4, [(0, 1), (1, 2, 3)]) == ["groups overlap"]
    assert checker.check_partition(4, [(0, 1), (2,)]) == ["groups miss points"]


def test_tree_generator_is_deterministic_and_keeps_its_promises():
    coords, parent = near_unit_tree(500, 7)
    assert (coords, parent) == near_unit_tree(500, 7)
    assert coords != near_unit_tree(500, 8)[0]
    check_tree(coords, parent)
    d = np.hypot(*(np.array(coords)[1:] - np.array([coords[p] for p in parent[1:]])).T)
    assert LO <= d.min() and d.max() <= HI


SPREAD = 0.97 * math.cos(math.radians(30)), 0.97 * math.sin(math.radians(30))


@pytest.mark.parametrize(
    "coords, parent, why",
    [
        ([(0.0, 0.0), (0.97, 0.0), SPREAD], [0, 0, 0], "apart"),
        ([(0.0, 0.0), (1.2, 0.0)], [0, 0], "length"),
        ([(0.0, 0.0), (0.9, 0.0)], [0, 0], "length"),
    ],
)
def test_tree_check_catches_broken_promises(coords, parent, why):
    with pytest.raises(AssertionError, match=why):
        check_tree(coords, parent)
