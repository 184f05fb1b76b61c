"""Two inputs on which a 180-degree construction that aims every last child
at its parent misses its bound.

In both, a carved group hangs from the child of a group {p; c1, c2} that
aims at p, and its top node lies beyond p's half-plane and more than
1 + sqrt(3) from c1, so nothing in that group reached it (achieved radii
2.7460 and 2.7369). ``orient_all_180`` now turns c2 to face p and that top,
and both orient within the bound. The 90-degree construction orients both
within 7.
"""

from pathlib import Path

import pytest

from oracles import dense_bounded_degree_mst
from sectornet.fileio import read_points
from sectornet.orient180 import RADIUS_180, orient_all_180
from sectornet.orient90 import RADIUS_90, orient_all_90
from sectornet.topology import bounded_degree_mst
from sectornet.verifier import min_strong_radius

DATA = Path(__file__).parent / "data"
INPUTS = ["hung_triplet_n10.txt", "hung_triplet_n12.txt"]
TOL = 1e-9


@pytest.fixture(params=INPUTS)
def points(request):
    return read_points(DATA / request.param)


def test_90_degree_construction_meets_its_bound(points):
    r = min_strong_radius(points, orient_all_90(points))
    assert r is not None and r <= RADIUS_90 + TOL


def test_tree_matches_dense_reference(points):
    # the miss depends on the tree, so these inputs pin it to the dense reference
    assert bounded_degree_mst(points) == dense_bounded_degree_mst(points)


def test_180_degree_construction_meets_its_bound(points):
    r = min_strong_radius(points, orient_all_180(points))
    assert r is not None and r <= RADIUS_180 + TOL
