"""The one input rule: ``topology.point_set`` validates, sorts and converts a
caller's points once per call, and no layer reads the caller's list order."""

import math
import random

import pytest

from oracles import comm_matrix
from sectornet import fourpoint, orient90, orient180, topology, verifier
from sectornet.errors import ConstructionInvariantViolated
from sectornet.geometry import Point
from sectornet.instances import random_connected_udg
from sectornet.orient180 import orient_all_180
from sectornet.orient90 import orient_all_90, orient_small
from sectornet.topology import PointSet, bounded_degree_mst, point_set
from sectornet.verifier import build_comm_graph, min_strong_radius


def P(i, x, y):
    return Point(i, float(x), float(y))


def sparse_tree(n, seed):
    """Points each 0.8 to 1 from an earlier point and farther than 1 from
    every other one, so the unit disk graph is a tree."""
    rng = random.Random(seed)
    xy = [(0.0, 0.0)]
    while len(xy) < n:
        ax, ay = rng.choice(xy)
        turn, step = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.8, 1.0)
        x, y = ax + step * math.cos(turn), ay + step * math.sin(turn)
        if sum(math.hypot(x - px, y - py) <= 1.0 + 1e-6 for px, py in xy) == 1:
            xy.append((x, y))
    return [P(i, x, y) for i, (x, y) in enumerate(xy)]


TREE = sparse_tree(80, 1)
BLOB = random_connected_udg(60, 3, math.sqrt(60))
TRIPLE = [P(0, 0, 0), P(1, 0.9, 0.1), P(2, 0.4, 0.8)]


def test_point_set_is_the_sorted_points_with_read_only_coordinates():
    pts = point_set(TRIPLE[::-1])
    assert isinstance(pts, PointSet) and list(pts) == TRIPLE
    assert point_set(pts) is pts
    assert pts.coords.tolist() == [[p.x, p.y] for p in TRIPLE]
    with pytest.raises(ValueError):
        pts.coords[0, 0] = 1.0
    assert type(pts[:2]) is tuple


def outputs(pts):
    """Everything the layers return for one input list."""
    out = [bounded_degree_mst(pts).edges()]
    for orient in (orient_all_180, orient_all_90):
        a = orient(pts)
        out += [a.theta, a.diagnostics, min_strong_radius(pts, a), comm_matrix(build_comm_graph(pts, a)).tolist()]
    if len(pts) <= 3:
        out.append(orient_small(pts).theta)
    return out


@pytest.mark.parametrize("pts", [TREE, BLOB, TRIPLE], ids=["tree", "blob", "triple"])
def test_no_layer_reads_the_callers_order(pts):
    shuffled = list(pts)
    random.Random(0).shuffle(shuffled)
    want = outputs(pts)
    assert outputs(pts[::-1]) == want
    assert outputs(shuffled) == want


@pytest.fixture
def conversions(monkeypatch):
    """Counts, for a given n, the sorts of n points and the (n, 2) coordinate
    arrays built from them in every module that sorts or converts points."""
    counts = {"n": None, "sorts": 0, "arrays": 0}

    def counting_sorted(items, *args, **kwargs):
        items = list(items)
        if len(items) == counts["n"] and all(isinstance(p, Point) for p in items):
            counts["sorts"] += 1
        return sorted(items, *args, **kwargs)

    real_as_coords = topology.as_coords

    def counting_as_coords(points):
        counts["arrays"] += len(points) == counts["n"]
        return real_as_coords(points)

    for mod in (topology, verifier, orient180, orient90, fourpoint):
        monkeypatch.setattr(mod, "sorted", counting_sorted, raising=False)
        if hasattr(mod, "as_coords"):
            monkeypatch.setattr(mod, "as_coords", counting_as_coords)
    return counts


ENTRIES = {
    "orient_all_180": lambda pts, a: orient_all_180(pts),
    "orient_all_90": lambda pts, a: orient_all_90(pts),
    "min_strong_radius": min_strong_radius,
    "build_comm_graph": build_comm_graph,
}


@pytest.mark.parametrize("pts", [TREE, TRIPLE], ids=["tree", "triple"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_one_call_converts_the_points_once(conversions, entry, pts):
    # the tree, the grouping and the self-check all reuse the one sorted set;
    # a set already validated is not converted again
    a = orient_all_90(pts)
    conversions["n"] = len(pts)
    ENTRIES[entry](pts[::-1], a)
    assert (conversions["sorts"], conversions["arrays"]) == (1, 1)
    ENTRIES[entry](point_set(pts), a)
    assert (conversions["sorts"], conversions["arrays"]) == (2, 2)


BLOB40 = random_connected_udg(40, 11, math.sqrt(40))
FAILING = [(orient, pts) for pts in (BLOB40, TRIPLE) for orient in (orient_all_180, orient_all_90)]
FAILING.append((orient_small, TRIPLE))


@pytest.mark.parametrize(
    "orient, pts", FAILING, ids=[f"{orient.__name__}-{len(pts)}" for orient, pts in FAILING]
)
def test_a_failed_certificate_converts_the_set_once(conversions, monkeypatch, orient, pts):
    # the certificate builds its edges from the construction's set and its
    # verdict is forced; the construction raises with no second conversion
    monkeypatch.setattr(verifier, "_edges_strongly_connected", lambda *args: False)
    conversions["n"] = len(pts)
    with pytest.raises(ConstructionInvariantViolated):
        orient(pts[::-1])
    assert (conversions["sorts"], conversions["arrays"]) == (1, 1)
