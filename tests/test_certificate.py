"""The group certificate the constructions check themselves with
(``verifier.certify_groups``, run by ``verifier.check_construction``): its
edges are edges of the communication graph, it certifies every construction
output, and when it fails the construction raises; no dense check decides."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectornet import orient180, orient90, verifier
from sectornet.errors import ConstructionInvariantViolated
from sectornet.geometry import Point
from sectornet.instances import random_connected_udg
from sectornet.orientation import OrientationAssignment
from sectornet.verifier import (
    _certificate_edges,
    build_comm_graph,
    certify_groups,
    strongly_connected,
)
from oracles import comm_matrix
from test_acceptance import suite_instance
from test_orient90 import collinear_group_instances
from test_topology import jittered_lattice

PI = math.pi
# (module, construction, the message it raises when its output is not strong);
# the module only names the parametrized test ids
CONSTRUCTIONS = (
    (
        orient180,
        orient180.orient_all_180,
        "180-degree construction not strongly connected at 1+sqrt(3); "
        "preserve this instance as a regression fixture",
    ),
    (
        orient90,
        orient90.orient_all_90,
        "90-degree construction not strongly connected at r=7; "
        "preserve this instance as a regression fixture",
    ),
)
SMALL = (orient90, orient90.orient_small, "small 90-degree case failed at r=2")


def lattices_and_rows():
    rng = random.Random(3)
    h = math.sqrt(3.0) / 2.0
    for k in (3, 5, 8, 12):
        yield f"square {k}", [Point(j * k + i, float(i), float(j)) for j in range(k) for i in range(k)]
    for k in (4, 7, 10, 14):
        coords = [(i + 0.5 * (j % 2), j * h) for j in range(k) for i in range(k)]
        yield f"hex {k}", [Point(i, x, y) for i, (x, y) in enumerate(coords)]
    for n in (4, 5, 12, 30, 60):
        xs = [0.0]
        for _ in range(n - 1):
            xs.append(xs[-1] + rng.uniform(0.5, 1.0))
        yield f"row {n}", [Point(i, x, 0.0) for i, x in enumerate(xs)]


def differential_instances():
    for seed in range(0, 1000, 7):
        yield f"acceptance seed {seed}", suite_instance(seed)
    yield from lattices_and_rows()
    yield from collinear_group_instances()


@pytest.fixture
def dense_calls(monkeypatch):
    """The names of the dense checks called: a construction makes none."""
    calls = []
    for name in ("is_strongly_connected_at", "build_comm_graph"):
        real = getattr(verifier, name)
        def counted(*args, name=name, real=real, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(verifier, name, counted)
    return calls


def own_groups(construct, pts):
    """A construction's output and the groups it certified itself with."""
    seen = []
    real_certify = verifier.certify_groups
    verifier.certify_groups = lambda p, a, groups: seen.append(groups) or real_certify(p, a, groups)
    try:
        return construct(pts), seen[-1]
    finally:
        verifier.certify_groups = real_certify


# (construction, n, its message): orient_all_90 hands three points to orient_small
FORCED = [(c, 40, m) for _, c, m in CONSTRUCTIONS] + [
    (orient180.orient_all_180, 3, CONSTRUCTIONS[0][2]),
    (orient90.orient_all_90, 3, SMALL[2]),
    (orient90.orient_small, 3, SMALL[2]),
]


class TestFailedCertificate:
    @pytest.mark.parametrize(
        "construct, n, message", FORCED, ids=[f"{c.__name__}-{n}" for c, n, _ in FORCED]
    )
    def test_failed_certificate_raises_unchanged_message(
        self, monkeypatch, dense_calls, construct, n, message
    ):
        pts = random_connected_udg(n, 11, math.sqrt(n))
        construct(pts)
        # the certificate's edges are built as usual; only its verdict is forced
        monkeypatch.setattr(verifier, "_edges_strongly_connected", lambda *args: False)
        with pytest.raises(ConstructionInvariantViolated) as err:
            construct(pts)
        assert str(err.value) == message
        assert dense_calls == []

    def test_turned_wedge_raises_unchanged_message(self, monkeypatch, dense_calls):
        # the leftmost point faces straight left, away from every other point
        pts = random_connected_udg(4, 5, 1.0)
        away = min(pts, key=lambda p: p.x).id
        real_orient_group = orient180._orient_group
        real_rule = orient90.four_point_thetas

        def orient_group(group, points, theta, *children):
            real_orient_group(group, points, theta, *children)
            if away in theta:
                theta[away] = PI

        def four_point_thetas(qc):
            return {**real_rule(qc), away: PI}

        monkeypatch.setattr(orient180, "_orient_group", orient_group)
        monkeypatch.setattr(orient90, "four_point_thetas", four_point_thetas)
        for _, construct, message in CONSTRUCTIONS:
            with pytest.raises(ConstructionInvariantViolated) as err:
                construct(pts)
            assert str(err.value) == message
        assert dense_calls == []

    def test_turned_small_wedge_raises_unchanged_message(self, monkeypatch, dense_calls):
        # one of two points faces straight away from the other
        pts = random_connected_udg(2, 5, 1.0)
        real_direction = orient90.direction
        monkeypatch.setattr(
            orient90, "direction", lambda p, q: real_direction(p, q) + (PI if p.id == 0 else 0.0)
        )
        _, construct, message = SMALL
        with pytest.raises(ConstructionInvariantViolated) as err:
            construct(pts)
        assert str(err.value) == message
        assert dense_calls == []


def test_certificate_passes_and_keeps_only_graph_edges(dense_calls):
    for name, pts in differential_instances():
        for _, construct, _ in CONSTRUCTIONS:
            assignment, groups = own_groups(construct, pts)
            assert certify_groups(pts, assignment, groups), name
            a, b = _certificate_edges(pts, assignment, groups)
            assert comm_matrix(build_comm_graph(pts, assignment))[a, b].all(), name
    assert dense_calls == []


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=60),
    aperture=st.sampled_from([0, 1]),
    radius=st.floats(min_value=0.5, max_value=8.0),
    spread=st.floats(min_value=0.0, max_value=PI),
    data=st.data(),
)
def test_certified_strong_implies_graph_strong(seed, aperture, radius, spread, data):
    # random thetas: each bisector turned by up to ``spread`` from the construction's
    pts = random_connected_udg(4 + seed % 20, seed, 2.0)
    constructed, groups = own_groups(CONSTRUCTIONS[aperture][1], pts)
    turns = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(pts), max_size=len(pts)))
    assignment = OrientationAssignment(
        alpha=constructed.alpha,
        theta={i: constructed.theta[i] + spread * t for i, t in enumerate(turns)},
        guaranteed_radius=radius,
    )
    graph = build_comm_graph(pts, assignment)
    a, b = _certificate_edges(pts, assignment, groups)
    assert comm_matrix(graph)[a, b].all()
    if certify_groups(pts, assignment, groups):
        assert strongly_connected(graph)


@pytest.mark.parametrize("construct", [c for _, c, _ in CONSTRUCTIONS])
def test_certificate_peak_memory_is_linear_in_nodes_and_edges(construct):
    # a 200 x 200 jittered lattice: the certificate holds the pair arrays of
    # one pass and its sparse rows, and no n-bit row per node
    pts = jittered_lattice(200, 0)
    assignment, groups = own_groups(construct, pts)
    edges = len(_certificate_edges(pts, assignment, groups)[0])
    tracemalloc.start()
    try:
        strong = certify_groups(pts, assignment, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert strong and edges > 5 * len(pts)
    assert peak < 300 * (len(pts) + edges)


@pytest.mark.parametrize("construct", [c for _, c, _ in CONSTRUCTIONS])
def test_failed_certificate_builds_no_n_by_n_array(monkeypatch, construct):
    # a 100 x 100 jittered lattice whose certificate is forced to fail: the
    # construction raises, and its peak stays below half of one boolean
    # n x n matrix (n**2 bytes)
    pts = jittered_lattice(100, 0)
    monkeypatch.setattr(verifier, "_edges_strongly_connected", lambda *args: False)
    tracemalloc.start()
    try:
        with pytest.raises(ConstructionInvariantViolated):
            construct(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(pts) ** 2 / 2
