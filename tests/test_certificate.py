"""The group certificate the constructions check themselves with
(``verifier.certify_groups``, run by ``verifier.check_construction``): its
edges are edges of the communication graph, it certifies every construction
output, and when it fails the dense check decides."""

import math
import random

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
from test_acceptance import suite_instance
from test_orient90 import collinear_group_instances

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
    """The assignments the constructions hand to the dense fallback check."""
    calls = []
    real_dense = verifier.is_strongly_connected_at

    def dense(points, assignment, r):
        calls.append(assignment)
        return real_dense(points, assignment, r)

    monkeypatch.setattr(verifier, "is_strongly_connected_at", dense)
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


class TestFallback:
    @pytest.mark.parametrize("module, construct, _", CONSTRUCTIONS + (SMALL,))
    def test_failed_certificate_returns_same_theta_through_dense_check(
        self, monkeypatch, dense_calls, module, construct, _
    ):
        n = 3 if construct is orient90.orient_small else 40
        pts = random_connected_udg(n, 11, math.sqrt(n))
        expected = construct(pts)
        assert dense_calls == []
        monkeypatch.setattr(verifier, "certify_groups", lambda *args: False)
        got = construct(pts)
        assert got.theta == expected.theta
        assert dense_calls == [got]

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
        assert len(dense_calls) == 2

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
        assert len(dense_calls) == 1


def test_certificate_passes_and_keeps_only_graph_edges(dense_calls):
    for name, pts in differential_instances():
        for _, construct, _ in CONSTRUCTIONS:
            assignment, groups = own_groups(construct, pts)
            assert certify_groups(pts, assignment, groups), name
            a, b = _certificate_edges(pts, assignment, groups)
            assert build_comm_graph(pts, assignment).adj[a, b].all(), name
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
    assert graph.adj[a, b].all()
    if certify_groups(pts, assignment, groups):
        assert strongly_connected(graph)
