import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_bounded_degree_mst,
    one_pass_spanning_forest,
    prim_mst_length,
    pruefer_min_spanning_length,
    stencil_candidate_count,
    tree_edges_cross,
)
from sectornet import topology
from sectornet.errors import DisconnectedInput, DuplicatePoint, TooFewPoints
from sectornet.geometry import Point
from sectornet.instances import random_connected_udg
from sectornet.topology import (
    as_coords,
    bounded_degree_mst,
    build_udg,
    grid_pairs,
    is_connected,
    tree_heights,
)


def P(i, x, y):
    return Point(i, float(x), float(y))


def tree_length(points, tree):
    by_id = {p.id: p for p in points}
    return sum(by_id[a].dist(by_id[b]) for a, b in tree.edges())


class TestBuildUdg:
    def test_unit_spacing_chain(self):
        udg = build_udg([P(0, 0, 0), P(1, 1, 0), P(2, 2, 0)])
        assert sorted(udg.edges) == [(0, 1), (1, 2)]

    def test_far_pair(self):
        assert build_udg([P(0, 0, 0), P(1, 3, 0)]).edges == frozenset()

    def test_skip_distance(self):
        udg = build_udg([P(0, 0, 0), P(1, 0.5, 0), P(2, 1.4, 0)])
        assert sorted(udg.edges) == [(0, 1), (1, 2)]

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicatePoint):
            build_udg([P(0, 0, 0), P(1, 0, 0)])


class TestIsConnected:
    def test_chain(self):
        assert is_connected(build_udg([P(0, 0, 0), P(1, 1, 0), P(2, 2, 0)]))

    def test_split(self):
        assert not is_connected(build_udg([P(0, 0, 0), P(1, 3, 0)]))

    def test_single(self):
        assert is_connected(build_udg([P(0, 0, 0)]))

    def test_two_far_pairs(self):
        assert not is_connected(build_udg([P(0, 0, 0), P(1, 1, 0), P(2, 5, 0), P(3, 6, 0)]))


class TestBoundedDegreeMst:
    def test_collinear_path(self):
        pts = [P(i, i, 0) for i in range(5)]
        tree = bounded_degree_mst(pts)
        assert tree.root == 0
        assert sorted(tree.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert max(tree.degree(v) for v in tree.nodes()) <= 2

    def test_hexagon_with_center(self):
        # frozen via exhaustive spanning-tree enumeration: the minimum total
        # length 6 is achievable at degree <= 5
        pts = [P(0, 0, 0)] + [
            P(k + 1, math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
            for k in range(6)
        ]
        coords = [(p.x, p.y) for p in pts]
        assert pruefer_min_spanning_length(coords, max_degree=5) == pytest.approx(6.0)
        tree = bounded_degree_mst(pts)
        assert max(tree.degree(v) for v in tree.nodes()) <= 5
        assert tree_length(pts, tree) == pytest.approx(6.0, abs=1e-9)

    def test_two_points_root_is_higher(self):
        tree = bounded_degree_mst([P(0, 0, 0), P(1, 0, 1)])
        assert tree.root == 1
        assert tree.edges() == [(1, 0)]

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedInput):
            bounded_degree_mst([P(0, 0, 0), P(1, 5, 0)])

    def test_empty_rejected(self):
        with pytest.raises(TooFewPoints):
            bounded_degree_mst([])

    def test_random_contract(self):
        for seed in range(40):
            n = 5 + 7 * seed
            pts = random_connected_udg(n, seed, max(1.0, math.sqrt(n)))
            tree = bounded_degree_mst(pts)
            coords = np.array([(p.x, p.y) for p in pts])
            assert max(tree.degree(v) for v in tree.nodes()) <= 5
            by_id = {p.id: p for p in pts}
            assert all(by_id[a].dist(by_id[b]) <= 1 + 1e-9 for a, b in tree.edges())
            assert not tree_edges_cross(coords, tree.edges())
            expected = prim_mst_length(coords)
            got = tree_length(pts, tree)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_root_is_highest_with_id_tiebreak(self):
        pts = [P(0, 0, 1), P(1, 1, 1), P(2, 0.5, 0.3)]
        assert bounded_degree_mst(pts).root == 0

    def test_deterministic(self):
        pts = random_connected_udg(60, 3, 8.0)
        t1 = bounded_degree_mst(pts)
        t2 = bounded_degree_mst(pts)
        assert t1 == t2

    def test_root_has_at_most_four_children(self):
        # the root is a highest point, so its children sit in a half-plane;
        # 60-degree minimum edge separation then allows at most four
        for seed in range(60):
            n = 5 + 3 * seed
            pts = random_connected_udg(n, seed + 500, max(1.0, math.sqrt(n)))
            tree = bounded_degree_mst(pts)
            assert len(tree.children[tree.root]) <= 4


class TestTreeHeights:
    def test_path_of_three(self):
        tree = bounded_degree_mst([P(0, 0, 0), P(1, 1, 0), P(2, 2, 0)])
        assert tree_heights(tree) == {0: 2, 1: 1, 2: 0}

    def test_single_node(self):
        tree = bounded_degree_mst([P(0, 0, 0)])
        assert tree_heights(tree) == {0: 0}

    def test_star(self):
        pts = [P(0, 0, 0.3), P(1, -0.9, 0), P(2, 0.9, 0), P(3, 0, -0.65)]
        tree = bounded_degree_mst(pts)
        assert tree.root == 0 and sorted(tree.children[0]) == [1, 2, 3]
        heights = tree_heights(tree)
        assert heights == {0: 1, 1: 0, 2: 0, 3: 0}


def tree_or_error(build, pts):
    """The tree as (root, parent, children), or the error as (type, message)."""
    try:
        t = build(pts)
    except Exception as exc:
        return type(exc), str(exc)
    return t.root, t.parent, t.children


def shuffled_points(coords, rng):
    ids = list(range(len(coords)))
    rng.shuffle(ids)
    return [P(i, x, y) for i, (x, y) in zip(ids, coords)]


def jittered_lattice(k, seed):
    """k x k square lattice with spacing 0.9, each point moved by up to 0.04 per axis."""
    jitter = np.random.default_rng(seed).uniform(-0.04, 0.04, size=(k * k, 2))
    return [P(v, 0.9 * (v % k) + jitter[v, 0], 0.9 * (v // k) + jitter[v, 1]) for v in range(k * k)]


def reference_instances():
    for seed in range(1000):
        n = 5 + seed % 196
        yield f"acceptance seed {seed}", random_connected_udg(n, seed, max(1.0, math.sqrt(n)))
    for seed in range(4):
        rng = random.Random(seed)
        for k in (3, 5, 8, 12):
            coords = [(i, j) for j in range(k) for i in range(k)]
            yield f"square{k} seed {seed}", shuffled_points(coords, rng)
        for rad in (1, 2, 4):
            coords = [
                (q + r / 2.0, r * math.sqrt(3) / 2.0)
                for q in range(-rad, rad + 1)
                for r in range(-rad, rad + 1)
                if abs(q + r) <= rad
            ]
            yield f"hex{rad} seed {seed}", shuffled_points(coords, rng)
        for n in (2, 4, 5, 9, 13):
            xs = [0.0]
            for _ in range(n - 1):
                xs.append(xs[-1] + rng.uniform(0.5, 1.0))
            yield f"row{n} seed {seed}", shuffled_points([(x, 0.0) for x in xs], rng)
    yield "hexagon with centre", [P(0, 0, 0)] + [
        P(k + 1, math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)
    ]
    yield "row offset by 1e9", [P(i, 1e9 + 0.75 * i, -1e9) for i in range(20)]
    yield "column beyond 2**54", [P(0, 1e17, 0), P(1, 1e17, 1), P(2, 1e17, 1.5)]
    yield "points 1e300 apart", [P(0, 1e17, 0), P(1, 1e17, 1), P(2, -1e300, 1e300)]
    yield "three coincident points", [P(0, 0, 0), P(1, 5, 5), P(2, 0.5, 0), P(3, 5, 5), P(4, 5, 5)]
    yield "disconnected pair", [P(0, 0, 0), P(1, 5, 0)]
    yield "two far pairs", [P(0, 0, 0), P(1, 1, 0), P(2, 5, 0), P(3, 6, 0)]


class TestAgainstDenseReference:
    def test_same_tree_or_error(self):
        for name, pts in reference_instances():
            got = tree_or_error(bounded_degree_mst, pts)
            assert got == tree_or_error(dense_bounded_degree_mst, pts), name

    def test_coincident_points_name_the_first_pair(self):
        pts = [P(0, 0, 0), P(1, 5, 5), P(2, 0.5, 0), P(3, 5, 5), P(4, 5, 5)]
        with pytest.raises(DuplicatePoint, match=r"^points 1 and 3 coincide"):
            bounded_degree_mst(pts)

    def test_lattice_peak_memory_is_linear(self):
        # n = 5041: an n x n float matrix alone is 203 MB
        pts = jittered_lattice(71, 0)
        tracemalloc.start()
        try:
            tree = bounded_degree_mst(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tree.edges()) == len(pts) - 1
        assert peak < 32 * 2**20


def patch(k, spacing, ox=0.0, oy=0.0):
    """k x k square lattice with the given spacing, its corner at (ox, oy)."""
    return [(ox + spacing * a, oy + spacing * b) for b in range(k) for a in range(k)]


def forest_cases():
    """(label, n, i, j): pairs in rank order for ``_spanning_forest``."""
    rng = np.random.default_rng(5)
    # a dense blob with a unit-step chain hung off its rightmost point: the
    # chain's pairs rank last, so the forest reads several chunks
    blob = as_coords(random_connected_udg(400, 3, 2.0))
    chain = blob[blob[:, 0].argmax()] + np.outer(np.arange(1, 41), [0.999, 0.0])
    coords = np.concatenate([blob, chain])
    i, j, _ = topology._udg_pairs(coords)
    yield "blob with a chain", len(coords), i, j
    shuffled = rng.permutation(len(i))
    yield "blob with a chain, pairs in random order", len(coords), i[shuffled], j[shuffled]
    # exact lattices at integer offsets: runs of equal distances. Beside an
    # 8 x 8 patch at spacing 1/8, a 15 x 15 unit lattice joins only through the
    # last run, of unit pairs, and the first chunk ends inside that run.
    for offset in (0, 123_456_789, -10**9, 10**9):
        for label, coords in (
            ("square 12 x 12", patch(12, 1.0, offset, -offset)),
            ("square 12 x 12 at spacing 1/4", patch(12, 0.25, offset, offset)),
            ("patch beside a unit lattice", patch(8, 0.125, offset, offset) + patch(15, 1.0, offset + 1.875, offset)),
            ("hex 12 x 12", [(offset + x + 0.5 * (round(y) % 2), -offset + y * math.sqrt(3) / 2) for x, y in patch(12, 1.0)]),
            ("patch beside a hex lattice", patch(8, 0.125, offset, offset) + [
                (offset + 1.875 + x + 0.5 * (round(y) % 2), offset + y * math.sqrt(3) / 2) for x, y in patch(10, 1.0)
            ]),
        ):
            i, j, _ = topology._udg_pairs(np.array(coords, dtype=float))
            yield f"{label} at offset {offset}", len(coords), i, j
    # disconnected: the forest has fewer than n - 1 edges and reads every chunk
    two_blobs = np.concatenate([blob, blob + [5.0, 0.0], [[20.0, 20.0]]])
    i, j, _ = topology._udg_pairs(two_blobs)
    yield "two blobs and a lone point", len(two_blobs), i, j
    gapped = np.array(patch(8, 0.125) + patch(6, 1.0, 3.0, 0.0), dtype=float)
    i, j, _ = topology._udg_pairs(gapped)
    yield "patch and a lattice apart", len(gapped), i, j
    # n <= 3
    none = np.zeros(0, dtype=np.intp)
    yield "no points", 0, none, none
    yield "one point", 1, none, none
    yield "two points apart", 2, none, none
    yield "two points", 2, np.array([0]), np.array([1])
    yield "three points, two pairs", 3, np.array([1, 0]), np.array([2, 1])
    yield "equilateral triangle", 3, np.array([0, 0, 1]), np.array([1, 2, 2])


class TestChunkedForest:
    @pytest.mark.parametrize("first_chunk", [1, 3, topology._FIRST_CHUNK])
    def test_equals_the_one_pass_forest(self, monkeypatch, first_chunk):
        monkeypatch.setattr(topology, "_FIRST_CHUNK", first_chunk)
        for label, n, i, j in forest_cases():
            got = topology._spanning_forest(n, i, j)
            assert sorted(got) == sorted(one_pass_spanning_forest(n, i, j)), label
            assert len(set(got)) == len(got), label

    def test_cases_read_several_chunks_and_split_a_run(self):
        cases = {label: (n, i, j) for label, n, i, j in forest_cases()}
        n, i, j = cases["blob with a chain"]
        rank = {pair: k for k, pair in enumerate(zip(i.tolist(), j.tolist()))}
        last = max(rank[pair] for pair in one_pass_spanning_forest(n, i, j))
        assert last >= 5 * topology._FIRST_CHUNK * n  # beyond the first two chunks
        coords = np.array(patch(8, 0.125) + patch(15, 1.0, 1.875, 0.0), dtype=float)
        d = topology._udg_pairs(coords)[2]
        assert d[-1] == 1.0 and (d < 1.0).sum() < topology._FIRST_CHUNK * len(coords) < len(d)


@pytest.mark.parametrize(
    "cell, reach",
    [
        (0.5, 0.5),
        (1.0, 1.0),
        (2.0, 1.0 + 1e-9),
        (4.0, 4.0),
        (64.0, 64.0),
        (0.25, 1.0 + 1e-9),
        (0.5, 1.0 + 1e-9),
        (1.0, 1.0 + math.sqrt(3) + 1e-9),
        (2.0, 7.0 + 1e-9),
    ],
)
def test_grid_pairs_are_every_pair_within_reach(cell, reach):
    # 50 points sit the reach to the right of 50 others: with the reach as
    # wide as a cell, or as m cells, those are the pairs the grid must not drop
    rng = np.random.default_rng(int(cell * 4))
    ticks = rng.integers(0, 40 * 1024, size=(400, 2)).astype(float)
    ticks[:50] = ticks[50:100] + [[reach * 1024, 0]]
    for offset in (0.0, -1e9, 3e9):
        coords = ticks / 1024 + offset
        a, b, d = grid_pairs(coords, cell, reach)
        got = {(min(i, j), max(i, j)): x for i, j, x in zip(a.tolist(), b.tolist(), d.tolist())}
        i, j = np.triu_indices(len(coords), k=1)
        dist = np.hypot(coords[j, 0] - coords[i, 0], coords[j, 1] - coords[i, 1])
        near = dist <= reach
        assert got == dict(zip(zip(i[near].tolist(), j[near].tolist()), dist[near].tolist()))
        assert len(a) == len(got)  # each pair once
        assert grid_pairs(coords, cell, reach, most=len(got) - 1) is None


@pytest.mark.parametrize("reach", [0.3, 1.0, 1.0 + 1e-9, 1.0 + math.sqrt(3), 2.0, 7.0, 7.0 + 1e-9])
def test_grid_offers_the_one_cell_stencil_count(reach):
    # cells of the smallest power of two >= reach, as the verifier's probes
    # take them: the candidate count, and so where those probes hand over to
    # the matrix, is that of the stencil of one cell and its four neighbours
    cell = 2.0 ** math.ceil(math.log2(reach))
    rng = random.Random(int(reach * 100))
    for pts in (
        random_connected_udg(300, rng.randrange(10**6), 6.0),
        random_connected_udg(200, rng.randrange(10**6), 14.0),
        jittered_lattice(15, rng.randrange(10**6)),
        [P(v, 1e9 + (v % 9) * 0.5, -1e9 + (v // 9) * 0.5) for v in range(81)],
    ):
        coords = as_coords(pts)
        count = stencil_candidate_count(coords, cell)
        assert grid_pairs(coords, cell, reach, most=count) is not None
        assert grid_pairs(coords, cell, reach, most=count - 1) is None


# coordinates in 1024ths of a unit, up to 3; quarter steps make exact unit distances and ties common
TICKS = st.one_of(st.integers(0, 12).map(lambda k: 256 * k), st.integers(0, 3 * 1024))
# integers up to 1e9 in magnitude, most of them close to it
OFFSETS = st.one_of(
    st.tuples(st.sampled_from([-1, 1]), st.integers(0, 10**9)).map(lambda t: t[0] * (10**9 - t[1])),
    st.integers(-10**9, 10**9),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    cells=st.lists(st.tuples(TICKS, TICKS), min_size=1, max_size=12),
    dx=OFFSETS,
    dy=OFFSETS,
)
def test_tree_is_unchanged_by_integer_translation(cells, dx, dy):
    # offsets up to 1e9 keep every coordinate, difference and distance exact,
    # so the grid must give the same pairs and the same tree
    pts = [P(i, x / 1024, y / 1024) for i, (x, y) in enumerate(cells)]
    moved = [P(p.id, p.x + dx, p.y + dy) for p in pts]
    assert tree_or_error(bounded_degree_mst, moved) == tree_or_error(bounded_degree_mst, pts)
    if len(set(cells)) == len(cells):
        assert build_udg(moved) == build_udg(pts)
