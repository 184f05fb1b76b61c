import math
import random

import pytest

from oracles import quadratic_extract_groups_90, quadratic_partition_groups_180
from sectornet import orient90, orient180
from sectornet.errors import TooFewPoints
from sectornet.geometry import Point
from sectornet.instances import random_connected_udg
from sectornet.orient90 import extract_groups_90, orient_all_90
from sectornet.orient180 import orient_all_180, partition_groups_180
from sectornet.topology import RootedTree, bounded_degree_mst, carve


def P(i, x, y):
    return Point(i, float(x), float(y))


def path_tree(n):
    parent = {0: 0}
    children = {i: [] for i in range(n)}
    for i in range(1, n):
        parent[i] = i - 1
        children[i - 1].append(i)
    return RootedTree(root=0, parent=parent, children=children)


def random_tree(n, rng):
    """Random rooted tree with shuffled ids, degree at most 5 and children in
    random order."""
    ids = list(range(n))
    rng.shuffle(ids)
    root = ids[0]
    parent = {root: root}
    children = {root: []}
    for v in ids[1:]:
        open_nodes = [u for u in children if len(children[u]) < (5 if u == root else 4)]
        u = rng.choice(open_nodes)
        parent[v] = u
        children[u].append(v)
        children[v] = []
    return RootedTree(root=root, parent=parent, children=children)


def depths(t):
    out = {}
    for v in t.parent:
        d, u = 0, v
        while u != t.root:
            u = t.parent[u]
            d += 1
        out[v] = d
    return out


def shuffled(coords, rng):
    ids = list(range(len(coords)))
    rng.shuffle(ids)
    return [P(i, x, y) for i, (x, y) in zip(ids, coords)]


def abstract_trees():
    for n in range(1, 41):
        for seed in range(5):
            yield f"tree n={n} seed {seed}", random_tree(n, random.Random(1000 * n + seed))
    yield "tree n=500", random_tree(500, random.Random(500))


def point_instances():
    """Square and hex lattices (exact ties), rows and blobs, with shuffled ids."""
    for seed in range(4):
        rng = random.Random(seed)
        for k in (3, 5, 8, 12):
            yield f"square{k} seed {seed}", shuffled([(i, j) for j in range(k) for i in range(k)], rng)
        for rad in (1, 2, 4):
            coords = [
                (q + r / 2.0, r * math.sqrt(3) / 2.0)
                for q in range(-rad, rad + 1)
                for r in range(-rad, rad + 1)
                if abs(q + r) <= rad
            ]
            yield f"hex{rad} seed {seed}", shuffled(coords, rng)
        for n in (2, 4, 5, 9, 13):
            xs = [0.0]
            for _ in range(n - 1):
                xs.append(xs[-1] + rng.uniform(0.5, 1.0))
            yield f"row{n} seed {seed}", shuffled([(x, 0.0) for x in xs], rng)
    for seed, n in enumerate((4, 10, 40, 120, 300)):
        yield f"blob n={n}", random_connected_udg(n, seed + 40, max(1.0, math.sqrt(n) / 2))


class TestCarve:
    def test_path_of_seven(self):
        assert carve(path_tree(7), 4) == ([(3, [3, 4, 5, 6])], [0, 1, 2])
        assert carve(path_tree(7), 2) == ([(5, [5, 6]), (3, [3, 4]), (1, [1, 2])], [0])

    def test_whole_tree_cut_at_root(self):
        assert carve(path_tree(4), 4) == ([(0, [0, 1, 2, 3])], [])

    def test_single_node(self):
        assert carve(path_tree(1), 2) == ([], [0])

    def test_subtree_follows_children_order_and_cuts_deepest_first(self):
        # 0 -> [4, 1]; 4 -> [3, 2] (leaves); 1 -> [5]; 5 -> [6] (leaf)
        parent = {0: 0, 4: 0, 1: 0, 3: 4, 2: 4, 5: 1, 6: 5}
        children = {0: [4, 1], 4: [3, 2], 1: [5], 5: [6], 2: [], 3: [], 6: []}
        t = RootedTree(root=0, parent=parent, children=children)
        assert carve(t, 2) == ([(5, [5, 6]), (4, [4, 3, 2]), (0, [0, 1])], [])
        assert carve(t, 4) == ([(0, [0, 4, 3, 2, 1, 5, 6])], [])
        assert carve(t, 3) == ([(1, [1, 5, 6]), (4, [4, 3, 2])], [0])


def grouping_mismatches(t):
    """What differs from the reference: 180-degree groups as a set, their
    deepest-first order, and the 90-degree group list and remainder."""
    bad = []
    got = partition_groups_180(t)
    want = quadratic_partition_groups_180(t)

    def key(g):
        return (g.parent, g.members, g.attached_above)

    if sorted(map(key, got)) != sorted(map(key, want)):
        bad.append("180 groups")
    depth = depths(t)
    order = [(-depth[g.parent], g.parent) for g in got]
    if order != sorted(order):
        bad.append("180 order")
    if t.n < 4:
        with pytest.raises(TooFewPoints):
            extract_groups_90(t)
    elif extract_groups_90(t) != quadratic_extract_groups_90(t):
        bad.append("90 groups")
    return bad


class TestGroupingMatchesQuadraticReference:
    """The one-pass carving against the loops that walk the residual tree
    again after every removal (tests/oracles.py)."""

    def test_abstract_trees(self):
        bad = [(name, grouping_mismatches(t)) for name, t in abstract_trees()]
        assert [b for b in bad if b[1]] == []

    def test_point_trees(self):
        bad = [(name, grouping_mismatches(bounded_degree_mst(pts))) for name, pts in point_instances()]
        assert [b for b in bad if b[1]] == []

    def test_theta_from_reference_groups(self, monkeypatch):
        instances = [pts for _, pts in point_instances()]
        got180 = [orient_all_180(pts).theta for pts in instances]
        got90 = [orient_all_90(pts).theta for pts in instances]
        monkeypatch.setattr(orient180, "partition_groups_180", quadratic_partition_groups_180)
        monkeypatch.setattr(orient90, "extract_groups_90", quadratic_extract_groups_90)
        assert got180 == [orient_all_180(pts).theta for pts in instances]
        assert got90 == [orient_all_90(pts).theta for pts in instances]
