"""Instance sets of the three workloads, made from the seed alone.

The make-up of every workload (n values, lattice sizes, counts) is fixed;
the seed moves only coordinates and offsets, so runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Tuple

from treegen import check_tree, near_unit_tree

BLOB_N = (1000, 1000)
TREE_N = (1000, 1000)
# small-mix: (count, n) for random blobs, n <= 4 included
SMALL_BLOBS = ((40, 2), (40, 3), (120, 4), (16, 10), (16, 25), (12, 50), (8, 100), (4, 200))
SQUARE_SIDES = (3, 5, 8, 12)
HEX_SIDES = (4, 7, 10, 14)
ROW_N = (5, 12, 30, 60)
# Five collinear points whose lowest id sits inside the row. The spanning
# tree is rooted there, the whole row becomes one collinear 90-degree group
# of odd size, and orient_all_90 raises ConstructionInvariantViolated. The
# instance is the same on every seed, so it fails in every round.
FAULT_ROW = ([(0.8 * i, 0.0) for i in range(5)], (1, 2, 0, 3, 4))

Instance = Tuple[str, list]


def _blob(sn, n: int, seed: int) -> list:
    return sn.random_connected_udg(n, seed, max(1.0, math.sqrt(n)))


def _points(sn, coords, ids=None) -> list:
    return [sn.Point(i, float(x), float(y)) for i, (x, y) in zip(ids or range(len(coords)), coords)]


def blob(sn, seed: int) -> List[Instance]:
    return [(f"blob n={n}", _blob(sn, n, 1000 * seed + k)) for k, n in enumerate(BLOB_N)]


def tree(sn, seed: int) -> List[Instance]:
    out = []
    for k, n in enumerate(TREE_N):
        coords, parent = near_unit_tree(n, 1000 * seed + k)
        check_tree(coords, parent)
        out.append((f"tree n={n}", _points(sn, coords)))
    return out


def small_mix(sn, seed: int) -> List[Instance]:
    rng = random.Random(seed)
    out: List[Instance] = []
    for count, n in SMALL_BLOBS:
        for _ in range(count):
            out.append((f"blob n={n}", _blob(sn, n, rng.randrange(2**31))))
    # Lattices and rows keep ids in row-major order: shuffled ids make some
    # seeds fail through the odd collinear group fault that FAULT_ROW shows
    # on every seed. Integer offsets keep square lattices, and their ties, exact.
    for k in SQUARE_SIDES:
        ox, oy = rng.randrange(-1000, 1000), rng.randrange(-1000, 1000)
        coords = [(ox + i, oy + j) for j in range(k) for i in range(k)]
        out.append((f"square {k}x{k}", _points(sn, coords)))
    for k in HEX_SIDES:
        ox, oy = rng.randrange(-1000, 1000), rng.randrange(-1000, 1000)
        h = math.sqrt(3.0) / 2.0
        coords = [(ox + i + 0.5 * (j % 2), oy + j * h) for j in range(k) for i in range(k)]
        out.append((f"hex {k}x{k}", _points(sn, coords)))
    for n in ROW_N:
        xs = [0.0]
        for _ in range(n - 1):
            xs.append(xs[-1] + rng.uniform(0.5, 1.0))
        out.append((f"row n={n}", _points(sn, [(x, 0.0) for x in xs])))
    out.append(("fault row n=5", _points(sn, *FAULT_ROW)))
    return out


WORKLOADS: Dict[str, Callable[[object, int], List[Instance]]] = {
    "blob": blob,
    "tree": tree,
    "small-mix": small_mix,
}
