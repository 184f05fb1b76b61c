"""Sparse near-unit random trees: the benchmark's sparse instance family.

Each new point lands between ``LO`` and ``HI`` (0.95 and 1) from a uniformly
chosen existing point, and is kept only if no other point lies closer than
``LO``. The unit disk graph is then connected through the parent edges, the
average UDG degree stays near 2, and the box grows to about 60 x 60 at
n = 2000, so achieved radii come close to the proven bounds.

Pure Python and deterministic from ``(n, seed)``; it imports nothing from
``sectornet`` and checks its own promises with ``check_tree``.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

LO = 0.95
HI = 1.0

Coords = List[Tuple[float, float]]


def _cell(x: float, y: float) -> Tuple[int, int]:
    return math.floor(x), math.floor(y)


def _near(grid: Dict[Tuple[int, int], List[int]], x: float, y: float):
    """Ids in the 3 x 3 block of unit cells around (x, y): every point within
    distance 1 of (x, y) is among them."""
    cx, cy = _cell(x, y)
    for gx in (cx - 1, cx, cx + 1):
        for gy in (cy - 1, cy, cy + 1):
            yield from grid.get((gx, gy), ())


def near_unit_tree(n: int, seed: int) -> Tuple[Coords, List[int]]:
    """Coordinates and parent ids (the root, point 0, is its own parent)."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    coords: Coords = [(0.0, 0.0)]
    parent = [0]
    grid: Dict[Tuple[int, int], List[int]] = {(0, 0): [0]}
    while len(coords) < n:
        p = rng.randrange(len(coords))
        px, py = coords[p]
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(LO, HI)
        x, y = px + rad * math.cos(ang), py + rad * math.sin(ang)
        # rounding can push the realised edge just outside [LO, HI]
        if not LO <= math.hypot(x - px, y - py) <= HI:
            continue
        if any(math.hypot(x - coords[j][0], y - coords[j][1]) < LO for j in _near(grid, x, y)):
            continue
        grid.setdefault(_cell(x, y), []).append(len(coords))
        coords.append((x, y))
        parent.append(p)
    return coords, parent


def check_tree(coords: Coords, parent: List[int]) -> None:
    """Raise AssertionError unless the generator's promises hold: every
    parent edge has length in [LO, HI], no two points are closer than LO,
    and the unit disk graph is connected."""
    n = len(coords)
    if len(parent) != n:
        raise AssertionError("one parent per point expected")
    for i in range(1, n):
        (x, y), (px, py) = coords[i], coords[parent[i]]
        d = math.hypot(x - px, y - py)
        if not LO <= d <= HI:
            raise AssertionError(f"edge {parent[i]}-{i} has length {d!r}")
    grid: Dict[Tuple[int, int], List[int]] = {}
    for i, (x, y) in enumerate(coords):
        grid.setdefault(_cell(x, y), []).append(i)
    # union-find over all UDG pairs, found through the grid
    root = list(range(n))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, (x, y) in enumerate(coords):
        for j in _near(grid, x, y):
            if j <= i:
                continue
            d = math.hypot(x - coords[j][0], y - coords[j][1])
            if d < LO:
                raise AssertionError(f"points {i} and {j} are {d!r} apart")
            if d <= 1.0:
                root[find(i)] = find(j)
    if len({find(i) for i in range(n)}) > 1:
        raise AssertionError("unit disk graph is not connected")
