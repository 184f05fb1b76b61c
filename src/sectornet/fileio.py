"""Flat-file formats: point files and orientation files.

Point file: one `<id> <x> <y>` per line; `#` comments and blank lines are
ignored; ids must be distinct and contiguous from 0. Orientation file: header
lines `alpha <radians>` (in (0, 2*pi]) and `radius <real>` (non-negative)
followed by one `<id> <theta>` per point. All floats are written with repr,
so a write/read round trip is exact.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .errors import ParseError
from .geometry import TAU, Point, normalize_angle
from .orientation import OrientationAssignment


def _data_lines(path) -> Iterable:
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def read_points(path) -> List[Point]:
    rows = {}
    lines = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected '<id> <x> <y>', got {line!r}")
        try:
            pid = int(parts[0])
            x = float(parts[1])
            y = float(parts[2])
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        if pid < 0:
            raise ParseError(path, lineno, "point id must be non-negative")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(path, lineno, "coordinates must be finite")
        if pid in rows:
            raise ParseError(path, lineno, f"duplicate point id {pid} (first at line {lines[pid]})")
        rows[pid] = Point(pid, x, y)
        lines[pid] = lineno
    if not rows:
        raise ParseError(path, 0, "no points in file")
    if sorted(rows) != list(range(len(rows))):
        raise ParseError(path, 0, "point ids must be contiguous from 0")
    return [rows[i] for i in range(len(rows))]


def write_points(path, points: Sequence[Point], comment: Optional[str] = None) -> None:
    out = []
    if comment:
        out.append(f"# {comment}")
    for p in sorted(points, key=lambda q: q.id):
        out.append(f"{p.id} {p.x!r} {p.y!r}")
    Path(path).write_text("\n".join(out) + "\n")


def _finite(path, lineno: int, text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(path, lineno, str(exc)) from None
    if not math.isfinite(value):
        raise ParseError(path, lineno, f"{what} must be finite")
    return value


def read_orientation(path) -> OrientationAssignment:
    alpha = None
    radius = None
    theta = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if parts[0] == "alpha":
            if alpha is not None or len(parts) != 2:
                raise ParseError(path, lineno, "malformed alpha header")
            alpha = _finite(path, lineno, parts[1], "alpha")
            if not 0.0 < alpha <= TAU:
                raise ParseError(path, lineno, "alpha must lie in (0, 2*pi]")
        elif parts[0] == "radius":
            if radius is not None or len(parts) != 2:
                raise ParseError(path, lineno, "malformed radius header")
            radius = _finite(path, lineno, parts[1], "radius")
            if radius < 0.0:
                raise ParseError(path, lineno, "radius must be non-negative")
        else:
            if alpha is None or radius is None:
                raise ParseError(path, lineno, "alpha/radius headers must come first")
            if len(parts) != 2:
                raise ParseError(path, lineno, f"expected '<id> <theta>', got {line!r}")
            try:
                pid = int(parts[0])
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from None
            th = _finite(path, lineno, parts[1], "theta")
            if pid in theta:
                raise ParseError(path, lineno, f"duplicate orientation for id {pid}")
            theta[pid] = normalize_angle(th)
    if alpha is None or radius is None or not theta:
        raise ParseError(path, 0, "missing alpha/radius header or orientations")
    return OrientationAssignment(alpha=alpha, theta=theta, guaranteed_radius=radius)


def write_orientation(path, assignment: OrientationAssignment) -> None:
    out = [f"alpha {assignment.alpha!r}", f"radius {assignment.guaranteed_radius!r}"]
    for pid in sorted(assignment.theta):
        out.append(f"{pid} {assignment.theta[pid]!r}")
    Path(path).write_text("\n".join(out) + "\n")
