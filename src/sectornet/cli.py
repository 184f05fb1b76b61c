"""Command-line surface tying the library together.

Exit codes: 0 success, 1 semantic negative (not strongly connected / failed
trials), 2 input error, 3 precondition violation, 4 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from .errors import (
    ConstructionInvariantViolated,
    DisconnectedInput,
    DuplicatePoint,
    ParseError,
    TooFewPoints,
    TooManyPoints,
)
from .fileio import read_orientation, read_points, write_orientation, write_points
from .instances import SQRT3, collinear_witness, check_witness_180, random_connected_udg, witness_180
from .orient180 import RADIUS_180, orient_all_180
from .orient90 import RADIUS_90, orient_all_90
from .svgplot import render_scene
from .topology import bounded_degree_mst
from .verifier import build_comm_graph, min_strong_radius, strong_components

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INVARIANT = 4


def nonnegative(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def at_least(low: int):
    """argparse type for an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectornet",
        description="Orient fixed-angle directional antennas for strong connectivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orient", help="orient antennas for a point file")
    p.add_argument("--input", required=True, help="point file")
    p.add_argument("--alpha", type=int, choices=(90, 180), required=True,
                   help="antenna aperture in degrees")
    p.add_argument("--out", required=True, help="orientation file to write")

    p = sub.add_parser("verify", help="check strong connectivity of an orientation")
    p.add_argument("--input", required=True, help="point file")
    p.add_argument("--orientation", required=True, help="orientation file")
    p.add_argument("--radius", type=nonnegative, default=None,
                   help="radius override (default: the orientation file's radius)")

    p = sub.add_parser("witness", help="emit a lower-bound witness point set")
    p.add_argument("--kind", choices=("collinear", "tripod180"), required=True)
    p.add_argument("--param", type=int, required=True,
                   help="point count (collinear) or arm length (tripod180)")
    p.add_argument("--out", required=True, help="point file to write")

    p = sub.add_parser("plot", help="render an SVG figure")
    p.add_argument("--input", required=True, help="point file")
    p.add_argument("--orientation", default=None, help="orientation file (optional)")
    p.add_argument("--radius", type=nonnegative, default=None, help="wedge radius to draw")
    p.add_argument("--out", required=True, help="SVG file to write")

    p = sub.add_parser("experiment", help="random end-to-end orient+verify trials")
    p.add_argument("--alpha", type=int, choices=(90, 180), required=True)
    p.add_argument("--n", type=at_least(2), required=True, help="points per trial")
    p.add_argument("--trials", type=at_least(0), required=True)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _orient_fn(alpha_deg: int):
    return orient_all_180 if alpha_deg == 180 else orient_all_90


def cmd_orient(args) -> int:
    points = read_points(args.input)
    assignment = _orient_fn(args.alpha)(points)
    write_orientation(args.out, assignment)
    achieved = min_strong_radius(points, assignment)
    print(f"guaranteed_radius {assignment.guaranteed_radius!r}")
    print(f"achieved_min_strong_radius {achieved!r}")
    return EXIT_OK


def read_orientation_for(points, path):
    """The orientation file at ``path``, which must orient exactly the points' ids."""
    assignment = read_orientation(path)
    if set(assignment.theta) != {p.id for p in points}:
        raise ParseError(path, 0, "orientation ids do not match point ids")
    return assignment


def cmd_verify(args) -> int:
    points = read_points(args.input)
    assignment = read_orientation_for(points, args.orientation)
    sccs = len(strong_components(build_comm_graph(points, assignment, r_override=args.radius)))
    if sccs <= 1:
        print("STRONG sccs=1")
        return EXIT_OK
    print(f"NOT-STRONG sccs={sccs}")
    return EXIT_NEGATIVE


def cmd_witness(args) -> int:
    if args.kind == "collinear":
        points = collinear_witness(args.param)
        write_points(args.out, points, comment=f"collinear witness n={args.param}")
    else:
        w = witness_180(args.param)
        write_points(args.out, w.points, comment=f"tripod180 witness arms={args.param}")
        ok = check_witness_180(w, SQRT3 - 1e-6)
        print(f"witness_check {'PASS' if ok else 'FAIL'}")
    return EXIT_OK


def cmd_plot(args) -> int:
    points = read_points(args.input)
    assignment = read_orientation_for(points, args.orientation) if args.orientation else None
    try:
        tree_edges = bounded_degree_mst(points).edges()
    except DisconnectedInput:
        tree_edges = None
    comm = None
    radius = args.radius
    if assignment is not None:
        if radius is None:
            radius = assignment.guaranteed_radius
        graph = build_comm_graph(points, assignment, r_override=radius)
        comm = [(a, b) for a in sorted(graph.out_edges) for b in sorted(graph.out_edges[a])]
    svg = render_scene(points, tree_edges, assignment, radius, comm)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return EXIT_OK


def cmd_experiment(args) -> int:
    bound = RADIUS_180 if args.alpha == 180 else RADIUS_90
    box = max(1.0, math.sqrt(args.n))
    print("trial n achieved bound status")
    failures = 0
    full_group_trials = 0
    full_group_tight = 0
    for trial in range(args.trials):
        points = random_connected_udg(args.n, args.seed + trial, box)
        assignment = _orient_fn(args.alpha)(points)
        achieved = min_strong_radius(points, assignment)
        ok = achieved is not None and achieved <= bound + 1e-9
        failures += 0 if ok else 1
        if args.alpha == 90 and assignment.diagnostics.get("all_groups_full"):
            full_group_trials += 1
            if achieved is not None and achieved <= 5.0 + 1e-9:
                full_group_tight += 1
        print(f"{trial} {args.n} {achieved!r} {bound!r} {'PASS' if ok else 'FAIL'}")
    print(f"passed {args.trials - failures}/{args.trials} at alpha={args.alpha} bound={bound!r}")
    if args.alpha == 90:
        print(
            f"diagnostic full-group trials achieving r<=5: "
            f"{full_group_tight}/{full_group_trials}"
        )
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "orient": cmd_orient,
        "verify": cmd_verify,
        "witness": cmd_witness,
        "plot": cmd_plot,
        "experiment": cmd_experiment,
    }[args.command]
    try:
        return handler(args)
    except (ParseError, ValueError, DuplicatePoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DisconnectedInput, TooFewPoints, TooManyPoints) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConstructionInvariantViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
