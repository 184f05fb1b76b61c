"""sectornet: orient fixed-angle directional antennas on planar point sets so
the induced directed communication graph is strongly connected.

Constructions: 180-degree antennas at radius 1+sqrt(3), 90-degree antennas at
radius 7 (radius 2 for up to three points), and the four-point construction at
the maximum pairwise distance. Verification tools decide strong connectivity,
minimum strong radius, directional plane coverage, and brute-force
feasibility on tiny instances; generators produce the matching lower-bound
witnesses and random connected test instances.
"""

from .errors import (
    CoincidentPoints,
    ConstructionInvariantViolated,
    DisconnectedInput,
    DuplicatePoint,
    MissingOrientation,
    NotGeneralPosition,
    ParseError,
    SearchExhausted,
    SectornetError,
    TooFewPoints,
    TooManyPoints,
)
from .fourpoint import FourPointResult, orient_four, search_orient_four
from .geometry import (
    EPS,
    Point,
    QuadClass,
    QuadKind,
    Wedge,
    ccw_angle_between,
    classify_quad,
    direction,
    point_in_wedge,
)
from .instances import (
    Witness180,
    check_witness_180,
    collinear_witness,
    random_connected_udg,
    witness_180,
)
from .orient180 import Group180, RADIUS_180, orient_all_180, pair_smallest_angle, partition_groups_180
from .orient90 import (
    Group90,
    RADIUS_90,
    choose_representatives,
    extract_groups_90,
    orient_all_90,
    orient_small,
)
from .orientation import OrientationAssignment
from .topology import (
    RootedTree,
    Udg,
    bounded_degree_mst,
    build_udg,
    is_connected,
    tree_heights,
)
from .verifier import (
    CommGraph,
    build_comm_graph,
    covers_plane,
    feasible_by_bruteforce,
    min_strong_radius,
    strongly_connected,
)

__version__ = "0.1.0"

__all__ = [
    "CoincidentPoints",
    "CommGraph",
    "ConstructionInvariantViolated",
    "DisconnectedInput",
    "DuplicatePoint",
    "EPS",
    "FourPointResult",
    "Group180",
    "Group90",
    "MissingOrientation",
    "NotGeneralPosition",
    "OrientationAssignment",
    "ParseError",
    "Point",
    "QuadClass",
    "QuadKind",
    "RADIUS_180",
    "RADIUS_90",
    "RootedTree",
    "SearchExhausted",
    "SectornetError",
    "TooFewPoints",
    "TooManyPoints",
    "Udg",
    "Wedge",
    "Witness180",
    "bounded_degree_mst",
    "build_comm_graph",
    "build_udg",
    "ccw_angle_between",
    "check_witness_180",
    "choose_representatives",
    "classify_quad",
    "collinear_witness",
    "covers_plane",
    "direction",
    "extract_groups_90",
    "feasible_by_bruteforce",
    "is_connected",
    "min_strong_radius",
    "orient_all_180",
    "orient_all_90",
    "orient_four",
    "orient_small",
    "pair_smallest_angle",
    "partition_groups_180",
    "point_in_wedge",
    "random_connected_udg",
    "search_orient_four",
    "strongly_connected",
    "tree_heights",
    "witness_180",
]
