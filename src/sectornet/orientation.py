"""Orientation assignments: one bisector angle per point, shared aperture and radius."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from .errors import MissingOrientation
from .geometry import Point, Wedge, normalize_angle


@dataclass(frozen=True)
class OrientationAssignment:
    """Per-point bisector angles plus the shared aperture and guaranteed radius.

    ``theta`` maps every point id to a bisector angle in [0, 2*pi).
    ``guaranteed_radius`` is the radius at which the producing construction
    verified strong connectivity. ``diagnostics`` carries non-contractual
    construction details (group sizes, tighter applicable bounds, ...).
    """

    alpha: float
    theta: Dict[int, float]
    guaranteed_radius: float
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "theta", {i: normalize_angle(t) for i, t in self.theta.items()}
        )

    def wedge(self, p: Point) -> Wedge:
        if p.id not in self.theta:
            raise MissingOrientation(f"no orientation for point id {p.id}")
        return Wedge(p, self.theta[p.id], self.alpha, self.guaranteed_radius)

    def wedges(self, points: Sequence[Point]):
        return [self.wedge(p) for p in points]
