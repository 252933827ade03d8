"""World description: sensors, secure pair, region of interest, constants.

A scenario fixes everything the fusion center knows a priori: sensor
positions and thresholds, the two tamper-proof anchor sensors, the disc the
target is known to inhabit, and the attenuation constants.  From these it
derives the distance bracket [D_L, D_U] valid for every sensor and every
target position in the region, the matching zero-bit probability bracket
[rho_L, rho_U], and a diagnostic report on the standing geometric
assumptions the performance guarantees rest on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import AssumptionWarning, DomainError, InvalidScenario
from .noise import GaussianNoise, is_finite, ndtr, shown

__all__ = [
    "Point",
    "SensorSpec",
    "RoiDisc",
    "ScenarioConfig",
    "SensorArrays",
    "DistanceBounds",
    "AssumptionReport",
    "distance",
    "compute_distance_bounds",
    "rho_bounds",
    "unsecure_rho_bounds",
    "validate_assumptions",
    "roi_side",
]

# Boundary sample count for the two-focus infimum in assumption (b).
TWO_FOCUS_BOUNDARY_POINTS = 10_000


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (is_finite(self.x) and is_finite(self.y)):
            name = "y" if is_finite(self.x) else "x"
            raise DomainError(f"point {name} must be finite, got {shown(getattr(self, name))}")


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class SensorSpec:
    """One sensor: position, quantizer threshold, noise law, secure flag."""

    id: int
    position: Point
    threshold: float
    noise: GaussianNoise
    secure: bool = False

    def __post_init__(self) -> None:
        if not is_finite(self.threshold):
            raise DomainError(
                f"sensor {self.id} threshold must be finite, got {shown(self.threshold)}"
            )

    def zero_prob(self, power: float = 0.0) -> float:
        """Pr(bit = 0) at received power ``power``: F(tau - power), F(tau) at 0."""
        return self.noise.cdf(self.threshold - power)


@dataclass(frozen=True)
class RoiDisc:
    """The disc known to contain the target."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and is_finite(self.radius)):
            raise DomainError(f"ROI radius must be positive and finite, got {shown(self.radius)}")

    def contains(self, p: Point) -> bool:
        return distance(self.center, p) <= self.radius


@dataclass(frozen=True)
class DistanceBounds:
    """Distance bracket over the region plus the anchor separation.

    d_lower/d_upper bound the sensor-target distance for every sensor and
    every target position in the region; d_secure is the distance between
    the two secure sensors.  A plain record: operations that consume it
    enforce the 0 < d_lower < d_upper ordering themselves.
    """

    d_lower: float
    d_upper: float
    d_secure: float


class SensorArrays(NamedTuple):
    """Estimator constants of several sensors as read-only arrays, in order.

    f_tau is each sensor's F(tau), elementwise the same doubles as
    ``SensorSpec.zero_prob()``.
    """

    threshold: np.ndarray
    location: np.ndarray
    scale: np.ndarray
    f_tau: np.ndarray


def _sensor_arrays(sensors: tuple[SensorSpec, ...]) -> SensorArrays:
    threshold = np.array([s.threshold for s in sensors], dtype=float)
    location = np.array([s.noise.location for s in sensors], dtype=float)
    scale = np.array([s.noise.scale for s in sensors], dtype=float)
    # zero_prob() at power 0 is ndtr((tau - 0.0 - location) / scale), and
    # tau - 0.0 is tau, so this is the same arithmetic element by element.
    out = SensorArrays(threshold, location, scale, ndtr((threshold - location) / scale))
    for arr in out:
        arr.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScenarioConfig:
    """Full world description.

    p0 is the emitted power at reference distance d0, gamma the path-loss
    exponent.  upsilon1/upsilon2 are the separation margins in the standing
    assumptions; kappa is the minimum probability distortion that counts as
    a significant attack.
    """

    sensors: tuple[SensorSpec, ...]
    roi: RoiDisc
    target: Point
    p0: float
    d0: float
    gamma: float
    upsilon1: float = 1.0
    upsilon2: float = 1.0
    kappa: float = 0.005

    _index: dict[int, SensorSpec] = field(init=False, repr=False, compare=False)
    _secure: tuple[SensorSpec, SensorSpec] = field(init=False, repr=False, compare=False)
    _unsecure: tuple[SensorSpec, ...] = field(init=False, repr=False, compare=False)
    _unsecure_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # Resolved once: detect_all estimates every unsecure sensor in one array pass.
    _unsecure_arrays: SensorArrays = field(init=False, repr=False, compare=False)
    # Hashed once: detector.delta_admissible is cached on the whole scenario,
    # and re-hashing every sensor on each lookup cost 0.28 ms at 502 sensors.
    _hash: int = field(init=False, repr=False, compare=False)
    # Filled on first use, not here: compute_distance_bounds raises
    # InvalidScenario for a sensor inside the ROI, which construction allows.
    _bounds: DistanceBounds | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensors", tuple(self.sensors))
        secure = sorted((s for s in self.sensors if s.secure), key=lambda s: s.id)
        if len(secure) != 2:
            raise InvalidScenario(
                f"exactly two sensors must be secure, found {len(secure)}"
            )
        index = {s.id: s for s in self.sensors}
        if len(index) != len(self.sensors):
            raise InvalidScenario("sensor ids must be unique")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_secure", tuple(secure))
        unsecure = tuple(s for s in self.sensors if not s.secure)
        object.__setattr__(self, "_unsecure", unsecure)
        object.__setattr__(self, "_unsecure_ids", tuple(s.id for s in unsecure))
        object.__setattr__(self, "_unsecure_arrays", _sensor_arrays(unsecure))
        for name in ("p0", "d0", "gamma", "upsilon1", "upsilon2", "kappa"):
            v = getattr(self, name)
            if not (v > 0.0 and is_finite(v)):
                raise InvalidScenario(f"{name} must be positive and finite, got {shown(v)}")
        if not self.roi.contains(self.target):
            raise InvalidScenario("target must lie inside the ROI disc")
        object.__setattr__(
            self,
            "_hash",
            hash(tuple(getattr(self, f.name) for f in fields(self) if f.compare)),
        )

    def __hash__(self) -> int:
        return self._hash

    # -- convenience accessors -------------------------------------------

    def sensor(self, sensor_id: int) -> SensorSpec:
        return self._index[sensor_id]

    def secure_pair(self) -> tuple[SensorSpec, SensorSpec]:
        """The two anchors, lower id first."""
        return self._secure

    def unsecure(self) -> tuple[SensorSpec, ...]:
        return self._unsecure

    def unsecure_ids(self) -> tuple[int, ...]:
        """The unsecure sensors' ids, in ``unsecure()`` order."""
        return self._unsecure_ids

    def unsecure_arrays(self) -> SensorArrays:
        """The unsecure sensors' estimator constants, in ``unsecure()`` order."""
        return self._unsecure_arrays

    def distance_bounds(self) -> DistanceBounds:
        """``compute_distance_bounds(self)``, computed on first use and kept."""
        if self._bounds is None:
            object.__setattr__(self, "_bounds", compute_distance_bounds(self))
        return self._bounds

    @property
    def upsilon(self) -> float:
        return min(self.upsilon1, self.upsilon2)

    def signal_mean(self, sensor_id: int) -> float:
        """Noise-free received power at the sensor from the target: p0 * (d0 / D_j)^gamma."""
        d = distance(self.sensor(sensor_id).position, self.target)
        if d <= 0.0:
            raise DomainError("target coincides with the sensor position")
        return self.power_at(d)

    def power_at(self, d: float) -> float:
        """Noise-free received power at distance d: p0 * (d0 / d)^gamma."""
        return self.p0 * (self.d0 / d) ** self.gamma


def compute_distance_bounds(s: ScenarioConfig) -> DistanceBounds:
    """Distance bracket and anchor separation, closed form for a disc region.

    d_lower = min_j (||sensor_j - center|| - radius) and
    d_upper = max_j (||sensor_j - center|| + radius): the extremes of the
    sensor-target distance over all sensors and all target positions in the
    disc.
    """
    center_d = [distance(s0.position, s.roi.center) for s0 in s.sensors]
    d_lower = min(center_d) - s.roi.radius
    d_upper = max(center_d) + s.roi.radius
    if d_lower <= 0.0:
        raise InvalidScenario(
            "a sensor lies inside the ROI disc (lower distance bound <= 0)"
        )
    a, b = s.secure_pair()
    return DistanceBounds(d_lower, d_upper, distance(a.position, b.position))


def rho_bounds(s: ScenarioConfig, j: int) -> tuple[float, float]:
    """Zero-bit probability bracket (rho_L, rho_U) for sensor j.

    rho_L = F_j(tau_j - p0 (d0/d_lower)^gamma) is the smallest possible
    zero-probability over the region (nearest target), rho_U the largest
    (farthest target).  Raises InvalidScenario unless
    0 < rho_L < rho_U < F_j(tau_j) <= 1 holds strictly.
    """
    sensor = s.sensor(j)
    noise, f_tau = sensor.noise, sensor.zero_prob()
    rho_l, rho_u, ok = _rho_pair(s, sensor.threshold, noise.location, noise.scale, f_tau)
    if not ok:
        raise _unordered(j, rho_l, rho_u, f_tau)
    return rho_l, rho_u


def unsecure_rho_bounds(s: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """``rho_bounds`` of every unsecure sensor at once, in ``s.unsecure()`` order.

    Two arrays, elementwise the same doubles as ``rho_bounds``; the
    InvalidScenario names the first sensor whose bracket is not ordered.
    """
    a = s.unsecure_arrays()
    rho_l, rho_u, ok = _rho_pair(s, a.threshold, a.location, a.scale, a.f_tau)
    if not ok.all():
        i = int(np.argmin(ok))
        raise _unordered(s.unsecure_ids()[i], rho_l[i], rho_u[i], a.f_tau[i])
    return rho_l, rho_u


def _rho_pair(s: ScenarioConfig, threshold, location, scale, f_tau):
    """(rho_L, rho_U, whether 0 < rho_L < rho_U < F(tau) <= 1); floats and arrays alike.

    Each end is ``zero_prob`` at the power from d_lower or d_upper, in its
    float steps: ndtr(((tau - power) - location) / scale).
    """
    b = s.distance_bounds()
    rho_l = ndtr(((threshold - s.power_at(b.d_lower)) - location) / scale)
    rho_u = ndtr(((threshold - s.power_at(b.d_upper)) - location) / scale)
    ok = (0.0 < rho_l) & (rho_l < rho_u) & (rho_u < f_tau) & (f_tau <= 1.0)
    return rho_l, rho_u, ok


def _unordered(sensor_id: int, rho_l, rho_u, f_tau) -> InvalidScenario:
    return InvalidScenario(
        f"probability ordering failed for sensor {sensor_id}: "
        f"rho_L={float(rho_l)}, rho_U={float(rho_u)}, F(tau)={float(f_tau)}"
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Diagnostics for the three standing geometric assumptions.

    (a) anchors widely separated: d_secure > d_upper - d_lower + 2*upsilon1;
    (b) region far from the anchor segment:
        inf over the region of (D_{s1} + D_{s2}) > d_secure + 2*upsilon2;
    (c) the region lies strictly inside one half-space of the anchor line.

    Violations downgrade guarantees but do not stop the detector, so they
    are reported (and warned about), never raised.
    """

    condition_a: bool
    condition_b: bool
    condition_c: bool
    margin_a: float
    margin_b: float
    roi_line_clearance: float
    two_focus_inf: float
    two_focus_tolerance: float
    boundary_points: int
    warnings: tuple[str, ...] = field(default=())

    @property
    def all_satisfied(self) -> bool:
        return self.condition_a and self.condition_b and self.condition_c

    def summary(self) -> str:
        lines = [
            f"(a) anchor separation exceeds distance spread: "
            f"{'ok' if self.condition_a else 'VIOLATED'} (margin {self.margin_a:.6g})",
            f"(b) two-focus distance sum clears the anchors: "
            f"{'ok' if self.condition_b else 'VIOLATED'} (margin {self.margin_b:.6g}, "
            f"infimum {self.two_focus_inf:.6g} +- {self.two_focus_tolerance:.2g})",
            f"(c) region strictly inside one half-space: "
            f"{'ok' if self.condition_c else 'VIOLATED'} "
            f"(clearance {self.roi_line_clearance:.6g})",
        ]
        return "\n".join(lines)


def _line_side_distance(a: Point, b: Point, p: Point) -> float:
    """Signed distance of p from line ab (positive on the left of a->b)."""
    ux, uy = b.x - a.x, b.y - a.y
    norm = math.hypot(ux, uy)
    if norm == 0.0:
        raise DomainError("half-space anchors coincide")
    return (ux * (p.y - a.y) - uy * (p.x - a.x)) / norm


def validate_assumptions(s: ScenarioConfig) -> AssumptionReport:
    """Check the standing assumptions; warn (never raise) on violations.

    The two-focus infimum in (b) is evaluated numerically on
    TWO_FOCUS_BOUNDARY_POINTS points of the disc boundary plus the center;
    the distance sum is 2-Lipschitz, so the reported tolerance is twice the
    half-spacing of the boundary samples.
    """
    bounds = s.distance_bounds()
    sa, sb = s.secure_pair()

    margin_a = bounds.d_secure - (bounds.d_upper - bounds.d_lower + 2.0 * s.upsilon1)
    condition_a = margin_a > 0.0

    m = TWO_FOCUS_BOUNDARY_POINTS
    theta = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    px = s.roi.center.x + s.roi.radius * np.cos(theta)
    py = s.roi.center.y + s.roi.radius * np.sin(theta)
    px = np.append(px, s.roi.center.x)
    py = np.append(py, s.roi.center.y)
    sum_d = np.hypot(px - sa.position.x, py - sa.position.y) + np.hypot(
        px - sb.position.x, py - sb.position.y
    )
    two_focus_inf = float(sum_d.min())
    tolerance = 2.0 * (math.pi * s.roi.radius / m)
    margin_b = two_focus_inf - (bounds.d_secure + 2.0 * s.upsilon2)
    condition_b = margin_b > 0.0

    signed = _line_side_distance(sa.position, sb.position, s.roi.center)
    clearance = abs(signed) - s.roi.radius
    condition_c = clearance > 0.0

    notes = []
    if not condition_a:
        notes.append(
            "anchor separation does not exceed the distance spread "
            f"(margin {margin_a:.6g}); identification guarantees weaken"
        )
    if not condition_b:
        notes.append(
            f"two-focus distance sum too small (margin {margin_b:.6g})"
        )
    if not condition_c:
        notes.append("region is not strictly inside one half-space of the anchor line")
    for note in notes:
        warnings.warn(note, AssumptionWarning, stacklevel=2)

    return AssumptionReport(
        condition_a=condition_a,
        condition_b=condition_b,
        condition_c=condition_c,
        margin_a=margin_a,
        margin_b=margin_b,
        roi_line_clearance=clearance,
        two_focus_inf=two_focus_inf,
        two_focus_tolerance=tolerance,
        boundary_points=m,
        warnings=tuple(notes),
    )


def roi_side(s: ScenarioConfig) -> int:
    """Which side of the anchor line the ROI center lies on (+1 or -1).

    Used to build the half-space clip for the geometric test.  Returns +1
    when the center is on the positive side of the signed distance, -1
    otherwise; an exactly-on-line center (degenerate) maps to +1.
    """
    sa, sb = s.secure_pair()
    signed = _line_side_distance(sa.position, sb.position, s.roi.center)
    return 1 if signed >= 0.0 else -1
