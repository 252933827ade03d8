"""World description: sensors, secure pair, region of interest, constants.

A scenario fixes everything the fusion center knows a priori: sensor
positions and thresholds, the two tamper-proof anchor sensors, the disc the
target is known to inhabit, and the attenuation constants.  From these it
derives the distance bracket [D_L, D_U] valid for every sensor and every
target position in the region, the table of per-sensor constants the
guarantees rest on (``SensorConstants``: the zero-bit probability bracket
[rho_L, rho_U], the frequency bracket, the conversion factor Xi and the
distortion floor lambda), and a diagnostic report on the standing
geometric assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidScenario
from .noise import GaussianNoise, _density, is_finite, ndtr, ndtri, shown

__all__ = [
    "Point",
    "SensorSpec",
    "RoiDisc",
    "ScenarioConfig",
    "SensorArrays",
    "SensorConstants",
    "DistanceBounds",
    "AssumptionReport",
    "distance",
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
        a, b = secure
        if a.position == b.position:
            raise InvalidScenario(f"secure sensors {a.id} and {b.id} share one position")
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
        """Distance bracket and anchor separation, closed form for a disc
        region, computed on first use and kept.

        d_lower = min_j (||sensor_j - center|| - radius) and
        d_upper = max_j (||sensor_j - center|| + radius): the extremes of the
        sensor-target distance over all sensors and all target positions in
        the disc.
        """
        return self._bounds

    def constants(self) -> SensorConstants:
        """The ``SensorConstants`` table of every sensor, built on first use and kept."""
        return self._constants

    # Built on first use, since construction allows what they reject (a sensor
    # inside the ROI, an unordered bracket); a build that raises is not kept.
    @cached_property
    def _bounds(self) -> DistanceBounds:
        center_d = [distance(x.position, self.roi.center) for x in self.sensors]
        d_lower = min(center_d) - self.roi.radius
        d_upper = max(center_d) + self.roi.radius
        if d_lower <= 0.0:
            raise InvalidScenario(
                "a sensor lies inside the ROI disc (lower distance bound <= 0)"
            )
        a, b = self._secure
        return DistanceBounds(d_lower, d_upper, distance(a.position, b.position))

    @cached_property
    def _constants(self) -> SensorConstants:
        return _sensor_constants(self)

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
        try:
            return self.p0 * (self.d0 / d) ** self.gamma
        except OverflowError:
            raise DomainError(
                f"received power p0 * (d0 / d)^gamma overflows at d = {d}"
            ) from None


class SensorConstants(NamedTuple):
    """The constants the guarantees rest on, one read-only column per constant.

    Rows follow ``s.sensors``: ``ids`` is a tuple and the rest float64
    arrays.  For each sensor, with F, f its noise law's distribution and
    density:

    - rho_l, rho_u: the zero-bit probability bracket, F(tau - p0 (d0/D)^gamma)
      at D = d_lower (nearest target) and D = d_upper (farthest);
    - eps_l, eps_u: the frequency bracket, at the midpoints of the gaps
      around it: eps_L = rho_L / 2 and eps_U = (rho_U + F(tau)) / 2;
    - xi: the factor Xi from a frequency deviation to the distance
      estimate's, valid while the frequency stays inside [eps_L, eps_U]:
      d0 p0^(1/gamma) (tau - F^{-1}(eps_U))^(-(gamma+1)/gamma)
      / inf f over [F^{-1}(eps_L), F^{-1}(eps_U)];
    - lam: the distortion floor lambda, the guaranteed shift of D_hat under
      an attack with |Psi| > kappa:
      kappa d0 p0^(1/gamma) (tau - F^{-1}(rho_L))^(-(gamma+1)/gamma)
      / sup f over [F^{-1}(rho_L), F^{-1}(rho_U)].

    ``lam_min`` is the least ``lam`` over the unsecure sensors (inf without
    one).  ``row(j)`` gives sensor j's constants as Python scalars.
    """

    ids: tuple[int, ...]
    rho_l: np.ndarray
    rho_u: np.ndarray
    eps_l: np.ndarray
    eps_u: np.ndarray
    xi: np.ndarray
    lam: np.ndarray
    lam_min: float

    def row(self, sensor_id: int) -> SensorConstants:
        """Sensor ``sensor_id``'s constants: the same fields, each a Python scalar."""
        try:
            i = self.ids.index(sensor_id)
        except ValueError:
            raise KeyError(sensor_id) from None
        return SensorConstants(sensor_id, *(c[i].item() for c in self[1:-1]), self.lam_min)


def _sensor_constants(s: ScenarioConfig) -> SensorConstants:
    """Every column of ``SensorConstants`` in one array pass.

    F(tau) comes from ``_sensor_arrays``, and each rho end is ``zero_prob``
    at the power from d_lower or d_upper, in its float steps.  Raises
    InvalidScenario naming the first sensor unless
    0 < rho_L < rho_U < F(tau) <= 1 holds strictly, and DomainError unless
    kappa > 0, eps_U < F(tau) and the density stays positive on both brackets.
    """
    a = _sensor_arrays(s.sensors)
    b = s.distance_bounds()
    rho_l, rho_u = (
        ndtr(((a.threshold - s.power_at(d)) - a.location) / a.scale)
        for d in (b.d_lower, b.d_upper)
    )
    ok = (0.0 < rho_l) & (rho_l < rho_u) & (rho_u < a.f_tau) & (a.f_tau <= 1.0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise InvalidScenario(
            f"probability ordering failed for sensor {s.sensors[i].id}: "
            f"rho_L={float(rho_l[i])}, rho_U={float(rho_u[i])}, F(tau)={float(a.f_tau[i])}"
        )
    if not (s.kappa > 0.0):
        raise DomainError(f"kappa must be positive, got {s.kappa}")
    eps_l, eps_u = 0.5 * rho_l, 0.5 * rho_u + 0.5 * a.f_tau
    x_rl, x_ru, x_el, x_eu = (
        ndtri(q) * a.scale + a.location for q in (rho_l, rho_u, eps_l, eps_u)
    )
    # Just below F(tau), F^{-1}(eps_U) can still round onto tau.
    bad = (eps_u >= a.f_tau) | (x_eu >= a.threshold)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"eps_u = {float(eps_u[i])} must stay below F(tau) = {float(a.f_tau[i])}; the "
            "conversion factor diverges at the boundary"
        )

    def f(x):
        return _density(x, a.location, a.scale)

    # f is unimodal: its sup over an interval sits at the mode if the
    # interval holds it, else at an end; its inf always at an end.
    mode_inside = (x_rl <= a.location) & (a.location <= x_ru)
    sup_f = np.where(mode_inside, f(a.location), np.maximum(f(x_rl), f(x_ru)))
    inf_f = np.minimum(f(x_el), f(x_eu))
    bad = (sup_f <= 0.0) | (inf_f <= 0.0)
    if bad.any():
        raise DomainError(
            f"the density of sensor {s.sensors[int(np.argmax(bad))].id}'s noise "
            "underflows to 0 on its bracket"
        )
    columns = (
        rho_l, rho_u, eps_l, eps_u,
        _over_density(s, 1.0, a.threshold - x_eu, inf_f),
        _over_density(s, s.kappa, a.threshold - x_rl, sup_f),
    )
    for col in columns:
        col.setflags(write=False)
    unsecure = np.array([not x.secure for x in s.sensors])
    lam_min = float(np.min(columns[-1], where=unsecure, initial=math.inf))
    return SensorConstants(tuple(x.id for x in s.sensors), *columns, lam_min)


def _over_density(s: ScenarioConfig, head: float, base: np.ndarray, f: np.ndarray) -> np.ndarray:
    """head d0 p0^(1/gamma) base^(-(gamma+1)/gamma) / f, per element.

    The shape Xi (head 1) and lambda (head kappa) share.  The power is
    Python's, per element, as the scalar formula computes it.
    """
    try:
        head, power = head * s.d0 * s.p0 ** (1.0 / s.gamma), -(s.gamma + 1.0) / s.gamma
        return np.array([head * x**power / y for x, y in zip(base.tolist(), f.tolist())])
    except OverflowError:
        raise DomainError(
            f"d0 p0^(1/gamma) base^(-(gamma+1)/gamma) overflows at gamma = {s.gamma}"
        ) from None


@dataclass(frozen=True)
class AssumptionReport:
    """Diagnostics for the three standing geometric assumptions.

    (a) anchors widely separated: d_secure > d_upper - d_lower + 2*upsilon1;
    (b) region far from the anchor segment:
        inf over the region of (D_{s1} + D_{s2}) > d_secure + 2*upsilon2;
    (c) the region lies strictly inside one half-space of the anchor line.

    Violations downgrade guarantees but do not stop the detector, so they
    are reported, each with a note on the report, never raised.
    """

    condition_a: bool
    condition_b: bool
    condition_c: bool
    margin_a: float
    margin_b: float
    roi_line_clearance: float
    two_focus_inf: float
    two_focus_tolerance: float
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
    return (ux * (p.y - a.y) - uy * (p.x - a.x)) / math.hypot(ux, uy)


def validate_assumptions(s: ScenarioConfig) -> AssumptionReport:
    """Check the standing assumptions; report (never raise) violations.

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

    return AssumptionReport(
        condition_a=condition_a,
        condition_b=condition_b,
        condition_c=condition_c,
        margin_a=margin_a,
        margin_b=margin_b,
        roi_line_clearance=clearance,
        two_focus_inf=two_focus_inf,
        two_focus_tolerance=tolerance,
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
