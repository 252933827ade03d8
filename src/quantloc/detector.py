"""Per-sensor attack detection by geometric consistency.

Each unsecure sensor j is declared unattacked (0) exactly when the circle
of radius D_hat_j around its position meets the intersection of the two
secure sensors' rings of half-width delta, restricted to the ROI side of
the secure line.  An attack that moves D_hat_j by more than the combined
slack pulls the circle clear of that region, flipping the decision to 1.

The module also carries the network-wide distortion floor (``lambda_min``,
the least of the unsecure sensors' ``lam`` in the scenario's
``SensorConstants``) and the admissible delta (``delta_admissible``), below
which the floor provably exceeds the geometric slack.  Practical runs
routinely use larger delta; exceeding the admissible value therefore only
triggers an advisory warning.

A ``DetectionReport`` is columnar: tuples ``ids``, ``flags`` (1 = attacked),
``d_hat`` and ``clamped`` in ``s.unsecure()`` order, so reports compare by
value.  ``rows`` views them as ``SensorDecision``s, built on first read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Mapping, Sequence

import numpy as np

from .errors import AdvisoryWarning, DomainError, InvalidScenario, MissingSensorData
from .geometry import (
    HalfSpace,
    Ring,
    check_m_points,
    circle_meets_region_analytic,
    circle_meets_region_discretized,
)
from .measurement import (
    DistanceEstimate,
    QuantizedDataset,
    attacked_distance,
    nmle_distance,
    nmle_distances,
)
from .noise import is_finite, shown
from .scenario import ScenarioConfig, roi_side

__all__ = [
    "DEFAULT_M",
    "DetectorConfig",
    "SensorDecision",
    "DetectionReport",
    "detect_all",
    "detect_from_probabilities",
    "lambda_min",
    "delta_admissible",
]

DEFAULT_M = 200_000

METHODS = ("analytic", "discretized")


@dataclass(frozen=True)
class DetectorConfig:
    """Detection radius slack delta and the region-test method.

    The analytic method is exact: it checks D_hat against the closed-form
    interval [dmin, dmax] of distances from the sensor to the ring
    intersection.  The discretized one probes m_points evenly spaced points
    on the sensor circle and is kept as the reference implementation for
    cross-validation.
    """

    delta: float
    method: str = "analytic"
    m_points: int = DEFAULT_M

    def __post_init__(self) -> None:
        delta = self.delta
        if isinstance(delta, bool) or not isinstance(
            delta, (int, float, np.integer, np.floating)
        ):
            raise DomainError(f"delta must be a real number, got {delta!r}")
        if not (delta > 0.0 and is_finite(delta)):
            raise DomainError(f"delta must be positive and finite, got {shown(delta)}")
        # A Python float, so reports and tables read the same for any input type.
        object.__setattr__(self, "delta", float(delta))
        if self.method not in METHODS:
            raise DomainError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        object.__setattr__(self, "m_points", check_m_points(self.m_points))


@dataclass(frozen=True, slots=True)
class SensorDecision:
    sensor_id: int
    decision: int
    d_hat: float
    clamped: bool


@dataclass(frozen=True)
class DetectionReport:
    """Per-sensor columns in ``s.unsecure()`` order plus the shared secure radii."""

    ids: tuple[int, ...]
    flags: tuple[int, ...]
    d_hat: tuple[float, ...]
    clamped: tuple[bool, ...]
    secure_estimates: tuple[tuple[int, DistanceEstimate], ...]
    method: str
    delta: float
    k: int | None = None

    @cached_property
    def rows(self) -> tuple[SensorDecision, ...]:
        return tuple(map(SensorDecision, self.ids, self.flags, self.d_hat, self.clamped))

    @property
    def decisions(self) -> dict[int, int]:
        return dict(zip(self.ids, self.flags))

    def to_table(self) -> str:
        lines = ["sensor_id\tdecision\tD_hat\tclamped\tmethod\tdelta"]
        tail = f"\t{self.method}\t{self.delta:g}"
        lines += [
            f"{sid}\t{flag}\t{d_hat:.6f}\t{int(clamped)}{tail}"
            for sid, flag, d_hat, clamped in zip(self.ids, self.flags, self.d_hat, self.clamped)
        ]
        return "\n".join(lines) + "\n"


def _missing(sensor_id) -> MissingSensorData:
    return MissingSensorData(f"dataset has no record for sensor {sensor_id}")


def _estimate(s: ScenarioConfig, data, j: int) -> DistanceEstimate:
    try:
        freq = data.freq(j)
    except KeyError:
        raise _missing(j) from None
    return nmle_distance(s, j, freq)


def _classify(
    s: ScenarioConfig,
    cfg: DetectorConfig,
    secure_estimates: tuple[tuple[int, DistanceEstimate], ...],
    d_hat: Sequence[float],
    clamped: Sequence[bool],
    k: int | None,
) -> DetectionReport:
    """Decide every unsecure sensor from its radius against the secure rings.

    ``d_hat`` and ``clamped`` are columns in ``s.unsecure()`` order.  Nothing
    here depends on how the radii were estimated, so one set of estimates
    can be re-decided at any delta or method.
    """
    (_, e1), (_, e2) = secure_estimates
    s1, s2 = s.secure_pair()
    clip = HalfSpace(a=s1.position, b=s2.position, side=roi_side(s))
    ring1 = Ring(s1.position, e1.value, cfg.delta, clip)
    ring2 = Ring(s2.position, e2.value, cfg.delta, clip)
    if cfg.method == "analytic":
        meets = circle_meets_region_analytic
    else:
        meets = partial(circle_meets_region_discretized, m_points=cfg.m_points)
    flags = tuple(
        0 if meets(sensor.position, r, ring1, ring2) else 1
        for sensor, r in zip(s.unsecure(), d_hat)
    )
    return DetectionReport(
        ids=s.unsecure_ids(),
        flags=flags,
        d_hat=tuple(d_hat),
        clamped=tuple(clamped),
        secure_estimates=secure_estimates,
        method=cfg.method,
        delta=cfg.delta,
        k=k,
    )


def detect_all(
    s: ScenarioConfig, cfg: DetectorConfig, data: QuantizedDataset
) -> DetectionReport:
    """Classify every unsecure sensor against the shared secure rings.

    The two anchors' radii come from ``nmle_distance``, and the report
    carries their estimates.  The unsecure sensors' zero counts come in
    one pass (a popcount of a loaded dataset's packed rows, no bits
    unpacked), and ``nmle_distances`` turns them all into radii at once,
    with values and clamp flags identical to ``nmle_distance``'s.  A sensor
    without a record raises MissingSensorData naming it, the anchors first.
    The region test is picked once, then runs once per sensor.
    """
    _warn_if_inadmissible(s, cfg.delta)
    s1, s2 = s.secure_pair()
    secure = ((s1.id, _estimate(s, data, s1.id)), (s2.id, _estimate(s, data, s2.id)))
    try:
        zeros = data.zero_counts(s.unsecure_ids())
    except KeyError as exc:
        raise _missing(exc.args[0]) from None
    d_hat, clamped = nmle_distances(s, zeros, data.k)
    return _classify(s, cfg, secure, d_hat, clamped, data.k)


def detect_from_probabilities(
    s: ScenarioConfig, cfg: DetectorConfig, probs: Mapping[int, float]
) -> DetectionReport:
    """Infinite-K surrogate: feed exact zero-probabilities instead of data.

    Every sensor's radius is the no-noise inversion of its probability, so
    the report shows the detector's asymptotic verdicts.
    """
    s1, s2 = s.secure_pair()
    estimates = {}
    for sid in (s1.id, s2.id, *s.unsecure_ids()):
        if sid not in probs:
            raise MissingSensorData(f"no probability supplied for sensor {sid}")
        value = attacked_distance(s, sid, probs[sid])
        estimates[sid] = DistanceEstimate(value=value, clamped=False, xi_used=probs[sid])
    secure = ((s1.id, estimates[s1.id]), (s2.id, estimates[s2.id]))
    radii = [estimates[sid].value for sid in s.unsecure_ids()]
    return _classify(s, cfg, secure, radii, (False,) * len(radii), None)


# -- distortion floor and admissible delta ---------------------------------


def lambda_min(s: ScenarioConfig) -> float:
    """The network-wide floor: the least ``lam`` over unsecure sensors."""
    if not s.unsecure():
        raise DomainError("the scenario has no unsecure sensors, so lambda_min is undefined")
    return s.constants().lam_min


def delta_admissible(s: ScenarioConfig) -> float:
    """Supremum of delta values for which detection is provably correct.

    min(upsilon, (lambda_min / B)^2), with B set by the distance bound
    d_upper and the anchor separation d_secure.
    """
    bounds = s.distance_bounds()
    lam = lambda_min(s)
    d_upper, d_secure, upsilon = bounds.d_upper, bounds.d_secure, s.upsilon
    bracket = math.sqrt(2.0 * d_upper + upsilon) * math.sqrt(
        (6.0 * d_upper + 3.0 * upsilon)
        / (2.0 * d_secure)
        * (upsilon / d_secure + 1.0)
        + 3.0
    ) + 0.5 * math.sqrt(upsilon)
    return min(upsilon, (lam / bracket) ** 2)


def _warn_if_inadmissible(s: ScenarioConfig, delta: float) -> None:
    try:
        limit = delta_admissible(s)
    except (DomainError, InvalidScenario):
        return
    if delta > limit:
        warnings.warn(
            f"delta = {delta:g} exceeds the provably safe limit {limit:.6g}; "
            "correctness guarantees no longer apply (detection may still work)",
            AdvisoryWarning,
            stacklevel=3,
        )
