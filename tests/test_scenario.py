"""Scenario geometry: distance bounds, probability bracket, assumptions."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from quantloc import (
    AssumptionWarning,
    DomainError,
    GaussianNoise,
    InvalidScenario,
    Point,
    RoiDisc,
    ScenarioConfig,
    SensorSpec,
    build_paper_setup,
    distance,
    roi_side,
    validate_assumptions,
)

from conftest import random_scenario

# Distance bracket of the reference network (unsecure sensors at x = +-900,
# anchors at +-1000, disc of radius 7500 centered 1e5 above the axis),
# frozen from 30-digit arithmetic.
REF_D_LOWER = 92504.0499179908213381
REF_D_UPPER = 107504.999875006249609


def test_point_rejects_non_finite():
    with pytest.raises(DomainError):
        Point(math.inf, 0.0)
    with pytest.raises(DomainError):
        Point(0.0, math.nan)


@pytest.mark.parametrize(
    ("build", "field"),
    [
        (lambda big: Point(big, 0.0), "point x"),
        (lambda big: Point(0.0, -big), "point y"),
        (lambda big: RoiDisc(Point(0.0, 0.0), big), "ROI radius"),
        (lambda big: SensorSpec(7, Point(0.0, 0.0), big, GaussianNoise()), "sensor 7 threshold"),
    ],
    ids=["point-x", "point-y", "roi-radius", "sensor-threshold"],
)
def test_an_integer_past_the_float_range_is_named(build, field):
    with pytest.raises(DomainError, match=field):
        build(10**400)
    with pytest.raises(DomainError, match=field):
        build(math.inf)


def test_distance():
    assert distance(Point(0.0, 0.0), Point(3.0, 4.0)) == 5.0


def test_roi_disc_validation_and_closed_membership():
    with pytest.raises(DomainError):
        RoiDisc(Point(0.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        RoiDisc(Point(0.0, 0.0), -2.0)
    disc = RoiDisc(Point(0.0, 0.0), 2.0)
    assert disc.contains(Point(2.0, 0.0))
    assert not disc.contains(Point(2.0 + 1e-9, 0.0))


def _sensors(noise, secure_count=2):
    out = [
        SensorSpec(1, Point(-30.0, 0.0), 1.0, noise),
        SensorSpec(2, Point(30.0, 0.0), 1.0, noise),
    ]
    if secure_count >= 1:
        out.append(SensorSpec(3, Point(-100.0, 0.0), 1.0, noise, secure=True))
    if secure_count >= 2:
        out.append(SensorSpec(4, Point(100.0, 0.0), 1.0, noise, secure=True))
    return tuple(out)


def test_scenario_validation():
    noise = GaussianNoise()
    roi = RoiDisc(Point(0.0, 100.0), 5.0)
    target = Point(0.0, 100.0)
    with pytest.raises(InvalidScenario):
        ScenarioConfig(_sensors(noise, secure_count=1), roi, target, 1.0, 100.0, 2.0)
    dup = _sensors(noise)[:3] + (SensorSpec(3, Point(50.0, 0.0), 1.0, noise, True),)
    with pytest.raises(InvalidScenario):
        ScenarioConfig(dup, roi, target, 1.0, 100.0, 2.0)
    with pytest.raises(InvalidScenario):
        ScenarioConfig(_sensors(noise), roi, target, -1.0, 100.0, 2.0)
    with pytest.raises(InvalidScenario):
        ScenarioConfig(_sensors(noise), roi, target, 1.0, 100.0, 2.0, kappa=0.0)
    with pytest.raises(InvalidScenario):
        ScenarioConfig(_sensors(noise), roi, Point(0.0, 200.0), 1.0, 100.0, 2.0)


@pytest.mark.parametrize("name", ["kappa", "p0", "upsilon2"])
def test_a_constant_past_the_float_range_is_named(toy_scenario, name):
    with pytest.raises(InvalidScenario, match=f"{name} must be positive and finite"):
        replace(toy_scenario, **{name: 2**2000})


def test_scenario_accessors(toy_scenario):
    s = toy_scenario
    assert s.sensor(2).position == Point(30.0, 0.0)
    with pytest.raises(KeyError):
        s.sensor(99)
    a, b = s.secure_pair()
    assert (a.id, b.id) == (3, 4)
    assert tuple(x.id for x in s.unsecure()) == (1, 2)
    assert s.upsilon == 20.0


def test_sensor_lookups_are_built_once_and_stay_out_of_eq_and_repr(toy_scenario):
    s = toy_scenario
    assert s.sensor(2) is s.sensors[1]
    assert s.secure_pair() is s.secure_pair()
    assert s.unsecure() is s.unsecure()
    assert s.unsecure_ids() is s.unsecure_ids()
    assert s.unsecure_ids() == tuple(x.id for x in s.unsecure())
    # the anchors come out lower id first whatever their listing order
    swapped = replace(s, sensors=(s.sensors[3], *s.sensors[:3]))
    assert [x.id for x in swapped.secure_pair()] == [3, 4]
    assert swapped.sensor(4) is s.sensors[3]
    twin = replace(s)
    assert twin == s and hash(twin) == hash(s)
    assert "_index" not in repr(s)
    init_names = {f.name for f in fields(ScenarioConfig) if f.init}
    assert not init_names & {"_index", "_secure", "_unsecure", "_unsecure_ids"}


def test_zero_prob_and_power_at(toy_scenario):
    s = toy_scenario
    sensor = s.sensor(1)
    assert s.power_at(50.0) == (100.0 / 50.0) ** 2
    assert s.signal_mean(1) == s.power_at(math.hypot(30.0, 100.0))
    assert sensor.zero_prob(0.25) == float(sensor.noise.cdf(1.0 - 0.25))
    assert sensor.zero_prob() == float(sensor.noise.cdf(1.0))


def test_signal_mean(toy_scenario):
    d = math.hypot(30.0, 100.0)
    expected = (100.0 / d) ** 2
    assert toy_scenario.signal_mean(1) == pytest.approx(expected, rel=1e-15)
    # a scenario may put a sensor at its target; the power there is undefined
    at_sensor = Point(-30.0, 0.0)
    coincident = replace(toy_scenario, roi=RoiDisc(at_sensor, 5.0), target=at_sensor)
    with pytest.raises(DomainError, match="target coincides with the sensor position"):
        coincident.signal_mean(1)
    assert coincident.signal_mean(2) == (100.0 / 60.0) ** 2


def test_distance_bounds_toy(toy_scenario):
    b = toy_scenario.distance_bounds()
    assert b.d_lower == pytest.approx(math.sqrt(10900.0) - 5.0, rel=1e-15)
    assert b.d_upper == pytest.approx(math.sqrt(20000.0) + 5.0, rel=1e-15)
    assert b.d_secure == 200.0


def test_distance_bounds_reject_sensor_inside_roi():
    noise = GaussianNoise()
    sensors = _sensors(noise) + (SensorSpec(5, Point(0.0, 99.0), 1.0, noise),)
    s = ScenarioConfig(
        sensors,
        RoiDisc(Point(0.0, 100.0), 5.0),
        Point(0.0, 100.0),
        1.0,
        100.0,
        2.0,
    )
    with pytest.raises(InvalidScenario):
        s.distance_bounds()


def test_distance_bounds_reference_network():
    s, _ = build_paper_setup(scale=0.004)
    b = s.distance_bounds()
    assert b.d_lower == pytest.approx(REF_D_LOWER, rel=1e-14)
    assert b.d_upper == pytest.approx(REF_D_UPPER, rel=1e-14)
    assert b.d_secure == 2000.0


def test_rho_bounds_are_cdf_images_of_distance_bounds():
    s, _ = build_paper_setup(scale=0.004)
    b = s.distance_bounds()
    noise = s.sensor(1).noise
    row = s.constants().row(1)
    rho_l, rho_u = row.rho_l, row.rho_u
    assert rho_l == pytest.approx(
        noise.cdf(1.0 - (s.d0 / b.d_lower) ** 2), rel=1e-15
    )
    assert rho_u == pytest.approx(
        noise.cdf(1.0 - (s.d0 / b.d_upper) ** 2), rel=1e-15
    )
    assert 0.0 < rho_l < rho_u < noise.cdf(1.0) <= 1.0
    # the scenario computes its bounds once and keeps them
    assert s.distance_bounds() == b and s.distance_bounds() is s.distance_bounds()


def test_rho_bounds_reject_underflowed_lower_probability():
    # d0/d_lower large enough that F(tau - p0 (d0/d_L)^gamma) underflows to 0
    noise = GaussianNoise()
    sensors = (
        SensorSpec(1, Point(0.0, 5.0), 1.0, noise),
        SensorSpec(2, Point(-100.0, 0.0), 1.0, noise, secure=True),
        SensorSpec(3, Point(100.0, 0.0), 1.0, noise, secure=True),
    )
    s = ScenarioConfig(
        sensors,
        RoiDisc(Point(0.0, 10.0), 1.0),
        Point(0.0, 10.0),
        1.0,
        400.0,
        2.0,
    )
    with pytest.raises(InvalidScenario):
        s.constants()


def test_distance_bracket_covers_actual_distances(rng):
    for _ in range(20):
        s = random_scenario(rng)
        b = s.distance_bounds()
        for sensor in s.sensors:
            d = distance(sensor.position, s.target)
            assert b.d_lower <= d <= b.d_upper


def test_validate_assumptions_all_ok(toy_scenario):
    with warnings.catch_warnings():
        warnings.simplefilter("error", AssumptionWarning)
        report = validate_assumptions(toy_scenario)
    assert report.all_satisfied
    assert report.margin_a == pytest.approx(
        200.0 - (math.sqrt(20000.0) + 5.0 - (math.sqrt(10900.0) - 5.0) + 40.0),
        rel=1e-12,
    )
    assert report.roi_line_clearance == pytest.approx(95.0, rel=1e-12)
    # infimum of the two-focus sum sits at the bottom of the disc
    assert report.two_focus_inf == pytest.approx(
        2.0 * math.hypot(100.0, 95.0), abs=report.two_focus_tolerance
    )
    assert report.margin_b > 0.0
    assert len(report.summary().splitlines()) == 3
    assert "VIOLATED" not in report.summary()


def test_validate_assumptions_reference_network_violates_a():
    s, _ = build_paper_setup(scale=0.02)
    with pytest.warns(AssumptionWarning):
        report = validate_assumptions(s)
    assert not report.condition_a
    assert report.condition_b and report.condition_c
    assert report.margin_a == pytest.approx(-13002.9, abs=0.1)
    assert not report.all_satisfied
    assert report.summary().count("VIOLATED") == 1
    assert report.summary().count("ok") == 2


def test_roi_side(toy_scenario):
    assert roi_side(toy_scenario) == 1
    noise = GaussianNoise()
    mirrored = ScenarioConfig(
        _sensors(noise),
        RoiDisc(Point(0.0, -100.0), 5.0),
        Point(0.0, -100.0),
        1.0,
        100.0,
        2.0,
        upsilon1=20.0,
        upsilon2=20.0,
        kappa=1.0,
    )
    assert roi_side(mirrored) == -1
