"""The distortion floor's array pass against scipy, literals and error paths."""

from __future__ import annotations

from dataclasses import replace

import pytest
from scipy.stats import norm

import quantloc.detector as detector_module
import quantloc.scenario as scenario_module
from quantloc import (
    DomainError,
    GaussianNoise,
    InvalidScenario,
    Point,
    SensorSpec,
    build_paper_setup,
    compute_distance_bounds,
    delta_admissible,
    lambda_j,
    lambda_min,
    rho_bounds,
    unsecure_rho_bounds,
)
from quantloc.detector import _unsecure_floors

from conftest import make_toy_scenario


def _mixed_scenario():
    """The toy geometry with a different threshold and noise law per sensor."""
    s = make_toy_scenario()
    unsecure = (
        SensorSpec(1, Point(-30.0, 0.0), 1.0, GaussianNoise(0.0, 1.0)),
        SensorSpec(7, Point(-10.0, 0.0), 1.4, GaussianNoise(0.3, 0.7)),
        SensorSpec(2, Point(30.0, 0.0), 0.8, GaussianNoise(-0.2, 1.6)),
        SensorSpec(5, Point(55.0, 0.0), 2.0, GaussianNoise(1.1, 0.4)),
    )
    return replace(s, sensors=unsecure + s.secure_pair())


SCENARIOS = {
    "toy": make_toy_scenario,
    "reference": lambda: build_paper_setup(scale=0.004)[0],
    "mixed": _mixed_scenario,
}


def _floor_oracle(s, j, kappa):
    """lambda_j from its definition, with scipy's normal law throughout."""
    sensor = s.sensor(j)
    loc, scale = sensor.noise.location, sensor.noise.scale
    b = compute_distance_bounds(s)
    rho_l = norm.cdf(sensor.threshold - s.power_at(b.d_lower), loc, scale)
    rho_u = norm.cdf(sensor.threshold - s.power_at(b.d_upper), loc, scale)
    x_l, x_u = norm.ppf(rho_l, loc, scale), norm.ppf(rho_u, loc, scale)
    if x_l <= loc <= x_u:
        sup_f = norm.pdf(loc, loc, scale)
    else:
        sup_f = max(norm.pdf(x_l, loc, scale), norm.pdf(x_u, loc, scale))
    numerator = kappa * s.d0 * s.p0 ** (1.0 / s.gamma)
    return numerator * (sensor.threshold - x_l) ** (-(s.gamma + 1.0) / s.gamma) / sup_f


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("kappa", [None, 0.05])
def test_every_floor_matches_the_scipy_oracle(name, kappa):
    s = SCENARIOS[name]()
    if kappa is not None:
        s = replace(s, kappa=kappa)
    floors = _unsecure_floors(s)
    assert [type(v) for v in floors] == [float] * len(s.unsecure())
    # the array pass and the one-sensor pass give the same doubles
    assert floors == [lambda_j(s, j) for j in s.unsecure_ids()]
    assert lambda_min(s) == min(floors)
    for j, value in zip(s.unsecure_ids(), floors):
        expected = _floor_oracle(s, j, s.kappa)
        assert value == pytest.approx(expected, rel=1e-15, abs=0.0), j


def test_the_mixed_scenario_floors_differ():
    """The oracle check above would miss a mix-up of sensors on equal floors."""
    floors = _unsecure_floors(_mixed_scenario())
    assert len(set(floors)) == len(floors)


@pytest.mark.parametrize("scale", [1.0, 1 / 25], ids=["full_scale", "scale_1_25"])
def test_benchmark_floor_literals(scale):
    """Exact doubles of the per-sensor scalar loop this pass replaced."""
    s, _ = build_paper_setup(scale=scale)
    assert lambda_min(s) == 992.0696862306802
    assert delta_admissible(s) == 0.0278490447328586
    assert lambda_min(replace(s, kappa=0.05)) == 9920.696862306802


def test_unsecure_rho_bounds_match_rho_bounds():
    s = _mixed_scenario()
    rho_l, rho_u = unsecure_rho_bounds(s)
    assert list(zip(rho_l.tolist(), rho_u.tolist())) == [
        rho_bounds(s, j) for j in s.unsecure_ids()
    ]


def _with_bad_sensors():
    """Sensors 5 and 6 sit so far below threshold that rho_L = rho_U = 1."""
    s = make_toy_scenario()
    sensor_1, sensor_2 = s.unsecure()
    bad = GaussianNoise(-50.0, 1.0)
    unsecure = (
        sensor_1,
        SensorSpec(5, Point(-10.0, 0.0), 1.0, bad),
        sensor_2,
        SensorSpec(6, Point(10.0, 0.0), 1.0, bad),
    )
    return replace(s, sensors=unsecure + s.secure_pair())


def test_rho_ordering_names_the_first_failing_sensor():
    s = _with_bad_sensors()
    message = "probability ordering failed for sensor {}: rho_L=1.0, rho_U=1.0, F(tau)=1.0"
    with pytest.raises(InvalidScenario) as first:
        unsecure_rho_bounds(s)
    assert str(first.value) == message.format(5)
    for call in (lambda_min, delta_admissible):
        with pytest.raises(InvalidScenario, match="for sensor 5:"):
            call(s)
    with pytest.raises(InvalidScenario) as single:
        lambda_j(s, 6)
    assert str(single.value) == message.format(6)


@pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan")])
def test_nonpositive_kappa_raises(toy_scenario, kappa, monkeypatch):
    # the scenario is the one source of kappa, and it checks it
    s = toy_scenario
    with pytest.raises(InvalidScenario, match="kappa must be positive"):
        replace(s, kappa=kappa)
    # the floor keeps its own check, reached by writing past the frozen field
    monkeypatch.setitem(vars(s), "kappa", kappa)
    for call in (lambda: lambda_j(s, 1), lambda: lambda_min(s)):
        with pytest.raises(DomainError, match="kappa must be positive"):
            call()


def test_an_unordered_bracket_raises(toy_scenario, monkeypatch):
    monkeypatch.setattr(detector_module, "rho_bounds", lambda s, j: (0.5, 0.5))
    with pytest.raises(DomainError, match=r"need 0 < rho_l < rho_u < 1, got 0\.5, 0\.5"):
        lambda_j(toy_scenario, 1)


def test_one_cold_delta_admissible_computes_the_distance_bounds_once(monkeypatch):
    """A scaling guard: the floor pass must not recompute the bounds per sensor."""
    real = scenario_module.compute_distance_bounds
    calls = []

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(scenario_module, "compute_distance_bounds", counting)
    s, _ = build_paper_setup(scale=1.0)
    delta_admissible.cache_clear()
    delta_admissible(s)
    assert delta_admissible.cache_info().misses == 1
    assert len(calls) <= 1
