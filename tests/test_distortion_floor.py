"""The per-sensor constants table against scipy, literals, cache and error paths."""

from __future__ import annotations

from dataclasses import replace

import pytest
from scipy.stats import norm

import quantloc.scenario as scenario_module
from quantloc import (
    DetectorConfig,
    DistanceBounds,
    DomainError,
    GaussianNoise,
    InvalidScenario,
    Point,
    ScenarioConfig,
    SensorSpec,
    build_paper_setup,
    composite_exponents,
    delta_admissible,
    lambda_min,
)

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


def _law(s, j):
    """Sensor j's threshold and its noise law's (loc, scale), for scipy."""
    sensor = s.sensor(j)
    return sensor.threshold, (sensor.noise.location, sensor.noise.scale)


def _rho_oracle(s, j):
    tau, law = _law(s, j)
    b = s.distance_bounds()
    return (
        norm.cdf(tau - s.power_at(b.d_lower), *law),
        norm.cdf(tau - s.power_at(b.d_upper), *law),
    )


def _floor_oracle(s, j, kappa):
    """Sensor j's floor lambda from its definition, with scipy's normal law throughout."""
    tau, (loc, scale) = _law(s, j)
    rho_l, rho_u = _rho_oracle(s, j)
    x_l, x_u = norm.ppf(rho_l, loc, scale), norm.ppf(rho_u, loc, scale)
    if x_l <= loc <= x_u:
        sup_f = norm.pdf(loc, loc, scale)
    else:
        sup_f = max(norm.pdf(x_l, loc, scale), norm.pdf(x_u, loc, scale))
    numerator = kappa * s.d0 * s.p0 ** (1.0 / s.gamma)
    return numerator * (tau - x_l) ** (-(s.gamma + 1.0) / s.gamma) / sup_f


def _xi_oracle(s, j):
    """(eps_L, eps_U, Xi_j) from their definitions, with scipy's normal law."""
    tau, law = _law(s, j)
    rho_l, rho_u = _rho_oracle(s, j)
    eps_l, eps_u = rho_l / 2.0, (rho_u + norm.cdf(tau, *law)) / 2.0
    x_l, x_u = norm.ppf(eps_l, *law), norm.ppf(eps_u, *law)
    inf_f = min(norm.pdf(x_l, *law), norm.pdf(x_u, *law))
    numerator = s.d0 * s.p0 ** (1.0 / s.gamma)
    return eps_l, eps_u, numerator * (tau - x_u) ** (-(s.gamma + 1.0) / s.gamma) / inf_f


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("kappa", [None, 0.05])
def test_every_floor_matches_the_scipy_oracle(name, kappa):
    s = SCENARIOS[name]()
    if kappa is not None:
        s = replace(s, kappa=kappa)
    c = s.constants()
    floors = [c.row(j).lam for j in s.unsecure_ids()]
    assert [type(v) for v in floors] == [float] * len(s.unsecure())
    assert lambda_min(s) == c.lam_min == min(floors)
    for j, value in zip(s.unsecure_ids(), floors):
        expected = _floor_oracle(s, j, s.kappa)
        assert value == pytest.approx(expected, rel=1e-15, abs=0.0), j


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("kappa", [None, 0.05])
def test_every_bracket_and_xi_match_the_scipy_oracle(name, kappa):
    s = SCENARIOS[name]()
    if kappa is not None:
        s = replace(s, kappa=kappa)
    c = s.constants()
    for j, eps_l, eps_u, xi in zip(c.ids, c.eps_l, c.eps_u, c.xi):
        expected = _xi_oracle(s, j)
        assert (eps_l, eps_u, xi) == pytest.approx(expected, rel=1e-15, abs=0.0), j


def test_the_mixed_scenario_floors_differ():
    """The oracle checks above would miss a mix-up of sensors on equal values."""
    s = _mixed_scenario()
    rows = [s.constants().row(j) for j in s.unsecure_ids()]
    for name in ("lam", "xi", "eps_l", "eps_u"):
        values = [getattr(row, name) for row in rows]
        assert len(set(values)) == len(values)


@pytest.mark.parametrize("scale", [1.0, 1 / 25], ids=["full_scale", "scale_1_25"])
def test_benchmark_floor_literals(scale):
    """Exact doubles of the per-sensor scalar loop this pass replaced."""
    s, _ = build_paper_setup(scale=scale)
    assert lambda_min(s) == 992.0696862306802
    assert delta_admissible(s) == 0.0278490447328586
    assert lambda_min(replace(s, kappa=0.05)) == 9920.696862306802


@pytest.mark.parametrize("scale", [1.0, 1 / 25], ids=["full_scale", "scale_1_25"])
def test_benchmark_exponent_literals(scale):
    """Exact doubles of the exponents and of Xi at both ends of the
    unsecure sensors, which the bounds tables print to 6 digits only."""
    s, assignment = build_paper_setup(scale=scale)
    report = composite_exponents(s, assignment, DetectorConfig(delta=280.0))
    assert report.fa_exponent == 3.7987445969752584e-08
    assert report.miss_exponent == 3.7987445969752584e-08
    first, last = s.unsecure_ids()[0], s.unsecure_ids()[-1]
    assert s.constants().row(first).xi == 1015834.5664682217
    assert s.constants().row(last).xi == 1015834.5664682217


def test_unsecure_rho_bounds_match_rho_bounds():
    """The rho columns are each sensor's own zero_prob at the powers from the
    distance bracket's ends, double for double."""
    s = _mixed_scenario()
    c, b = s.constants(), s.distance_bounds()
    for end, column in ((b.d_lower, c.rho_l), (b.d_upper, c.rho_u)):
        power = s.power_at(end)
        assert column.tolist() == [sensor.zero_prob(power) for sensor in s.sensors]


def test_the_table_is_kept_read_only_and_outside_equality(toy_scenario):
    s = toy_scenario
    c = s.constants()
    assert s.constants() is c
    assert c.ids == tuple(sensor.id for sensor in s.sensors)
    for column in c[1:-1]:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    with pytest.raises(AttributeError):
        c.lam = c.xi
    with pytest.raises(KeyError):
        c.row(99)
    # a replaced scenario builds its own table: kappa moves lambda alone
    doubled = replace(s, kappa=2.0 * s.kappa).constants()
    assert doubled is not c
    assert doubled.lam.tolist() == [2.0 * v for v in c.lam.tolist()]
    assert doubled.xi.tolist() == c.xi.tolist()
    # the table is no part of the scenario's value
    twin = replace(s)
    assert twin == s and hash(twin) == hash(s)
    assert twin.constants() is not c


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
    message = "probability ordering failed for sensor 5: rho_L=1.0, rho_U=1.0, F(tau)=1.0"
    with pytest.raises(InvalidScenario) as first:
        s.constants()
    assert str(first.value) == message
    for call in (lambda_min, delta_admissible):
        with pytest.raises(InvalidScenario, match="for sensor 5:"):
            call(s)
    # one table serves every sensor, so a lookup of sensor 6 reports sensor 5
    with pytest.raises(InvalidScenario, match="for sensor 5:"):
        s.constants().row(6)


def test_an_anchor_with_an_unordered_bracket_fails_the_floor(toy_scenario):
    """The floor reads only unsecure sensors, but their table orders every row."""
    s = toy_scenario
    anchor = replace(s.sensor(4), noise=GaussianNoise(-50.0, 1.0))
    s = replace(s, sensors=s.sensors[:3] + (anchor,))
    for call in (lambda_min, delta_admissible):
        with pytest.raises(InvalidScenario, match="for sensor 4:"):
            call(s)


@pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan")])
def test_nonpositive_kappa_raises(toy_scenario, kappa, monkeypatch):
    # the scenario is the one source of kappa, and it checks it
    s = toy_scenario
    with pytest.raises(InvalidScenario, match="kappa must be positive"):
        replace(s, kappa=kappa)
    # the table keeps its own check, reached by writing past the frozen field
    monkeypatch.setitem(vars(s), "kappa", kappa)
    for call in (s.constants, lambda: lambda_min(s)):
        with pytest.raises(DomainError, match="kappa must be positive"):
            call()


def test_an_unordered_bracket_raises(toy_scenario, monkeypatch):
    """Distance ends swapped put rho_L above rho_U for every sensor."""
    b = toy_scenario.distance_bounds()
    swapped = DistanceBounds(b.d_upper, b.d_lower, b.d_secure)
    monkeypatch.setattr(ScenarioConfig, "distance_bounds", lambda self: swapped)
    with pytest.raises(InvalidScenario, match=r"^probability ordering failed for sensor 1: "):
        toy_scenario.constants()


def test_one_cold_delta_admissible_computes_the_distance_bounds_once(monkeypatch):
    """A scaling guard: the floor pass must not recompute the bounds per sensor.

    One computation measures each sensor's distance to the ROI center and the
    anchor separation: a distance per sensor plus one, counted from a
    scenario built just before, so nothing is cached yet.
    """
    built, _ = build_paper_setup(scale=1.0)
    s = replace(built)
    real = scenario_module.distance
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(scenario_module, "distance", counting)
    delta_admissible(s)
    delta_admissible(s)
    assert 0 < len(calls) <= len(s.sensors) + 1
