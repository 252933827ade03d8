"""Shared fixtures and the random-scenario factory.

``random_scenario`` draws a geometry that satisfies all three standing
assumptions by construction (anchors on the x axis, region well above the
line, small disc): the margins are generous enough that the occasional
resample loop is a formality.  Acceptance tests that need a thousand
scenarios call the factory directly with their own generator.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from quantloc import (
    GaussianNoise,
    HalfSpace,
    Point,
    Ring,
    RoiDisc,
    ScenarioConfig,
    SensorSpec,
    build_paper_setup,
    distance,
    validate_assumptions,
)


def random_scenario(
    rng: np.random.Generator,
    n_unsecure: int | None = None,
    gamma: float | None = None,
    kappa: float = 0.005,
) -> ScenarioConfig:
    """A scenario satisfying the standing assumptions, drawn from ``rng``."""
    for _ in range(50):
        d_s = 10.0 ** rng.uniform(1.5, 3.0)
        cy = rng.uniform(2.0, 5.0) * d_s
        cx = rng.uniform(-0.2, 0.2) * d_s
        radius = rng.uniform(0.02, 0.05) * cy
        upsilon = rng.uniform(0.02, 0.2) * radius
        n = int(n_unsecure if n_unsecure is not None else rng.integers(2, 7))
        g = float(gamma if gamma is not None else rng.uniform(1.5, 3.0))
        noise = GaussianNoise(0.0, 1.0)
        sensors = [
            SensorSpec(
                j + 1,
                Point(float(rng.uniform(-0.45, 0.45) * d_s), 0.0),
                1.0,
                noise,
            )
            for j in range(n)
        ]
        sensors.append(SensorSpec(n + 1, Point(-d_s / 2.0, 0.0), 1.0, noise, True))
        sensors.append(SensorSpec(n + 2, Point(d_s / 2.0, 0.0), 1.0, noise, True))
        r_t = radius * math.sqrt(rng.uniform(0.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        target = Point(cx + r_t * math.cos(phi), cy + r_t * math.sin(phi))
        scenario = ScenarioConfig(
            sensors=tuple(sensors),
            roi=RoiDisc(Point(cx, cy), radius),
            target=target,
            p0=1.0,
            d0=cy,
            gamma=g,
            upsilon1=upsilon,
            upsilon2=upsilon,
            kappa=kappa,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if validate_assumptions(scenario).all_satisfied:
                return scenario
    raise AssertionError("scenario sampler failed 50 times; margins miscalibrated")


def random_region_trial(rng: np.random.Generator) -> tuple[Point, float, Ring, Ring]:
    """A detector-shaped query: a probe circle's center and radius, then two
    anchor rings.

    The probe radius is displaced from its true distance by up to six ring
    half-widths, so the verdicts concentrate near the decision boundary
    where the two implementations could plausibly differ.
    """
    scale = 10.0 ** rng.uniform(0.0, 2.0)
    span = rng.uniform(1.0, 3.0) * scale
    height = rng.uniform(1.0, 4.0) * scale
    half_width = rng.uniform(0.02, 0.3) * scale
    ang = rng.uniform(0.0, 2.0 * math.pi)
    ox, oy = rng.uniform(-2.0, 2.0) * scale, rng.uniform(-2.0, 2.0) * scale
    ca, sa = math.cos(ang), math.sin(ang)

    def place(x, y):
        return Point(ox + ca * x - sa * y, oy + sa * x + ca * y)

    anchor1, anchor2 = place(-span / 2.0, 0.0), place(span / 2.0, 0.0)
    target = place(rng.uniform(-0.3, 0.3) * scale, height)
    sensor = place(rng.uniform(-0.6, 0.6) * scale, 0.0)
    clip = HalfSpace(anchor1, anchor2, 1)
    ring1 = Ring(
        anchor1,
        distance(target, anchor1) + rng.uniform(-1.0, 1.0) * half_width,
        half_width,
        clip,
    )
    ring2 = Ring(
        anchor2,
        distance(target, anchor2) + rng.uniform(-1.0, 1.0) * half_width,
        half_width,
        clip,
    )
    radius = max(
        distance(target, sensor) + rng.uniform(-6.0, 6.0) * half_width,
        0.05 * scale,
    )
    return sensor, radius, ring1, ring2


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260817)


def make_toy_scenario() -> ScenarioConfig:
    """A small fixed geometry used across detector and analysis tests."""
    noise = GaussianNoise(0.0, 1.0)
    sensors = (
        SensorSpec(1, Point(-30.0, 0.0), 1.0, noise),
        SensorSpec(2, Point(30.0, 0.0), 1.0, noise),
        SensorSpec(3, Point(-100.0, 0.0), 1.0, noise, secure=True),
        SensorSpec(4, Point(100.0, 0.0), 1.0, noise, secure=True),
    )
    return ScenarioConfig(
        sensors=sensors,
        roi=RoiDisc(Point(0.0, 100.0), 5.0),
        target=Point(0.0, 100.0),
        p0=1.0,
        d0=100.0,
        gamma=2.0,
        upsilon1=20.0,
        upsilon2=20.0,
        kappa=1.0,
    )


@pytest.fixture
def toy_scenario() -> ScenarioConfig:
    return make_toy_scenario()


@pytest.fixture
def ref_scenario() -> ScenarioConfig:
    """tau = 1, N(0, 1) noise, p0 = 1, d0 = 1e5, gamma = 2, kappa = 0.005 and
    upsilon = 1: the constants the frozen floor, Xi and admissible-delta
    references are computed for."""
    s, _ = build_paper_setup(scale=0.004)
    return s
