"""Noise model: frozen quantile values, interval extrema, validation."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import norm

import quantloc.noise as noise_module
from quantloc import (
    AdvisoryWarning,
    DetectorConfig,
    DistanceBounds,
    DomainError,
    GaussianNoise,
    HalfSpace,
    InvalidScenario,
    Mima,
    Point,
    PsiOffset,
    Ring,
    RoiDisc,
    ScenarioConfig,
    SensorSpec,
    SpoofBias,
    circle_meets_region_analytic,
    circle_meets_region_discretized,
    nmle_distance,
)

from conftest import make_toy_scenario

# Reference values computed with 30-digit arithmetic (mpmath), frozen here.
PHI_M3 = 0.00134989803163009452665
PHI_M1 = 0.158655253931457051414
PHI_05 = 0.691462461274013103637
PHI_075 = 0.773372647623131800672
PHI_096 = 0.831472392533162187257
PHI_1 = 0.841344746068542948585
PDF_0 = 0.398942280401432677939
PDF_M1 = 0.241970724519143349797


def test_cdf_matches_frozen_values():
    g = GaussianNoise()
    assert g.cdf(-3.0) == pytest.approx(PHI_M3, abs=1e-15)
    assert g.cdf(-1.0) == pytest.approx(PHI_M1, abs=1e-15)
    assert g.cdf(0.5) == pytest.approx(PHI_05, abs=1e-15)
    assert g.cdf(0.75) == pytest.approx(PHI_075, abs=1e-15)
    assert g.cdf(0.96) == pytest.approx(PHI_096, abs=1e-15)
    assert g.cdf(1.0) == pytest.approx(PHI_1, abs=1e-15)
    assert g.cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_density_matches_frozen_values():
    g = GaussianNoise()
    assert g.density(0.0) == pytest.approx(PDF_0, abs=1e-15)
    assert g.density(-1.0) == pytest.approx(PDF_M1, abs=1e-15)
    assert g.density(1.0) == pytest.approx(PDF_M1, abs=1e-15)


def test_inv_cdf_matches_frozen_values():
    g = GaussianNoise()
    assert g.inv_cdf(PHI_M1) == pytest.approx(-1.0, abs=1e-12)
    assert g.inv_cdf(PHI_096) == pytest.approx(0.96, abs=1e-12)
    assert g.inv_cdf(0.5) == pytest.approx(0.0, abs=1e-12)


def test_location_scale_reduce_to_standardized_argument():
    g = GaussianNoise(location=2.5, scale=3.0)
    s = GaussianNoise()
    for x in (-4.0, 0.0, 2.5, 7.3):
        assert g.cdf(x) == pytest.approx(s.cdf((x - 2.5) / 3.0), abs=1e-15)
        assert g.density(x) == pytest.approx(
            s.density((x - 2.5) / 3.0) / 3.0, abs=1e-15
        )


def test_cdf_and_density_vectorize():
    g = GaussianNoise()
    x = np.array([-1.0, 0.0, 1.0])
    c = g.cdf(x)
    assert isinstance(c, np.ndarray) and c.shape == (3,)
    assert isinstance(g.cdf(0.0), float)
    d = g.density(x)
    assert d[0] == pytest.approx(d[2], abs=1e-15)


@given(
    x=st.floats(-6.0, 6.0),
    loc=st.floats(-10.0, 10.0),
    scale=st.floats(0.1, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_inv_cdf_round_trip(x, loc, scale):
    g = GaussianNoise(loc, scale)
    q = g.cdf(loc + scale * x)
    if 1e-12 < q < 1.0 - 1e-12:
        back = g.inv_cdf(q)
        assert back == pytest.approx(loc + scale * x, abs=1e-8 * scale)


@given(a=st.floats(-8.0, 8.0), b=st.floats(-8.0, 8.0))
@settings(max_examples=200, deadline=None)
def test_cdf_is_monotone(a, b):
    g = GaussianNoise()
    lo, hi = min(a, b), max(a, b)
    assert g.cdf(lo) <= g.cdf(hi)


# The density's extrema over an interval are taken in the scenario's
# SensorConstants: lam divides by the sup over the quantiles of the rho
# bracket, xi by the inf over those of the eps bracket.  The checks below
# set the powers at the distance bracket's ends, so on the toy scenario
# (tau = 1, standard normal noise) the rho bracket's quantiles are
# [1 - near, 1 - far].


def _row_at_powers(monkeypatch, near, far):
    s = make_toy_scenario()

    def at(power):
        return s.d0 * (s.p0 / power) ** (1.0 / s.gamma)

    bounds = DistanceBounds(at(near), at(far), 200.0)
    monkeypatch.setattr(ScenarioConfig, "distance_bounds", lambda self: bounds)
    return s, s.constants().row(1)


def _lam_over(s, row, f):
    power = -(s.gamma + 1.0) / s.gamma
    return s.kappa * s.d0 * s.p0 ** (1.0 / s.gamma) * (1.0 - norm.ppf(row.rho_l)) ** power / f


def _xi_over(s, row, f):
    power = -(s.gamma + 1.0) / s.gamma
    return s.d0 * s.p0 ** (1.0 / s.gamma) * (1.0 - norm.ppf(row.eps_u)) ** power / f


def test_density_extremum_sup_at_mode_when_interval_covers_it(monkeypatch):
    # quantiles [-1, 0.5] and [-0.5, 0.8]
    for near, far in ((2.0, 0.5), (1.5, 0.2)):
        s, row = _row_at_powers(monkeypatch, near, far)
        assert row.lam == pytest.approx(_lam_over(s, row, PDF_0), rel=1e-15)


def test_density_extremum_sup_at_nearest_endpoint_otherwise(monkeypatch):
    # quantiles [-2, -1]: the upper end is nearer the mode
    s, row = _row_at_powers(monkeypatch, 3.0, 2.0)
    f = norm.pdf(norm.ppf(row.rho_u))
    assert f == pytest.approx(PDF_M1, rel=1e-14)
    assert row.lam == pytest.approx(_lam_over(s, row, f), rel=1e-15)
    # quantiles [0.5, 0.8]: the lower end is
    s, row = _row_at_powers(monkeypatch, 0.5, 0.2)
    assert row.lam == pytest.approx(_lam_over(s, row, norm.pdf(norm.ppf(row.rho_l))), rel=1e-15)


def test_density_extremum_inf_is_endpoint_minimum(monkeypatch):
    # eps quantiles about [-1.41, 0.73]: the lower end is farther from the mode
    s, row = _row_at_powers(monkeypatch, 2.0, 0.5)
    f = norm.pdf(norm.ppf(row.eps_l))
    assert f < norm.pdf(norm.ppf(row.eps_u))
    assert row.xi == pytest.approx(_xi_over(s, row, f), rel=1e-15)
    # about [-0.23, 0.98]: the upper end is
    s, row = _row_at_powers(monkeypatch, 0.1, 0.05)
    f = norm.pdf(norm.ppf(row.eps_u))
    assert f < norm.pdf(norm.ppf(row.eps_l))
    assert row.xi == pytest.approx(_xi_over(s, row, f), rel=1e-15)


def _tail_network(five, six):
    """Every law's scale is 1e300 and p0 matches it, so each bracket spans
    about half a scale below threshold.  Sensors 5 and 6 have thresholds
    ``five`` and ``six`` scales above the mode; far below it the density,
    divided by the scale, underflows to 0."""
    s = make_toy_scenario()
    wide = GaussianNoise(0.0, 1e300)
    one, two, *anchors = (replace(x, noise=wide) for x in s.sensors)
    sensors = (
        one,
        SensorSpec(5, Point(-10.0, 0.0), five * 1e300, wide),
        two,
        SensorSpec(6, Point(10.0, 0.0), six * 1e300, wide),
    )
    return replace(s, sensors=sensors + tuple(anchors), p0=1e300)


def test_density_extremum_rejects_bad_input(monkeypatch):
    # 9.3 scales down the rho bracket's sup stays positive, but the eps
    # bracket's lower end, at half of rho_L, reaches the zero tail
    s = _tail_network(1.0, -9.3)
    with pytest.raises(DomainError, match="^the density of sensor 6's noise underflows to 0"):
        s.constants()
    # quantiles [1 - 0.5, 1 - 2]: the bracket is not ordered
    with pytest.raises(InvalidScenario, match="probability ordering failed"):
        _row_at_powers(monkeypatch, 0.5, 2.0)


def test_density_sup_over_arrays_follows_the_scalar_rule():
    """Per-sensor location and scale give the doubles of one noise law at a
    time: lam divides by the density at the mode if the rho bracket's
    quantiles hold it, else by the larger end density, and xi by the
    smaller end density of the eps bracket's quantiles."""
    rng = np.random.default_rng(3)
    toy = make_toy_scenario()
    loc = rng.normal(0.0, 1.0, 400).tolist()
    scale = rng.uniform(0.2, 3.0, 400).tolist()
    gap = rng.uniform(0.2, 1.5, 400).tolist()
    x = rng.uniform(-60.0, 60.0, 400).tolist()
    sensors = tuple(
        SensorSpec(10 + i, Point(x[i], 0.0), loc[i] + gap[i], GaussianNoise(loc[i], scale[i]))
        for i in range(400)
    )
    s = replace(toy, sensors=sensors + toy.secure_pair())
    c = s.constants()
    head = s.d0 * s.p0 ** (1.0 / s.gamma)
    power = -(s.gamma + 1.0) / s.gamma
    inside = 0
    for sensor in sensors:
        g, tau, row = sensor.noise, sensor.threshold, c.row(sensor.id)
        x_l, x_u = g.inv_cdf(row.rho_l), g.inv_cdf(row.rho_u)
        if x_l <= g.location <= x_u:
            inside += 1
            sup = g.density(g.location)
        else:
            sup = max(g.density(x_l), g.density(x_u))
        lam = s.kappa * s.d0 * s.p0 ** (1.0 / s.gamma) * (tau - x_l) ** power / sup
        assert _same_bits(row.lam, lam)
        e_l, e_u = g.inv_cdf(row.eps_l), g.inv_cdf(row.eps_u)
        inf = min(g.density(e_l), g.density(e_u))
        assert _same_bits(row.xi, head * (tau - e_u) ** power / inf)
    # both branches occur
    assert 0 < inside < 400


def test_density_sup_errors_name_the_first_bad_interval():
    with pytest.raises(DomainError) as err:
        _tail_network(-29.0, -29.0).constants()
    assert str(err.value) == "the density of sensor 5's noise underflows to 0 on its bracket"


def test_numpy_scalar_constants_are_stored_as_floats(ref_scenario):
    g = GaussianNoise(np.float64(0.0), np.float64(1.0))
    assert type(g.location) is float and type(g.scale) is float
    assert g == GaussianNoise()
    s = replace(
        ref_scenario,
        sensors=tuple(replace(sensor, noise=g) for sensor in ref_scenario.sensors),
    )
    row = s.constants().row(1)
    values = [g.inv_cdf(0.3), row.lam, row.xi]
    assert [type(v) for v in values] == [float] * len(values)


def test_inv_cdf_rejects_out_of_range():
    g = GaussianNoise(location=0.5, scale=2.0)
    for q in (0.0, 1.0, -0.1, 1.1, -0.5, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\)"):
            g.inv_cdf(q)
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\)"):
            g.inv_cdf(np.array([0.25, q, 0.75]))


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def test_scalar_and_array_calls_are_scipy_bit_for_bit():
    g = GaussianNoise(location=-0.7, scale=3.3)
    q = np.array([5e-324, 1e-300, 1e-16, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-16])
    expected = ndtri(q) * 3.3 + -0.7
    assert _same_bits(g.inv_cdf(q), expected)
    x = np.array([-40.0, -3.0, -0.7, 0.0, 2.5, 40.0])
    assert _same_bits(g.cdf(x), ndtr((x - -0.7) / 3.3))
    for qi, ei in zip(q.tolist(), expected):
        out = g.inv_cdf(qi)
        assert type(out) is float and _same_bits(out, ei)
    for xi in x.tolist():
        out = g.cdf(xi)
        assert type(out) is float and _same_bits(out, ndtr((xi - -0.7) / 3.3))


def test_scalar_callers_return_python_floats(toy_scenario, ref_scenario):
    """The per-sensor scalar callers of cdf/inv_cdf hand on Python floats,
    also from numpy scalar arguments, without wrapping the results, and a
    table row holds Python floats."""
    sensor = toy_scenario.sensor(1)
    g = GaussianNoise()
    values = [
        sensor.zero_prob(),
        sensor.zero_prob(np.float64(0.25)),
        SpoofBias(0.5).shift(0.3, g),
        SpoofBias(0.5).shift(np.float64(0.3), g),
    ]
    values += list(ref_scenario.constants().row(1)[1:])
    assert [type(v) for v in values] == [float] * len(values)

@pytest.mark.parametrize("huge", [2**2000, -(2**2000)])
def test_constructor_names_an_integer_past_the_float_range(huge):
    with pytest.raises(DomainError, match="scale must be positive and finite"):
        GaussianNoise(0.0, huge)
    with pytest.raises(DomainError, match="location must be finite"):
        GaussianNoise(huge, 1.0)


@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["+", "-"])
@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda g, big: g.cdf(big), r"^x must be finite"),
        (lambda g, big: g.inv_cdf(big), r"^quantile argument must lie in \(0, 1\)"),
        (lambda g, big: g.density(big), r"^x must be finite"),
    ],
    ids=["cdf", "inv_cdf", "density"],
)
def test_an_integer_past_the_float_range_is_caught(call, message, huge):
    """Ints past the float range raise DomainError naming the argument, not
    the OverflowError of converting them to a float."""
    with pytest.raises(DomainError, match=message):
        call(GaussianNoise(), huge)


@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["+", "-"])
@pytest.mark.parametrize(
    ("call", "message"),
    [
        (noise_module.ndtr, r"^a holds an integer past the float range"),
        (noise_module.ndtri, r"^y holds an integer past the float range"),
    ],
    ids=["ndtr", "ndtri"],
)
def test_an_integer_past_the_float_range_is_caught_by_the_module_functions(call, message, huge):
    with pytest.raises(DomainError, match=message):
        call(huge)


_CLIP = HalfSpace(Point(-1.0, 0.0), Point(1.0, 0.0), 1)
_RINGS = (Ring(Point(-1.0, 0.0), 2.0, 0.5, _CLIP), Ring(Point(1.0, 0.0), 2.0, 0.5, _CLIP))

# (call, field): each call raises DomainError for its argument ``big``
_TOO_LONG_TO_PRINT = {
    "cdf": (lambda s, big: GaussianNoise().cdf(big), "x"),
    "inv_cdf": (lambda s, big: GaussianNoise().inv_cdf(big), "quantile argument"),
    "inv_cdf.list": (lambda s, big: GaussianNoise().inv_cdf([0.5, big]), "quantile argument"),
    "density": (lambda s, big: GaussianNoise().density(big), "x"),
    "density.list": (lambda s, big: GaussianNoise().density([0.5, big]), "x"),
    "GaussianNoise.location": (lambda s, big: GaussianNoise(location=big), "location"),
    "GaussianNoise.scale": (lambda s, big: GaussianNoise(scale=big), "scale"),
    "Point.x": (lambda s, big: Point(big, 0.0), "point x"),
    "Point.y": (lambda s, big: Point(0.0, big), "point y"),
    "RoiDisc": (lambda s, big: RoiDisc(Point(0, 0), big), "ROI radius"),
    "SensorSpec": (
        lambda s, big: SensorSpec(7, Point(0, 0), big, GaussianNoise()),
        "sensor 7 threshold",
    ),
    "DetectorConfig.delta": (lambda s, big: DetectorConfig(delta=big), "delta"),
    "DetectorConfig.m_points": (lambda s, big: DetectorConfig(delta=1.0, m_points=big), "m_points"),
    "Mima.psi0": (lambda s, big: Mima(psi0=big, psi1=0.0), "psi0"),
    "Mima.psi1": (lambda s, big: Mima(psi0=0.0, psi1=big), "psi1"),
    "PsiOffset": (lambda s, big: PsiOffset(big), "offset"),
    "SpoofBias": (lambda s, big: SpoofBias(big), "bias"),
    "nmle_distance": (lambda s, big: nmle_distance(s, 1, big), "xi"),
    "analytic.radius": (
        lambda s, big: circle_meets_region_analytic(Point(0.0, 1.0), big, *_RINGS),
        "radius",
    ),
    "discretized.radius": (
        lambda s, big: circle_meets_region_discretized(Point(0.0, 1.0), big, *_RINGS, 1000),
        "radius",
    ),
    "discretized.m_points": (
        lambda s, big: circle_meets_region_discretized(Point(0.0, 1.0), 1.0, *_RINGS, big),
        "m_points",
    ),
    "Ring.radius": (lambda s, big: Ring(Point(0.0, 0.0), big, 1.0, _CLIP), "ring radius"),
    "Ring.half_width": (lambda s, big: Ring(Point(0.0, 0.0), 1.0, big, _CLIP), "half_width"),
    "HalfSpace.side": (lambda s, big: HalfSpace(Point(0.0, 0.0), Point(1.0, 0.0), big), "side"),
}


@pytest.mark.parametrize(
    "big", [10**400, 10**5000, -(10**5000)], ids=["1e400", "1e5000", "-1e5000"]
)
@pytest.mark.parametrize(
    ("call", "field"), _TOO_LONG_TO_PRINT.values(), ids=_TOO_LONG_TO_PRINT.keys()
)
def test_an_integer_past_the_float_range_is_named_not_printed(toy_scenario, call, field, big):
    """The package's error names the field; it does not print the integer,
    which past 4,300 digits Python refuses to convert to a string."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdvisoryWarning)  # delta above the admissible limit
        with pytest.raises(DomainError, match=f"^{field} ") as err:
            call(toy_scenario, big)
    assert "an integer past the float range" in str(err.value)
    assert "0000" not in str(err.value)


def test_constructor_validation():
    with pytest.raises(DomainError):
        GaussianNoise(0.0, 0.0)
    with pytest.raises(DomainError):
        GaussianNoise(0.0, -1.0)
    with pytest.raises(DomainError):
        GaussianNoise(0.0, math.inf)
    with pytest.raises(DomainError):
        GaussianNoise(math.nan, 1.0)
