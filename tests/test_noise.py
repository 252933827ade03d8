"""Noise model: frozen quantile values, interval extrema, validation."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

import quantloc.analysis as analysis_module
import quantloc.detector as detector_module
import quantloc.noise as noise_module
from quantloc import (
    AdvisoryWarning,
    DetectorConfig,
    DomainError,
    GaussianNoise,
    HalfSpace,
    Mima,
    Point,
    PsiOffset,
    Ring,
    RoiDisc,
    SensorSpec,
    SpoofBias,
    circle_meets_region_analytic,
    circle_meets_region_discretized,
    density_sup,
    lambda_j,
    nmle_distance,
    xi_factor,
)

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


def test_density_extremum_sup_at_mode_when_interval_covers_it():
    g = GaussianNoise()
    assert g.density_extremum(-1.0, 2.0, "sup") == pytest.approx(PDF_0, abs=1e-15)
    assert g.density_extremum(0.0, 0.0, "sup") == pytest.approx(PDF_0, abs=1e-15)


def test_density_extremum_sup_at_nearest_endpoint_otherwise():
    g = GaussianNoise()
    assert g.density_extremum(0.5, 2.0, "sup") == pytest.approx(
        g.density(0.5), abs=1e-15
    )
    assert g.density_extremum(-3.0, -1.0, "sup") == pytest.approx(
        PDF_M1, abs=1e-15
    )


def test_density_extremum_inf_is_endpoint_minimum():
    g = GaussianNoise()
    assert g.density_extremum(-1.0, 2.0, "inf") == pytest.approx(
        g.density(2.0), abs=1e-15
    )
    assert g.density_extremum(-2.0, 1.0, "inf") == pytest.approx(
        g.density(-2.0), abs=1e-15
    )


def test_density_extremum_rejects_bad_input():
    g = GaussianNoise()
    with pytest.raises(DomainError):
        g.density_extremum(1.0, 0.0, "sup")
    with pytest.raises(DomainError):
        g.density_extremum(-math.inf, 0.0, "sup")
    with pytest.raises(DomainError):
        g.density_extremum(0.0, 1.0, "max")
    # exp(-0.5 x^2) underflows to exactly zero far in the tail
    with pytest.raises(DomainError):
        g.density_extremum(40.0, 41.0, "inf")


def test_density_sup_over_arrays_follows_the_scalar_rule():
    """Per-element location and scale give the doubles of one noise law at a
    time: the density at the mode if the interval holds it, else the larger
    endpoint density."""
    rng = np.random.default_rng(3)
    lo = rng.normal(0.0, 2.0, 400)
    hi = lo + rng.exponential(1.5, 400)
    loc = rng.normal(0.0, 1.0, 400)
    scale = rng.uniform(0.2, 3.0, 400)
    sup = density_sup(lo, hi, loc, scale)
    for i in range(400):
        g = GaussianNoise(float(loc[i]), float(scale[i]))
        f_lo, f_hi = g.density(float(lo[i])), g.density(float(hi[i]))
        inside = lo[i] <= g.location <= hi[i]
        assert _same_bits(sup[i], g.density(g.location) if inside else max(f_lo, f_hi))
        assert _same_bits(sup[i], g.density_extremum(float(lo[i]), float(hi[i]), "sup"))
    # both branches occur
    assert 0 < int(((lo <= loc) & (loc <= hi)).sum()) < 400


def test_density_sup_errors_name_the_first_bad_interval():
    with pytest.raises(DomainError, match=r"^invalid interval \[3\.0, 1\.0\]$"):
        density_sup([-1.0, 3.0, 5.0], [2.0, 1.0, math.inf], 0.0, 1.0)
    with pytest.raises(DomainError, match=r"^interval \[40\.0, 41\.0\] leaves"):
        density_sup([0.0, 40.0, 50.0], [1.0, 41.0, 51.0], 0.0, 1.0)


def test_numpy_scalar_constants_are_stored_as_floats(ref_scenario):
    g = GaussianNoise(np.float64(0.0), np.float64(1.0))
    assert type(g.location) is float and type(g.scale) is float
    assert g == GaussianNoise()
    s = replace(
        ref_scenario,
        sensors=tuple(replace(sensor, noise=g) for sensor in ref_scenario.sensors),
    )
    values = [g.inv_cdf(0.3), lambda_j(s, 1), xi_factor(s, 1)]
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


def test_scalar_callers_return_python_floats(toy_scenario, ref_scenario, monkeypatch):
    """The per-sensor scalar callers of cdf/inv_cdf hand on Python floats,
    also from numpy scalar arguments, without wrapping the results."""
    sensor = toy_scenario.sensor(1)
    g = GaussianNoise()
    values = [
        sensor.zero_prob(),
        sensor.zero_prob(np.float64(0.25)),
        SpoofBias(0.5).shift(0.3, g),
        SpoofBias(0.5).shift(np.float64(0.3), g),
    ]
    phi_m1 = g.cdf(-1.0)
    for bracket in ((phi_m1, 0.5), (np.float64(phi_m1), np.float64(0.5))):
        monkeypatch.setattr(detector_module, "rho_bounds", lambda s, j: bracket)
        monkeypatch.setattr(analysis_module, "epsilon_bracket", lambda s, j: bracket)
        values += [lambda_j(ref_scenario, 1), xi_factor(ref_scenario, 1)]
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
        (lambda g, big: g.density_extremum(0.0, big, "sup"), r"^invalid interval"),
    ],
    ids=["cdf", "inv_cdf", "density", "density_extremum"],
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
        (
            lambda big: density_sup([0.0], [big], 0.0, 1.0),
            r"^hi holds an integer past the float range",
        ),
    ],
    ids=["ndtr", "ndtri", "density_sup"],
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
    "density_extremum": (
        lambda s, big: GaussianNoise().density_extremum(0.0, big, "sup"),
        "invalid interval",
    ),
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
