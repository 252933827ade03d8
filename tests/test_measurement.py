"""Sampling, quantization, and the naive-MLE distance estimator."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantloc import (
    DomainError,
    EmpiricalFreq,
    GaussianNoise,
    InvalidScenario,
    Point,
    QuantizedDataset,
    attacked_distance,
    build_paper_setup,
    distance,
    generate_dataset,
    nmle_distance,
    no_attacks,
    prob_zero,
    quantize,
    sample_signal,
)
from quantloc.rng import NOISE_STREAM, make_generator

PHI_096 = 0.831472392533162187257


def _freq(bits: np.ndarray) -> EmpiricalFreq:
    """A bare record's zero frequency, through ``QuantizedDataset.freq``."""
    return QuantizedDataset(bits={0: bits}, k=bits.size, rng_seed=0).freq(0)


def test_empirical_freq_record():
    f = EmpiricalFreq(zeros=3, k_samples=8)
    assert f.xi == 0.375
    with pytest.raises(DomainError):
        EmpiricalFreq(zeros=9, k_samples=8)
    with pytest.raises(DomainError):
        EmpiricalFreq(zeros=-1, k_samples=8)
    with pytest.raises(DomainError):
        EmpiricalFreq(zeros=0, k_samples=0)
    with pytest.raises(DomainError):  # an empty record has no frequency
        _freq(np.array([], dtype=np.uint8))


@pytest.mark.parametrize("dtype", [np.uint8, np.bool_])
def test_empirical_freq_counts_zeros_like_the_dataset(dtype):
    rng = np.random.default_rng(5)
    full = (rng.random(3 * 1001) < 0.3).astype(dtype)
    records = {1: full[:1001], 2: full[::3], 3: full[1::3][::-1], 4: full[-1:]}
    for sid, arr in records.items():
        data = QuantizedDataset(bits={sid: arr}, k=arr.size, rng_seed=0)
        expected = EmpiricalFreq(zeros=int((arr == 0).sum()), k_samples=arr.size)
        assert data.freq(sid) == expected, sid


def test_quantized_dataset_shape_check():
    bits = {1: np.zeros(10, dtype=np.uint8), 2: np.zeros(9, dtype=np.uint8)}
    with pytest.raises(DomainError):
        QuantizedDataset(bits=bits, k=10, rng_seed=0)
    ok = QuantizedDataset(
        bits={1: np.array([0, 1, 1], dtype=np.uint8)}, k=3, rng_seed=0
    )
    assert ok.freq(1) == EmpiricalFreq(zeros=1, k_samples=3)


def test_quantizer_is_strict_at_threshold(toy_scenario):
    tau = toy_scenario.sensor(1).threshold
    samples = np.array([tau - 1e-9, tau, tau + 1e-9])
    bits = quantize(toy_scenario, 1, samples)
    assert bits.dtype == np.uint8 and bits.tolist() == [0, 0, 1]


def test_sample_signal_reproducible_and_prefix_stable(toy_scenario):
    long = sample_signal(toy_scenario, 1, 1000, seed=7)
    short = sample_signal(toy_scenario, 1, 500, seed=7)
    np.testing.assert_array_equal(long[:500], short)
    np.testing.assert_array_equal(long, sample_signal(toy_scenario, 1, 1000, seed=7))
    other_sensor = sample_signal(toy_scenario, 2, 1000, seed=7)
    other_seed = sample_signal(toy_scenario, 1, 1000, seed=8)
    assert not np.array_equal(long, other_sensor)
    assert not np.array_equal(long, other_seed)
    # reference: signal mean plus location plus scale times the noise stream
    noise = toy_scenario.sensor(1).noise
    z = make_generator((7, NOISE_STREAM, 1)).standard_normal(1000)
    expected = toy_scenario.signal_mean(1) + noise.location + noise.scale * z
    assert long.tobytes() == expected.tobytes()
    with pytest.raises(DomainError):
        sample_signal(toy_scenario, 1, 0, seed=7)


def test_sample_signal_accepts_numpy_integer_seed(toy_scenario):
    np.testing.assert_array_equal(
        sample_signal(toy_scenario, 1, 100, seed=np.int64(7)),
        sample_signal(toy_scenario, 1, 100, seed=7),
    )


def test_sample_signal_takes_only_an_integer_record_length(toy_scenario):
    for bad in (3.0, "3", None):
        with pytest.raises(DomainError, match=rf"^k must be an integer, got {bad!r}$"):
            sample_signal(toy_scenario, 1, bad, seed=7)
    with pytest.raises(DomainError, match=r"^k must be an integer, got 3\.0$"):
        generate_dataset(toy_scenario, no_attacks(), 3.0, base_seed=7, trial_index=0)
    np.testing.assert_array_equal(
        sample_signal(toy_scenario, 1, np.int16(3), seed=7), sample_signal(toy_scenario, 1, 3, seed=7)
    )


def test_sample_signal_mean_and_spread(toy_scenario):
    k = 200_000
    x = sample_signal(toy_scenario, 1, k, seed=3)
    mean = toy_scenario.signal_mean(1)
    assert x.mean() == pytest.approx(mean, abs=4.0 / math.sqrt(k))
    assert x.std() == pytest.approx(1.0, abs=0.02)


def test_sample_signal_is_one_gaussian_draw(toy_scenario):
    noisy = replace(
        toy_scenario,
        sensors=tuple(
            replace(x, noise=GaussianNoise(0.5, 2.0)) for x in toy_scenario.sensors
        ),
    )
    z = make_generator((7, NOISE_STREAM, 1)).standard_normal(50)
    expected = noisy.signal_mean(1) + 0.5 + 2.0 * z
    np.testing.assert_array_equal(sample_signal(noisy, 1, 50, seed=7), expected)


def test_prob_zero_value_and_roi_warning(toy_scenario):
    p = prob_zero(toy_scenario, 1)
    mean = toy_scenario.signal_mean(1)
    noise = toy_scenario.sensor(1).noise
    assert p == pytest.approx(float(noise.cdf(1.0 - mean)), rel=1e-15)
    # p is taken at the scenario's target, which cannot leave the ROI, so
    # the probability bracket always applies and there is nothing to warn of
    with pytest.raises(InvalidScenario, match="target must lie inside the ROI"):
        replace(toy_scenario, target=Point(0.0, 200.0))


def test_empirical_frequency_lands_in_probability_bracket(ref_scenario):
    row = ref_scenario.constants().row(1)
    bits = quantize(ref_scenario, 1, sample_signal(ref_scenario, 1, 100_000, seed=11))
    assert row.rho_l < _freq(bits).xi < row.rho_u


def test_nmle_known_quantiles(ref_scenario):
    # xi = 1/2 inverts to the reference distance d0; xi = F(0.96) scales it
    # by (1/0.04)^(1/2) = 5.
    est = nmle_distance(ref_scenario, 1, 0.5)
    assert not est.clamped
    assert float(est) == pytest.approx(1e5, rel=1e-12)
    est2 = nmle_distance(ref_scenario, 1, PHI_096)
    assert float(est2) == pytest.approx(5e5, rel=1e-12)


def test_nmle_round_trip_on_random_distances(ref_scenario, rng):
    b = ref_scenario.distance_bounds()
    noise = ref_scenario.sensor(1).noise
    for d in rng.uniform(b.d_lower, b.d_upper, size=1000):
        p = float(noise.cdf(1.0 - (ref_scenario.d0 / d) ** 2))
        est = nmle_distance(ref_scenario, 1, p)
        assert not est.clamped
        assert float(est) == pytest.approx(d, rel=1e-9)


def test_nmle_consistency_against_true_distance(ref_scenario):
    d_true = distance(ref_scenario.sensor(1).position, ref_scenario.target)
    bits = quantize(
        ref_scenario, 1, sample_signal(ref_scenario, 1, 1_000_000, seed=5)
    )
    est = nmle_distance(ref_scenario, 1, _freq(bits))
    assert abs(float(est) - d_true) / d_true < 0.005


def test_nmle_clamps_at_the_edges(ref_scenario):
    est = nmle_distance(ref_scenario, 1, EmpiricalFreq(zeros=0, k_samples=100))
    assert est.clamped
    assert est.xi_used == pytest.approx(1.0 / 200.0)
    f_tau = float(ref_scenario.sensor(1).noise.cdf(1.0))
    est_hi = nmle_distance(ref_scenario, 1, EmpiricalFreq(zeros=100, k_samples=100))
    assert est_hi.clamped
    assert est_hi.xi_used == pytest.approx(f_tau - 1.0 / 200.0)
    # the bare-float path defaults to a tiny clamp margin
    est_raw = nmle_distance(ref_scenario, 1, 0.0)
    assert est_raw.clamped and est_raw.xi_used == pytest.approx(1e-12)
    # a frequency exactly at either end of the interval is used as it is
    assert not nmle_distance(ref_scenario, 1, 1e-12).clamped
    assert not nmle_distance(ref_scenario, 1, f_tau - 1e-12).clamped


def test_nmle_takes_its_clamp_from_the_frequency_alone(ref_scenario):
    freq = EmpiricalFreq(zeros=0, k_samples=100)
    for knob in ({"k_samples": 10}, {"xi_min": 0.1}):
        with pytest.raises(TypeError):
            nmle_distance(ref_scenario, 1, freq, **knob)


def test_nmle_collapsed_interval_pins_to_half_support():
    from quantloc import GaussianNoise, RoiDisc, ScenarioConfig, SensorSpec

    noise = GaussianNoise()
    sensors = (
        SensorSpec(1, Point(-30.0, 0.0), -5.0, noise),
        SensorSpec(2, Point(-100.0, 0.0), 1.0, noise, secure=True),
        SensorSpec(3, Point(100.0, 0.0), 1.0, noise, secure=True),
    )
    s = ScenarioConfig(
        sensors,
        RoiDisc(Point(0.0, 100.0), 5.0),
        Point(0.0, 100.0),
        1.0,
        100.0,
        2.0,
    )
    f_tau = float(noise.cdf(-5.0))
    est = nmle_distance(s, 1, EmpiricalFreq(zeros=1, k_samples=1))
    assert est.clamped
    assert est.xi_used == pytest.approx(f_tau / 2.0, rel=1e-12)


def test_distance_estimate_casts_to_float(ref_scenario):
    est = nmle_distance(ref_scenario, 1, 0.5)
    assert float(est) == est.value


@given(st.floats(0.05, 0.78), st.floats(0.05, 0.78))
@settings(max_examples=100, deadline=None)
def test_nmle_monotone_in_frequency(xi_a, xi_b):
    s, _ = build_paper_setup(scale=0.004)
    lo, hi = sorted((xi_a, xi_b))
    if hi - lo < 1e-12:
        return
    assert float(nmle_distance(s, 1, lo)) < float(nmle_distance(s, 1, hi))
    assert attacked_distance(s, 1, lo) < attacked_distance(s, 1, hi)


def test_attacked_distance_examples_and_domain(ref_scenario):
    d_true = distance(ref_scenario.sensor(1).position, ref_scenario.target)
    p_true = prob_zero(ref_scenario, 1)
    # a downward probability shift reads as a nearer target
    assert attacked_distance(ref_scenario, 1, 0.49475) < d_true
    assert attacked_distance(ref_scenario, 1, p_true) == pytest.approx(
        d_true, rel=1e-12
    )
    f_tau = float(ref_scenario.sensor(1).noise.cdf(1.0))
    for bad in (0.0, f_tau, 1.0, -0.1):
        with pytest.raises(DomainError):
            attacked_distance(ref_scenario, 1, bad)


# -- every unsecure sensor at once ------------------------------------------


def _mixed_scenario(low_threshold=-2.0):
    """Unsecure sensors with mixed thresholds and non-unit noise laws."""
    from quantloc import RoiDisc, ScenarioConfig, SensorSpec

    laws = [
        (1.0, GaussianNoise()),
        (0.2, GaussianNoise(0.3, 2.0)),
        (2.5, GaussianNoise(-1.0, 0.5)),
        (low_threshold, GaussianNoise(0.5, 0.7)),
        (-0.4, GaussianNoise(-0.25, 3.0)),
        (4.0, GaussianNoise(1.5, 0.25)),
    ]
    sensors = [
        SensorSpec(10 + i, Point(-60.0 + 20.0 * i, 0.0), tau, noise)
        for i, (tau, noise) in enumerate(laws)
    ]
    sensors += [
        SensorSpec(1, Point(-100.0, 0.0), 1.0, GaussianNoise(), secure=True),
        SensorSpec(2, Point(100.0, 0.0), 1.0, GaussianNoise(), secure=True),
    ]
    return ScenarioConfig(
        tuple(sensors), RoiDisc(Point(0.0, 100.0), 5.0), Point(0.0, 100.0), 1.0, 100.0, 2.5
    )


def _count_vectors(s, k, rng):
    """Zero counts of 0, K, around F(tau) K for every sensor, then random ones."""
    f_tau = np.array([sensor.zero_prob() for sensor in s.unsecure()])
    vectors = [np.zeros(f_tau.size, dtype=np.int64), np.full(f_tau.size, k, dtype=np.int64)]
    for step in range(-3, 4):
        vectors.append(np.clip(np.floor(f_tau * k).astype(np.int64) + step, 0, k))
    vectors += list(rng.integers(0, k, size=(20, f_tau.size), endpoint=True))
    return vectors


@pytest.mark.parametrize("k", [1, 2, 3, 7, 100, 10_000, 123_457, 2**40])
def test_array_estimates_equal_nmle_distance_bit_for_bit(k):
    from quantloc import nmle_distances

    s = _mixed_scenario()
    for zeros in _count_vectors(s, k, np.random.default_rng(k)):
        d_hat, clamped = nmle_distances(s, zeros, k)
        want = [
            nmle_distance(s, sensor.id, EmpiricalFreq(int(z), k))
            for sensor, z in zip(s.unsecure(), zeros)
        ]
        assert [d.hex() for d in d_hat] == [e.value.hex() for e in want], zeros
        assert clamped == [e.clamped for e in want], zeros
        assert all(type(c) is bool for c in clamped)


def test_array_estimates_cover_every_clamp_branch():
    from quantloc import nmle_distances

    s = _mixed_scenario()
    # K = 1 collapses every interval with F(tau) < 1; K = 1e4 leaves them open
    _, collapsed = nmle_distances(s, np.ones(6, dtype=np.int64), 1)
    assert all(collapsed)
    _, edges = nmle_distances(s, np.zeros(6, dtype=np.int64), 10_000)
    assert all(edges)
    f_tau = np.array([sensor.zero_prob() for sensor in s.unsecure()])
    _, inside = nmle_distances(s, np.rint(f_tau * 5_000).astype(np.int64), 10_000)
    assert not any(inside)


def test_array_estimates_raise_where_nmle_distance_does():
    from quantloc import nmle_distances

    # F(tau) underflows to 0 for the fourth sensor, so no quantile exists
    s = _mixed_scenario(low_threshold=-80.0)
    assert s.unsecure()[3].zero_prob() == 0.0
    with pytest.raises(DomainError):
        nmle_distance(s, s.unsecure()[3].id, EmpiricalFreq(0, 100))
    with pytest.raises(DomainError, match="for sensor 13$"):
        nmle_distances(s, np.zeros(6, dtype=np.int64), 100)


def test_array_estimates_need_a_record():
    from quantloc import nmle_distances

    s = _mixed_scenario()
    with pytest.raises(DomainError, match=r"^need k >= 1, got 0$"):
        nmle_distances(s, np.zeros(6, dtype=np.int64), 0)


def test_scenario_resolves_unsecure_estimator_constants_once():
    s = _mixed_scenario()
    arrays = s.unsecure_arrays()
    unsecure = s.unsecure()
    assert arrays.threshold.tolist() == [x.threshold for x in unsecure]
    assert arrays.location.tolist() == [x.noise.location for x in unsecure]
    assert arrays.scale.tolist() == [x.noise.scale for x in unsecure]
    assert [v.hex() for v in arrays.f_tau.tolist()] == [x.zero_prob().hex() for x in unsecure]
    for arr in arrays:
        assert not arr.flags.writeable
    # derived, so neither equality nor the hash sees them
    again = replace(s)
    assert again == s and hash(again) == hash(s)
    assert again.unsecure_arrays() is not arrays


def test_zero_counts_count_like_freq():
    bits = {
        3: np.array([0, 1, 1, 0, 0], dtype=np.uint8),
        1: np.array([1, 1, 1, 1, 1], dtype=np.uint8),
        2: np.zeros(5, dtype=np.bool_),
    }
    data = QuantizedDataset(bits=bits, k=5, rng_seed=0)
    assert data.zero_counts([2, 3, 1]).tolist() == [data.freq(j).zeros for j in (2, 3, 1)]
    assert data.zero_counts([]).tolist() == []
    with pytest.raises(KeyError) as info:
        data.zero_counts([3, 9, 8])
    assert info.value.args == (9,)
