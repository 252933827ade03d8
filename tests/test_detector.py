"""Geometric consistency detector, distortion floor, admissible slack."""

import math
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import quantloc.detector as detector_module
from quantloc import (
    AdvisoryWarning,
    AttackAssignment,
    DetectorConfig,
    DistanceBounds,
    DomainError,
    InvalidScenario,
    Mima,
    MissingSensorData,
    QuantizedDataset,
    ScenarioConfig,
    SensorDecision,
    attacked_distance,
    delta_admissible,
    detect_all,
    detect_from_probabilities,
    distance,
    generate_dataset,
    load_dataset,
    load_scenario,
    lambda_min,
    no_attacks,
    prob_zero,
    save_dataset,
    save_scenario,
)

from conftest import random_scenario

LAMBDA_REF = 443.113462726379006824
DELTA_ADM_REF = 0.719879152998594382290
PHI_M1 = 0.158655253931457051414


def test_detector_config_validation():
    cfg = DetectorConfig(delta=1.0)
    assert cfg.method == "analytic" and cfg.m_points == 200_000
    for bad_delta in (0.0, -1.0, math.inf, math.nan, 2**1024, np.float64(math.nan)):
        with pytest.raises(DomainError):
            DetectorConfig(delta=bad_delta)
    with pytest.raises(DomainError):
        DetectorConfig(delta=1.0, method="fast")
    with pytest.raises(DomainError):
        DetectorConfig(delta=1.0, m_points=2)



@pytest.mark.parametrize(
    "bad", [2e5, np.float64(2e5), "200000", None], ids=["float", "np-float", "str", "none"]
)
def test_detector_config_m_points_must_be_an_integer(bad):
    with pytest.raises(DomainError, match="m_points must be an integer"):
        DetectorConfig(delta=280.0, method="discretized", m_points=bad)


@pytest.mark.parametrize(
    "bad", ["280", None, True, np.bool_(True), 280j, [280.0]],
    ids=["str", "none", "bool", "np-bool", "complex", "list"],
)
def test_detector_config_delta_must_be_a_real_number(bad):
    with pytest.raises(DomainError, match="delta must be a real number"):
        DetectorConfig(delta=bad)


@pytest.mark.parametrize(
    "value",
    [280, np.int64(280), np.float32(280.0), np.float64(280.0)],
    ids=["int", "np-int", "np-float32", "np-float64"],
)
def test_detector_config_stores_delta_as_a_float(value):
    cfg = DetectorConfig(delta=value)
    assert cfg.delta == 280.0 and type(cfg.delta) is float


def test_detector_config_accepts_numpy_integer_m_points(toy_scenario):
    cfg = DetectorConfig(delta=5.0, method="discretized", m_points=np.int64(50_000))
    assert cfg.m_points == 50_000 and type(cfg.m_points) is int
    report = detect_from_probabilities(toy_scenario, cfg, _exact_probs(toy_scenario))
    assert report.decisions == {1: 0, 2: 0}


def _exact_probs(s):
    ids = [x.id for x in s.sensors]
    return {j: prob_zero(s, j) for j in ids}


def test_exact_feed_clean_probabilities(toy_scenario):
    s = toy_scenario
    cfg = DetectorConfig(delta=5.0)
    report = detect_from_probabilities(s, cfg, _exact_probs(s))
    assert report.decisions == {1: 0, 2: 0}
    assert report.k is None
    d_true = distance(s.sensor(3).position, s.target)
    for sid, est in report.secure_estimates:
        assert est.value == pytest.approx(d_true, rel=1e-9)
        assert not est.clamped
    # the discretized method agrees on this feed
    report_d = detect_from_probabilities(
        s, DetectorConfig(delta=5.0, method="discretized", m_points=50_000),
        _exact_probs(s),
    )
    assert report_d.decisions == report.decisions


def test_exact_feed_flags_shifted_sensor(toy_scenario):
    s = toy_scenario
    probs = _exact_probs(s)
    probs[1] += 0.2
    report = detect_from_probabilities(s, DetectorConfig(delta=5.0), probs)
    assert report.decisions == {1: 1, 2: 0}
    assert report.decisions[1] == 1
    with pytest.raises(KeyError):
        report.decisions[3]


def test_exact_feed_requires_all_probabilities(toy_scenario):
    probs = _exact_probs(toy_scenario)
    del probs[4]
    with pytest.raises(MissingSensorData):
        detect_from_probabilities(toy_scenario, DetectorConfig(delta=5.0), probs)


def test_detect_all_on_clean_data(toy_scenario):
    s = toy_scenario
    data = generate_dataset(s, no_attacks(), 200_000, base_seed=1, trial_index=0)
    cfg = DetectorConfig(delta=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AdvisoryWarning)
        report = detect_all(s, cfg, data)
    assert [row.sensor_id for row in report.rows] == [1, 2]
    assert report.decisions == {1: 0, 2: 0}
    assert report.k == 200_000
    table = report.to_table()
    lines = table.strip().split("\n")
    assert lines[0] == "sensor_id\tdecision\tD_hat\tclamped\tmethod\tdelta"
    assert len(lines) == 3
    assert lines[1].endswith("analytic\t5")


def test_detect_all_flags_attacked_sensor(toy_scenario):
    s = toy_scenario
    assignment = AttackAssignment(specs={1: Mima(0.0, 0.2)})
    data = generate_dataset(s, assignment, 200_000, base_seed=1, trial_index=0)
    report = detect_all(s, DetectorConfig(delta=5.0), data)
    assert report.decisions == {1: 1, 2: 0}


def test_advisory_warning_above_admissible_delta(toy_scenario):
    s = toy_scenario
    data = generate_dataset(s, no_attacks(), 10_000, base_seed=2, trial_index=0)
    limit = delta_admissible(s)
    assert limit == pytest.approx(20.0)  # capped by upsilon here
    with pytest.warns(AdvisoryWarning):
        detect_all(s, DetectorConfig(delta=limit * 1.25), data)


def _floor(s, j):
    return s.constants().row(j).lam


def test_lambda_j_frozen_value(ref_scenario, monkeypatch):
    """The floor at the bracket (Phi(-1), 1/2): with p0 = 1, d0 = 1e5 and
    gamma = 2, the powers 2 and 1 at the distance ends put tau - power at
    -1 and 0."""
    s = ref_scenario
    near, far = s.d0 / math.sqrt(2.0), s.d0
    bounds = DistanceBounds(d_lower=near, d_upper=far, d_secure=10.0)
    monkeypatch.setattr(ScenarioConfig, "distance_bounds", lambda self: bounds)
    row = s.constants().row(1)
    assert (row.rho_l, row.rho_u) == pytest.approx((PHI_M1, 0.5), rel=1e-15)
    assert row.lam == pytest.approx(LAMBDA_REF, rel=1e-14)
    # the bracket (1/2, Phi(-1)) is not ordered
    swapped = DistanceBounds(d_lower=far, d_upper=near, d_secure=10.0)
    monkeypatch.setattr(ScenarioConfig, "distance_bounds", lambda self: swapped)
    with pytest.raises(InvalidScenario, match="probability ordering failed for sensor 1:"):
        replace(s).constants()


def test_lambda_j_scales_with_kappa(toy_scenario):
    s = toy_scenario
    base = _floor(s, 1)
    assert _floor(replace(s, kappa=2.0 * s.kappa), 1) == pytest.approx(2.0 * base)
    assert lambda_min(s) == pytest.approx(min(_floor(s, 1), _floor(s, 2)))


def test_delta_admissible_frozen_value(ref_scenario, monkeypatch):
    """d_upper = 3, d_secure = 10, upsilon = 1 and lambda_min = 5."""
    s = ref_scenario
    assert s.upsilon == 1.0
    bounds = DistanceBounds(d_lower=1.0, d_upper=3.0, d_secure=10.0)
    monkeypatch.setattr(ScenarioConfig, "distance_bounds", lambda self: bounds)
    monkeypatch.setattr(detector_module, "lambda_min", lambda s: 5.0)
    assert delta_admissible(s) == pytest.approx(DELTA_ADM_REF, rel=1e-14)
    # a huge floor saturates at upsilon
    monkeypatch.setattr(detector_module, "lambda_min", lambda s: 1e9)
    assert delta_admissible(s) == 1.0


def test_delta_admissible_tracks_kappa(toy_scenario):
    # the floor is linear in kappa, so below the upsilon cap the limit is
    # quadratic in it
    s = toy_scenario
    small = delta_admissible(replace(s, kappa=0.05))
    assert small == pytest.approx(4.0 * delta_admissible(replace(s, kappa=0.025)))
    assert small < delta_admissible(s)


def _directional_margins(s, j):
    sensor = s.sensor(j)
    p = float(sensor.noise.cdf(sensor.threshold - s.signal_mean(j)))
    row = s.constants().row(j)
    return p, (row.rho_u - p), (p - row.rho_l)


def test_distortion_floor_linear_attenuation(rng):
    """With gamma = 1 a significant shift moves D_hat by at least lambda."""
    for _ in range(10):
        s = random_scenario(rng, gamma=1.0)
        j = s.unsecure()[0].id
        p, up, down = _directional_margins(s, j)
        d_true = distance(s.sensor(j).position, s.target)
        for sign, room in ((1.0, up), (-1.0, down)):
            if room < 1e-4:
                continue
            psi = 0.9 * room
            shifted = attacked_distance(s, j, p + sign * psi)
            floor = _floor(replace(s, kappa=psi / 1.2), j)
            assert abs(shifted - d_true) >= floor * (1.0 - 1e-9)


def test_distortion_floor_general_attenuation(rng):
    """For general gamma the guaranteed shift carries a 1/gamma factor."""
    for _ in range(20):
        s = random_scenario(rng)
        j = s.unsecure()[0].id
        p, up, down = _directional_margins(s, j)
        d_true = distance(s.sensor(j).position, s.target)
        for sign, room in ((1.0, up), (-1.0, down)):
            if room < 1e-4:
                continue
            psi = 0.9 * room
            shifted = attacked_distance(s, j, p + sign * psi)
            kappa = psi / 1.2
            floor = _floor(replace(s, kappa=kappa), j)
            assert abs(shifted - d_true) >= (
                (psi / kappa) * floor / s.gamma
            ) * (1.0 - 1e-9)
            # a shift clearing gamma * kappa attains the plain floor
            kappa2 = psi / (1.05 * s.gamma)
            floor2 = _floor(replace(s, kappa=kappa2), j)
            assert abs(shifted - d_true) >= floor2 * (1.0 - 1e-9)


def _records_with_zero_counts(zeros, k):
    """One record per id with exactly the given number of zero bits, shuffled."""
    rng = np.random.default_rng(5)
    return {
        j: rng.permutation(np.r_[np.zeros(z, np.uint8), np.ones(k - z, np.uint8)])
        for j, z in zeros.items()
    }


@pytest.mark.parametrize("k", [1, 2, 64, 10_000])
def test_detect_all_rows_equal_per_sensor_nmle_distance(k):
    from quantloc import nmle_distance

    s = random_scenario(np.random.default_rng(k), n_unsecure=6)
    rng = np.random.default_rng(k + 1)
    for _ in range(5):
        zeros = {x.id: int(rng.integers(0, k, endpoint=True)) for x in s.sensors}
        data = QuantizedDataset(bits=_records_with_zero_counts(zeros, k), k=k, rng_seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdvisoryWarning)
            report = detect_all(s, DetectorConfig(delta=1.0), data)
        assert [row.sensor_id for row in report.rows] == [x.id for x in s.unsecure()]
        for row in report.rows:
            est = nmle_distance(s, row.sensor_id, data.freq(row.sensor_id))
            assert (row.d_hat.hex(), row.clamped) == (est.value.hex(), est.clamped)
        for sid, est in report.secure_estimates:
            assert est == nmle_distance(s, sid, data.freq(sid))


@pytest.mark.parametrize("missing", [1, 2, 3, 4])
def test_detect_all_names_the_sensor_without_a_record(toy_scenario, missing, tmp_path):
    data = generate_dataset(toy_scenario, no_attacks(), 100, base_seed=1, trial_index=0)
    bits = {j: arr for j, arr in data.bits.items() if j != missing}
    partial = QuantizedDataset(bits=bits, k=100, rng_seed=1)
    # the same records, loaded packed from their QDS1 file
    save_dataset(partial, tmp_path / "partial.bits")
    for records in (partial, load_dataset(tmp_path / "partial.bits")):
        with pytest.raises(MissingSensorData, match=rf"no record for sensor {missing}\b"):
            detect_all(toy_scenario, DetectorConfig(delta=5.0), records)


def test_sensor_decisions_are_frozen_slotted_rows():
    row = SensorDecision(sensor_id=3, decision=1, d_hat=2.5, clamped=False)
    assert SensorDecision.__slots__ == ("sensor_id", "decision", "d_hat", "clamped")
    assert not hasattr(row, "__dict__")
    with pytest.raises(FrozenInstanceError):
        row.decision = 0


def test_report_columns_and_their_rows_view(toy_scenario):
    s = toy_scenario
    assignment = AttackAssignment(specs={1: Mima(0.0, 0.2)})
    data = generate_dataset(s, assignment, 20_000, base_seed=1, trial_index=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdvisoryWarning)
        report = detect_all(s, DetectorConfig(delta=5.0), data)
        again = detect_all(s, DetectorConfig(delta=5.0), data)
    assert report.ids == tuple(x.id for x in s.unsecure())
    assert report.flags == (1, 0)
    assert all(type(c) is tuple for c in (report.ids, report.flags, report.d_hat, report.clamped))
    # rows is a view built on first read, not a field: equality ignores it
    assert "rows" not in {f.name for f in fields(report)}
    rows = report.rows
    assert rows is report.rows
    assert rows == tuple(
        SensorDecision(sid, flag, d_hat, clamped)
        for sid, flag, d_hat, clamped in zip(
            report.ids, report.flags, report.d_hat, report.clamped
        )
    )
    assert report == again and "rows" not in vars(again)
    assert report != replace(again, flags=(0, 0))
    assert report.decisions == {1: 1, 2: 0}
    with pytest.raises(KeyError, match="99"):
        report.decisions[99]


def test_scenario_without_unsecure_sensors_gives_an_empty_report(toy_scenario, tmp_path):
    anchors = replace(toy_scenario, sensors=tuple(x for x in toy_scenario.sensors if x.secure))
    path = tmp_path / "anchors.json"
    save_scenario(anchors, path)
    s, assignment = load_scenario(path)
    assert s.unsecure() == ()
    with pytest.raises(DomainError, match="no unsecure sensors"):
        lambda_min(s)
    with pytest.raises(DomainError, match="no unsecure sensors"):
        delta_admissible(s)
    data = generate_dataset(s, assignment, 100, base_seed=1, trial_index=0)
    for method in ("analytic", "discretized"):
        report = detect_all(s, DetectorConfig(delta=5.0, method=method, m_points=64), data)
        assert report.ids == report.flags == report.d_hat == report.clamped == report.rows == ()
        assert report.to_table() == "sensor_id\tdecision\tD_hat\tclamped\tmethod\tdelta\n"
        assert [sid for sid, _ in report.secure_estimates] == [3, 4]
