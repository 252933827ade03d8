"""Monte Carlo harness: seeding contract, metrics, paired sweeps."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from quantloc import (
    AdvisoryWarning,
    AttackAssignment,
    DetectorConfig,
    DomainError,
    ExperimentPlan,
    InvalidScenario,
    Metrics,
    Mima,
    PsiOffset,
    SpoofBias,
    composite_exponents,
    detect_all,
    estimate_error_probs,
    generate_dataset,
    no_attacks,
    prob_zero,
    sweep_delta,
)
from quantloc.montecarlo import _threads


def _plan(s, assignment, **kw):
    defaults = dict(
        scenario=s,
        assignment=assignment,
        detector=DetectorConfig(delta=5.0),
        k_grid=(200, 400),
        trials=10,
        base_seed=0,
        threads=1,
    )
    defaults.update(kw)
    return ExperimentPlan(**defaults)


def test_plan_validation(toy_scenario):
    s = toy_scenario
    with pytest.raises(DomainError):
        _plan(s, no_attacks(), k_grid=())
    with pytest.raises(DomainError):
        _plan(s, no_attacks(), k_grid=(0, 10))
    with pytest.raises(DomainError):
        _plan(s, no_attacks(), k_grid=(400, 200))
    with pytest.raises(DomainError):
        _plan(s, no_attacks(), k_grid=(200, 200))
    with pytest.raises(DomainError):
        _plan(s, no_attacks(), trials=0)
    with pytest.raises(DomainError):
        _plan(s, no_attacks(), threads=-1)
    with pytest.raises(InvalidScenario):
        _plan(s, AttackAssignment(specs={3: Mima(0.0, 0.1)}))


def test_generate_dataset_deterministic(toy_scenario):
    s = toy_scenario
    a = generate_dataset(s, no_attacks(), 1000, base_seed=5, trial_index=2)
    b = generate_dataset(s, no_attacks(), 1000, base_seed=5, trial_index=2)
    c = generate_dataset(s, no_attacks(), 1000, base_seed=5, trial_index=3)
    assert set(a.bits) == {1, 2, 3, 4}
    assert a.k == 1000
    for j in a.bits:
        np.testing.assert_array_equal(a.bits[j], b.bits[j])
    assert any(not np.array_equal(a.bits[j], c.bits[j]) for j in a.bits)


def test_generate_dataset_prefix_property(toy_scenario):
    s = toy_scenario
    for spec in (Mima(0.1, 0.2), PsiOffset(0.05), SpoofBias(0.5)):
        assignment = AttackAssignment(specs={1: spec})
        short = generate_dataset(s, assignment, 500, base_seed=7, trial_index=0)
        long = generate_dataset(s, assignment, 1000, base_seed=7, trial_index=0)
        for j in long.bits:
            np.testing.assert_array_equal(long.bits[j][:500], short.bits[j])


def pinned_zero_counts(s) -> dict[str, list[int]]:
    """Zero counts of sensors 1-4, per variant, at K = 2000, seed 11, trial 3.

    ``tests/data/make_goldens.py`` prints them for ``PINNED_ZERO_COUNTS``.
    """
    p1, p2 = prob_zero(s, 1), prob_zero(s, 2)
    cases = {
        "none": {},
        "mima": {1: Mima(0.1, 0.2), 2: Mima(0.1, 0.2)},
        "offset": {1: PsiOffset(0.05), 2: PsiOffset(0.05)},
        # p + offset lands exactly on 0 and on 1: the quantizer saturates
        "saturated": {1: PsiOffset(-p1), 2: PsiOffset(1.0 - p2)},
        "spoof": {1: SpoofBias(0.5), 2: SpoofBias(0.5)},
    }
    counts = {}
    for name, specs in cases.items():
        data = generate_dataset(s, AttackAssignment(specs=specs), 2000, base_seed=11, trial_index=3)
        counts[name] = [int(data.bits[j].size - data.bits[j].sum()) for j in (1, 2, 3, 4)]
    return counts


PINNED_ZERO_COUNTS = {
    "none": [1100, 1032, 1373, 1377],
    "mima": [1192, 1138, 1373, 1377],
    "offset": [1195, 1132, 1373, 1377],
    "saturated": [0, 2000, 1373, 1377],
    "spoof": [721, 635, 1373, 1377],
}


def test_generate_dataset_zero_counts_are_pinned(toy_scenario):
    """Frozen seeded zero counts per sensor and variant.

    Any change to a random stream or to a variant's bit record moves them.
    """
    assert pinned_zero_counts(toy_scenario) == PINNED_ZERO_COUNTS


def test_probability_offset_realized_exactly(toy_scenario):
    s = toy_scenario
    p = prob_zero(s, 1)
    all_ones = generate_dataset(
        s, AttackAssignment(specs={1: PsiOffset(-p)}), 400, base_seed=1, trial_index=0
    )
    assert all_ones.bits[1].min() == 1  # zero-probability shifted to exactly 0
    all_zeros = generate_dataset(
        s,
        AttackAssignment(specs={1: PsiOffset(1.0 - p)}),
        400,
        base_seed=1,
        trial_index=0,
    )
    assert all_zeros.bits[1].max() == 0


@pytest.mark.parametrize(
    "spec",
    [Mima(0.1, 0.2), PsiOffset(0.1), SpoofBias(0.5)],
    ids=["flip", "offset", "spoof"],
)
def test_attack_routes_hit_their_target_probability(toy_scenario, spec):
    s = toy_scenario
    k = 100_000
    p = prob_zero(s, 1)
    tp = spec.shift(p, s.sensor(1).noise)
    data = generate_dataset(
        s, AttackAssignment(specs={1: spec}), k, base_seed=3, trial_index=0
    )
    xi = data.freq(1).xi
    assert xi == pytest.approx(tp, abs=4.0 * math.sqrt(tp * (1.0 - tp) / k))
    # the unattacked sensor is untouched
    xi_clean = data.freq(2).xi
    assert xi_clean == pytest.approx(p, abs=4.0 * math.sqrt(p * (1.0 - p) / k))


def test_parallel_equals_serial(toy_scenario):
    assignment = AttackAssignment(specs={1: Mima(0.0, 0.2)})
    serial = estimate_error_probs(_plan(toy_scenario, assignment, threads=1))
    parallel = estimate_error_probs(_plan(toy_scenario, assignment, threads=4))
    assert serial.rows == parallel.rows
    # five trials over three threads: the pool's share of trials is uneven
    deltas = [5.0, 2.0, 9.0]
    serial = sweep_delta(_plan(toy_scenario, assignment, threads=1, trials=5), deltas)
    parallel = sweep_delta(_plan(toy_scenario, assignment, threads=3, trials=5), deltas)
    assert serial == parallel


@pytest.mark.parametrize(
    "specs",
    [{1: Mima(0.1, 0.2)}, {1: PsiOffset(0.05)}, {2: SpoofBias(0.5)}, {}],
    ids=["flip", "offset", "spoof", "none"],
)
def test_sweep_delta_counts_match_per_k_reference(toy_scenario, specs):
    """Counts equal a fresh draw at every K, classified by detect_all per delta."""
    s = toy_scenario
    assignment = AttackAssignment(specs=specs)
    deltas = [5.0, 2.0, 9.0]
    plan = _plan(s, assignment, k_grid=(1, 50, 300), trials=4, threads=2)
    out = sweep_delta(plan, deltas)
    attacked = set(assignment.attacked_ids())
    for k in plan.k_grid:
        expected = {delta: [0, 0] for delta in deltas}
        for trial in range(plan.trials):
            data = generate_dataset(s, assignment, k, plan.base_seed, trial)
            for delta in deltas:
                report = detect_all(s, DetectorConfig(delta=delta), data)
                for row in report.rows:
                    if row.sensor_id in attacked:
                        expected[delta][1] += 1 - row.decision
                    else:
                        expected[delta][0] += row.decision
        for delta in deltas:
            row = out[delta].row_for(k)
            assert [row.fa_count, row.miss_count] == expected[delta], (k, delta)


def test_sweep_delta_validation(toy_scenario):
    plan = _plan(toy_scenario, no_attacks())
    with pytest.raises(DomainError):
        sweep_delta(plan, [])
    from quantloc import GaussianNoise, Point, RoiDisc, ScenarioConfig, SensorSpec

    noise = GaussianNoise()
    bare = ScenarioConfig(
        (
            SensorSpec(1, Point(-100.0, 0.0), 1.0, noise, secure=True),
            SensorSpec(2, Point(100.0, 0.0), 1.0, noise, secure=True),
        ),
        RoiDisc(Point(0.0, 100.0), 5.0),
        Point(0.0, 100.0),
        1.0,
        100.0,
        2.0,
    )
    with pytest.raises(DomainError):
        sweep_delta(_plan(bare, no_attacks()), [5.0])


def test_sweep_delta_warns_for_an_inadmissible_later_delta(toy_scenario):
    # the toy scenario's admissible limit is 20; only the second delta exceeds it
    plan = _plan(toy_scenario, no_attacks(), trials=2)
    with pytest.warns(AdvisoryWarning, match="delta = 25 exceeds"):
        sweep_delta(plan, [5.0, 25.0])


def test_metrics_rows_and_rendering(toy_scenario):
    metrics = estimate_error_probs(_plan(toy_scenario, no_attacks()))
    row = metrics.row_for(200)
    assert row.k == 200 and row.delta == 5.0
    assert row.trials == 10
    # no attacked sensors: the miss class is empty, not zero
    assert row.miss_hat is None and row.miss_se is None
    assert row.miss_bound is None
    assert row.fa_hat == row.fa_count / (10 * 2)
    if 0.0 < row.fa_hat < 1.0:
        assert row.fa_se == pytest.approx(
            math.sqrt(row.fa_hat * (1.0 - row.fa_hat) / 20.0)
        )
    table = metrics.to_table()
    assert table.startswith("K\tdelta\tfa_hat")
    assert "\tnan\t" in table
    assert len(table.strip().split("\n")) == 3
    with pytest.raises(KeyError):
        metrics.row_for(999)


def test_every_unsecure_sensor_attacked_empties_the_false_alarm_class(toy_scenario):
    assignment = AttackAssignment(specs={1: Mima(0.0, 0.2), 2: Mima(0.0, 0.2)})
    metrics = estimate_error_probs(_plan(toy_scenario, assignment))
    for row in metrics.rows:
        # no unattacked sensors: the false-alarm class is empty, not zero
        assert row.fa_hat is None and row.fa_se is None
        assert row.fa_bound == 0.0
        assert type(row.fa_count) is int and type(row.miss_count) is int
        assert row.fa_count == 0
        assert row.miss_hat == row.miss_count / (10 * 2)
        # the average error still counts over every unsecure sensor
        assert row.avg_err == row.miss_count / (10 * 2)
    assert "\tnan\tnan\t" in metrics.to_table()


def test_bound_columns_come_from_composite_exponents(toy_scenario):
    assignment = AttackAssignment(specs={1: Mima(0.0, 0.2)})
    plan = _plan(toy_scenario, assignment)
    metrics = estimate_error_probs(plan)
    report = composite_exponents(toy_scenario, assignment, plan.detector)
    for row in metrics.rows:
        assert row.fa_bound == report.fa_bound(row.k)
        assert row.miss_bound == report.miss_bound(row.k)
        assert row.pe_bound == report.err_bound(row.k)


def test_sweep_delta_counts_are_monotone_in_delta(toy_scenario):
    assignment = AttackAssignment(specs={1: Mima(0.0, 0.2)})
    plan = _plan(
        toy_scenario, assignment, k_grid=(500, 2000), trials=40,
        detector=DetectorConfig(delta=2.0),
    )
    deltas = [2.0, 5.0, 9.0]
    out = sweep_delta(plan, deltas)
    assert set(out) == set(deltas)
    for k in plan.k_grid:
        fa = [out[d].row_for(k).fa_count for d in deltas]
        miss = [out[d].row_for(k).miss_count for d in deltas]
        # growing the detection region can only clear alarms and add misses
        assert fa == sorted(fa, reverse=True)
        assert miss == sorted(miss)


def test_estimate_matches_single_delta_sweep(toy_scenario):
    plan = _plan(toy_scenario, no_attacks())
    direct = estimate_error_probs(plan)
    swept = sweep_delta(plan, [plan.detector.delta])[plan.detector.delta]
    assert direct.rows == swept.rows


def test_sweep_K_slope_negative_when_errors_decay(toy_scenario):
    plan = _plan(
        toy_scenario,
        no_attacks(),
        detector=DetectorConfig(delta=2.0),
        k_grid=(500, 2000, 8000),
        trials=60,
    )
    metrics = estimate_error_probs(plan)
    errs = [r.avg_err for r in metrics.rows]
    assert errs[0] > errs[-1]
    assert metrics.slope is not None and metrics.slope < 0.0
    # the slope is read from the rows, never set beside them
    assert Metrics(rows=metrics.rows).slope == metrics.slope
    with pytest.raises(TypeError):
        Metrics(rows=metrics.rows, slope=0.0)


def test_sweep_K_slope_none_without_positive_errors(toy_scenario):
    # a gross attack at large delta: every trial detects it, no errors remain
    assignment = AttackAssignment(specs={1: PsiOffset(0.2), 2: PsiOffset(0.2)})
    plan = _plan(
        toy_scenario,
        assignment,
        detector=DetectorConfig(delta=5.0),
        k_grid=(5000, 10000),
        trials=5,
    )
    metrics = estimate_error_probs(plan)
    assert all(r.avg_err == 0.0 for r in metrics.rows)
    assert metrics.slope is None


def test_auto_threads_count_the_cpus_the_process_may_use(toy_scenario, monkeypatch):
    plan = _plan(toy_scenario, no_attacks(), threads=0)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _threads(plan) == 1
    assert _threads(replace(plan, threads=3)) == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert _threads(plan) == 32
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _threads(plan) == 8


@pytest.mark.parametrize("deltas", [[5.0, 5.0], [5.0, 6.0, 5], [280.0, 280.0]])
def test_sweep_delta_rejects_repeated_deltas(toy_scenario, deltas):
    plan = _plan(toy_scenario, no_attacks(), trials=1)
    with pytest.raises(DomainError, match="deltas"):
        sweep_delta(plan, deltas)


def test_sweep_delta_takes_a_numpy_array_of_deltas(toy_scenario):
    plan = _plan(toy_scenario, no_attacks(), trials=2)
    from_array = sweep_delta(plan, np.array([5.0, 6.0]))
    assert [type(d) for d in from_array] == [float, float]
    assert from_array == sweep_delta(plan, [5.0, 6.0])
    assert from_array == sweep_delta(plan, (np.float64(5.0), 6))


@pytest.mark.parametrize(
    "deltas, message",
    [
        ([5.0, "6"], r"deltas\[1\]: delta must be a real number, got '6'"),
        ([None], r"deltas\[0\]: delta must be a real number, got None"),
        ([5.0, True], r"deltas\[1\]: delta must be a real number, got True"),
        (np.array([[5.0, 6.0]]), r"deltas\[0\]: delta must be a real number"),
        ([5.0, -1.0], r"deltas\[1\]: delta must be positive and finite, got -1.0"),
        (np.array([]), "need at least one delta"),
        (5.0, "deltas must be a sequence, got 5.0"),
    ],
    ids=["str", "none", "bool", "2-d", "negative", "empty-array", "scalar"],
)
def test_sweep_delta_names_the_bad_delta(toy_scenario, deltas, message):
    plan = _plan(toy_scenario, no_attacks(), trials=1)
    with pytest.raises(DomainError, match=message):
        sweep_delta(plan, deltas)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("k_grid", (100.0, 200.0)),
        ("k_grid", (100, np.float64(200))),
        ("k_grid", ("100",)),
        ("k_grid", 100),
        ("trials", 2.0),
        ("trials", "2"),
        ("threads", 1.0),
        ("threads", None),
        ("base_seed", 1.5),
        ("base_seed", np.float64(1.0)),
    ],
)
def test_plan_integer_fields_reject_non_integers(toy_scenario, field, bad):
    with pytest.raises(DomainError, match=field):
        _plan(toy_scenario, no_attacks(), **{field: bad})


def test_plan_integer_fields_take_numpy_integers(toy_scenario):
    plan = _plan(
        toy_scenario,
        no_attacks(),
        k_grid=np.array([200, 400]),
        trials=np.int32(3),
        base_seed=np.uint64(7),
        threads=np.int64(1),
    )
    assert plan.k_grid == (200, 400) and plan.trials == 3
    assert plan.base_seed == 7 and plan.threads == 1
    for value in (*plan.k_grid, plan.trials, plan.base_seed, plan.threads):
        assert type(value) is int
    same = _plan(toy_scenario, no_attacks(), k_grid=(200, 400), trials=3, base_seed=7)
    assert sweep_delta(plan, [5.0]) == sweep_delta(same, [5.0])


@pytest.mark.parametrize(
    "seeds",
    [dict(base_seed=7.9), dict(base_seed="7"), dict(trial_index=0.5)],
    ids=["float-seed", "str-seed", "float-trial"],
)
def test_generate_dataset_rejects_a_seed_that_is_not_an_integer(toy_scenario, seeds):
    """A seed is read as an integer, never truncated to one."""
    keys = dict(base_seed=7, trial_index=0) | seeds
    bad = next(iter(seeds.values()))
    with pytest.raises(DomainError, match=f"integers, got .*{bad!r}"):
        generate_dataset(toy_scenario, no_attacks(), 64, **keys)
