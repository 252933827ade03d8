"""Acceptance gate: eleven numbered end-to-end criteria.

Each test prints one ``criterion NN PASS`` line with its headline number
and asserts the stated tolerance, trial count, and runtime budget.  The
two Monte Carlo fixtures are shared: the delta sweep feeds criteria 6-8,
and the per-strength rows reuse its delta=280 arm, which is bit-identical
across attack strengths because the seed keys never include the attack
parameters.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import random_region_trial, random_scenario
from quantloc import (
    DetectorConfig,
    ExperimentPlan,
    HalfSpace,
    Point,
    QuantizedDataset,
    Ring,
    ScenarioConfig,
    bernoulli_kl,
    build_paper_setup,
    circle_circle_intersection,
    circle_meets_region_analytic,
    circle_meets_region_discretized,
    composite_exponents,
    containment_oracle,
    delta_admissible,
    detect_from_probabilities,
    estimate_error_probs,
    no_attacks,
    nmle_distance,
    prob_zero,
    quantize,
    roi_side,
    sample_signal,
    sweep_delta,
)

BASE_SEED = 20260817
DELTAS = (260.0, 280.0, 300.0, 320.0)
K_GRID = (20_000, 40_000, 60_000, 80_000, 100_000)
PSI1_VALUES = (0.0085, 0.0095, 0.0105)


def _distance(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _kl_bernoulli(a: float, b: float) -> float:
    """Plain two-term Bernoulli divergence, the oracle route."""
    if a == 0.0:
        return math.log(1.0 / (1.0 - b))
    if a == 1.0:
        return math.log(1.0 / b)
    return a * math.log(a / b) + (1.0 - a) * math.log((1.0 - a) / (1.0 - b))


@pytest.fixture(scope="module")
def benchmark_delta_curves():
    """trials=200 sweep of the 1/25-scale benchmark over four deltas.

    One shared dataset per (K, trial) cell serves every delta, so the
    curves are paired.  The detection radii sit far above the scenario's
    admissible slack, which is expected at this scale; the advisory is
    silenced rather than re-raised two hundred thousand times.
    """
    t0 = time.perf_counter()
    scenario, assignment = build_paper_setup(scale=1 / 25)
    plan = ExperimentPlan(
        scenario=scenario,
        assignment=assignment,
        detector=DetectorConfig(delta=DELTAS[0]),
        k_grid=K_GRID,
        trials=200,
        base_seed=BASE_SEED,
        threads=0,
    )
    curves = sweep_delta(plan, DELTAS)
    return curves, time.perf_counter() - t0


@pytest.fixture(scope="module")
def attack_strength_rows(benchmark_delta_curves):
    """The delta=280, K=1e5 cell at three flip strengths, matched seeds."""
    curves, _ = benchmark_delta_curves
    rows = {0.0105: curves[280.0].row_for(100_000, 280.0)}
    for psi1 in PSI1_VALUES[:2]:
        scenario, assignment = build_paper_setup(scale=1 / 25, psi1=psi1)
        plan = ExperimentPlan(
            scenario=scenario,
            assignment=assignment,
            detector=DetectorConfig(delta=280.0),
            k_grid=(100_000,),
            trials=200,
            base_seed=BASE_SEED,
            threads=0,
        )
        rows[psi1] = estimate_error_probs(plan).row_for(100_000, 280.0)
    return rows


def test_criterion_01_rate_functions_match_kl_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for p in np.linspace(0.005, 0.995, 100):
        for f in np.linspace(0.0, 0.999, 100):
            t_up = f * (1.0 - p)
            t_dn = f * p
            for q in (p + t_up, p - t_dn):
                worst = max(worst, abs(bernoulli_kl(q, p) - _kl_bernoulli(q, p)))
            if f > 0.0:
                for q in (p * f, p + (1.0 - p) * f):
                    worst = max(worst, abs(bernoulli_kl(q, p) - _kl_bernoulli(q, p)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"criterion 01 PASS max|rate - KL oracle| = {worst:.2e} ({elapsed:.2f} s)")


def test_criterion_02_chernoff_bounds_dominate_exact_tails():
    """Exact rational binomial tails never exceed the exponential bounds."""
    t0 = time.perf_counter()
    checked = 0
    for p in (0.2, 0.5, 0.8):
        for t in (0.05, 0.1):
            for k in (50, 200):
                pf, tf = Fraction(p), Fraction(t)
                weights = [
                    math.comb(k, m) * pf**m * (1 - pf) ** (k - m)
                    for m in range(k + 1)
                ]
                upper = sum(weights[math.ceil(k * (pf + tf)) :])
                lower = sum(weights[: math.floor(k * (pf - tf)) + 1])
                assert float(upper) <= math.exp(-k * bernoulli_kl(p + t, p))
                assert float(lower) <= math.exp(-k * bernoulli_kl(p - t, p))
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 12
    assert elapsed < 1.0
    print(f"criterion 02 PASS 12/12 exact tails below bounds ({elapsed:.2f} s)")


def test_criterion_03_ring_intersection_containment():
    """Two-sided containment around the target on 1000 random networks.

    Ring radii are perturbed within +-delta of the true anchor distances,
    every rejection-sampled intersection point must fall inside the
    phi(delta) disc, and the delta-ball at the true radii must survive the
    grid check.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260803)
    violations = 0
    for i in range(1000):
        s = random_scenario(rng)
        bounds = s.distance_bounds()
        delta = 0.5 * s.upsilon
        anchor1, anchor2 = s.secure_pair()
        clip = HalfSpace(anchor1.position, anchor2.position, roi_side(s))
        ring1 = Ring(
            anchor1.position,
            _distance(s.target, anchor1.position) + rng.uniform(-delta, delta),
            delta,
            clip,
        )
        ring2 = Ring(
            anchor2.position,
            _distance(s.target, anchor2.position) + rng.uniform(-delta, delta),
            delta,
            clip,
        )
        report = containment_oracle(
            bounds, s.upsilon, delta, ring1, ring2, s.target, 10_000, seed=i
        )
        ok = (
            report.upper_ok
            and report.lower_ok
            and report.assumptions_ok
            and report.sample_count >= 10_000
        )
        violations += not ok
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60.0
    print(f"criterion 03 PASS 0/1000 containment violations ({elapsed:.2f} s)")


def test_criterion_04_intersection_closed_form_vs_bisection():
    """Closed-form circle crossing against a 100-step bisection oracle."""
    t0 = time.perf_counter()
    n = 10_000
    rng = np.random.default_rng(20260804)
    scale = 10.0 ** rng.uniform(-1.0, 3.0, size=n)
    c1x = rng.uniform(-2.0, 2.0, size=n) * scale
    c1y = rng.uniform(-2.0, 2.0, size=n) * scale
    heading = rng.uniform(0.0, 2.0 * math.pi, size=n)
    d = rng.uniform(0.5, 3.0, size=n) * scale
    r1 = 10.0 ** rng.uniform(-1.0, 3.0, size=n)
    u = rng.uniform(0.01, 0.99, size=n)
    gap_lo = np.abs(d - r1)
    r2 = gap_lo + u * (d + r1 - gap_lo)

    # Bisection in the frame where circle 1 is centered at the origin and
    # circle 2 sits at (d, 0): the point distance to (d, 0) grows with the
    # angle, so the root is bracketed by [0, pi].
    lo = np.zeros(n)
    hi = np.full(n, math.pi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        g = np.hypot(r1 * np.cos(mid) - d, r1 * np.sin(mid)) - r2
        hi = np.where(g > 0.0, mid, hi)
        lo = np.where(g > 0.0, lo, mid)
    theta = 0.5 * (lo + hi)
    ex_x, ex_y = np.cos(heading), np.sin(heading)
    oracle_x = c1x + r1 * np.cos(theta) * ex_x - r1 * np.sin(theta) * ex_y
    oracle_y = c1y + r1 * np.cos(theta) * ex_y + r1 * np.sin(theta) * ex_x

    worst = 0.0
    for i in range(n):
        a = Point(float(c1x[i]), float(c1y[i]))
        b = Point(float(c1x[i] + d[i] * ex_x[i]), float(c1y[i] + d[i] * ex_y[i]))
        pt = circle_circle_intersection(
            a, float(r1[i]), b, float(r2[i]), HalfSpace(a, b, 1)
        )
        err = math.hypot(pt.x - oracle_x[i], pt.y - oracle_y[i])
        worst = max(worst, err / (float(r1[i] + r2[i] + d[i])))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 5.0
    print(f"criterion 04 PASS max relative gap = {worst:.2e} ({elapsed:.2f} s)")


def test_criterion_05_estimator_consistency():
    """A clean sensor at range 1e5 recovers its distance from K=1e6 bits."""
    t0 = time.perf_counter()
    reference = build_paper_setup(scale=0.004)[0]
    anchor1, anchor2 = reference.secure_pair()
    probe = replace(anchor1, id=1, position=Point(0.0, 0.0), secure=False)
    s = ScenarioConfig(
        sensors=(probe, replace(anchor1, id=2), replace(anchor2, id=3)),
        roi=reference.roi,
        target=reference.target,
        p0=reference.p0,
        d0=reference.d0,
        gamma=reference.gamma,
        upsilon1=reference.upsilon1,
        upsilon2=reference.upsilon2,
        kappa=reference.kappa,
    )
    true_d = _distance(s.target, probe.position)
    assert true_d == 1e5

    k = 1_000_000
    hits = 0
    for trial in range(200):
        signal = sample_signal(s, 1, k, seed=(20260805, trial))
        bits = quantize(s, 1, signal)
        record = QuantizedDataset(bits={1: bits}, k=k, rng_seed=0)
        estimate = nmle_distance(s, 1, record.freq(1))
        hits += abs(float(estimate) - true_d) / true_d < 0.005
    elapsed = time.perf_counter() - t0
    assert hits >= 198
    assert elapsed < 30.0
    print(f"criterion 05 PASS {hits}/200 trials within 0.5% ({elapsed:.2f} s)")


def test_criterion_06_error_decay_and_delta_ordering(benchmark_delta_curves):
    curves, sweep_elapsed = benchmark_delta_curves
    t0 = time.perf_counter()
    fitted = 0
    for delta in DELTAS:
        points = [
            (k, curves[delta].row_for(k, delta).avg_err)
            for k in K_GRID
            if curves[delta].row_for(k, delta).avg_err > 0.0
        ]
        if len(points) >= 2:
            ks = [k for k, _ in points]
            logs = [math.log(e) for _, e in points]
            slope = float(np.polyfit(ks, logs, 1)[0])
            assert slope < 0.0, f"delta={delta} slope={slope}"
            fitted += 1
    assert fitted >= 1

    final = [curves[delta].row_for(K_GRID[-1], delta).avg_err for delta in DELTAS]
    for wider, narrower in zip(final[1:], final):
        assert wider <= narrower
    elapsed = sweep_elapsed + (time.perf_counter() - t0)
    assert elapsed < 600.0
    print(
        f"criterion 06 PASS {fitted} negative slopes; "
        f"avg_err at K=1e5 over delta: "
        + " >= ".join(f"{e:.4f}" for e in final)
        + f" ({elapsed:.1f} s)"
    )


def test_criterion_07_false_alarm_invariant_to_attack_strength(attack_strength_rows):
    rows = attack_strength_rows
    for a, b in combinations(PSI1_VALUES, 2):
        gap = abs(rows[a].fa_hat - rows[b].fa_hat)
        budget = 2.0 * math.hypot(rows[a].fa_se, rows[b].fa_se)
        assert gap <= budget, f"psi1 {a} vs {b}: gap {gap} > {budget}"
    fa = {p: rows[p].fa_hat for p in PSI1_VALUES}
    print(f"criterion 07 PASS fa_hat by strength: {fa}")


def test_criterion_08_miss_rate_falls_with_attack_strength(attack_strength_rows):
    rows = attack_strength_rows
    miss = [rows[p].miss_hat for p in PSI1_VALUES]
    assert miss[0] > miss[1] > miss[2]
    spread = miss[0] - miss[2]
    budget = 2.0 * math.hypot(rows[PSI1_VALUES[0]].miss_se, rows[PSI1_VALUES[-1]].miss_se)
    assert spread > budget
    print(
        "criterion 08 PASS miss_hat "
        + " > ".join(f"{m:.4f}" for m in miss)
        + f"; extreme gap {spread:.4f} > {budget:.4f}"
    )


def test_criterion_09_analytic_matches_discretized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    m_points = 200_000
    disagreements = []
    meets = 0
    for _ in range(10_000):
        center, radius, ring1, ring2 = random_region_trial(rng)
        analytic = circle_meets_region_analytic(center, radius, ring1, ring2)
        sampled = circle_meets_region_discretized(center, radius, ring1, ring2, m_points)
        meets += analytic
        if analytic != sampled:
            disagreements.append((center, radius, ring1, ring2, analytic))
    assert len(disagreements) <= 10

    # Any split verdict must be a resolution artifact: a 64x finer walk has
    # to side with the exact test, or a one-part-in-1e9 radius nudge has to
    # flip the exact verdict, which marks the case as a boundary tie.
    for center, radius, ring1, ring2, analytic in disagreements:
        refined = circle_meets_region_discretized(center, radius, ring1, ring2, 64 * m_points)
        if refined != analytic:
            nudged = {
                circle_meets_region_analytic(
                    center,
                    radius * (1.0 + sign * 1e-9),
                    ring1,
                    ring2,
                )
                for sign in (-1.0, 1.0)
            }
            assert nudged != {analytic}
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 09 PASS {10_000 - len(disagreements)}/10000 agree "
        f"({meets} intersecting; {elapsed:.1f} s)"
    )


def test_criterion_10_exact_feed_classifies_perfectly():
    """Noise-free probabilities: every verdict is correct on 1000 networks.

    The flip strength is drawn clear of the distortion floor's attenuation
    factor and kept inside the sensor's probability bracket, and the
    detection radius stays under the admissible slack.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    errors = 0
    for _ in range(1000):
        s = random_scenario(rng)
        unsecure = s.unsecure()
        j = int(unsecure[rng.integers(len(unsecure))].id)
        p = prob_zero(s, j)
        row = s.constants().row(j)
        rho_l, rho_u = row.rho_l, row.rho_u
        need = 1.1 * s.gamma * s.kappa
        up_room, down_room = rho_u - p, p - rho_l
        room = max(up_room, down_room)
        assert room * 0.95 >= need
        psi = min(1.4 * need, 0.95 * room)
        tampered = p + psi if up_room >= down_room else p - psi
        assert abs(tampered - p) > s.kappa

        probs = {spec.id: prob_zero(s, spec.id) for spec in s.sensors}
        probs[j] = tampered
        cfg = DetectorConfig(delta=0.9 * delta_admissible(s))
        report = detect_from_probabilities(s, cfg, probs)
        for row in report.rows:
            errors += row.decision != (1 if row.sensor_id == j else 0)
    elapsed = time.perf_counter() - t0
    assert errors == 0
    assert elapsed < 30.0
    print(f"criterion 10 PASS 0 classification errors on 1000 networks ({elapsed:.2f} s)")


def test_criterion_11_bound_dominates_empirical_false_alarm(toy_scenario):
    t0 = time.perf_counter()
    k_grid = (130_000, 160_000, 190_000)
    cfg = DetectorConfig(delta=19.0)
    assignment = no_attacks()
    report = composite_exponents(toy_scenario, assignment, cfg)
    assert 12.0 * math.exp(-report.fa_exponent * k_grid[0]) < 0.5
    assert delta_admissible(toy_scenario) >= cfg.delta

    plan = ExperimentPlan(
        scenario=toy_scenario,
        assignment=assignment,
        detector=cfg,
        k_grid=k_grid,
        trials=40,
        base_seed=BASE_SEED,
        threads=0,
    )
    metrics = estimate_error_probs(plan)
    cells = []
    for k in k_grid:
        row = metrics.row_for(k, cfg.delta)
        assert row.fa_hat <= row.fa_bound + 4.0 * row.fa_se
        cells.append(f"K={k}: {row.fa_hat:.4f} <= {row.fa_bound:.4f}")
    elapsed = time.perf_counter() - t0
    print("criterion 11 PASS " + "; ".join(cells) + f" ({elapsed:.1f} s)")
