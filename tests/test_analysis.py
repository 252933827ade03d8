"""Rate functions, conversion factors, composite error exponents."""

import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from quantloc import (
    DetectorConfig,
    DomainError,
    AttackAssignment,
    ExperimentPlan,
    GaussianNoise,
    InvalidScenario,
    Mima,
    Point,
    PsiOffset,
    SensorSpec,
    bernoulli_kl,
    build_paper_setup,
    composite_exponents,
    no_attacks,
    prob_zero,
)
from quantloc.analysis import _sensor_rates
from quantloc.scenario import _over_density

KL_06_05 = 0.0201355135506888734205
KL_07_05 = 0.0822828785050518463915
XI_REF = 413273.13541224929384
PHI_M1 = 0.158655253931457051414


def _kl(a: float, b: float) -> float:
    """Bernoulli relative entropy, the independent form of every rate."""
    return a * math.log(a / b) + (1.0 - a) * math.log((1.0 - a) / (1.0 - b))


def test_rates_match_frozen_relative_entropies():
    assert bernoulli_kl(0.6, 0.5) == pytest.approx(KL_06_05, abs=1e-15)
    assert bernoulli_kl(0.7, 0.5) == pytest.approx(KL_07_05, abs=1e-15)
    assert bernoulli_kl(0.3, 0.5) == pytest.approx(KL_07_05, abs=1e-15)
    rates = _sensor_rates(0.5, 0.2, 0.3, 0.7)
    assert rates.eta1 == pytest.approx(KL_07_05, abs=1e-15)
    assert rates.eta2 == pytest.approx(KL_07_05, abs=1e-15)
    assert rates.eta_eps_lower == pytest.approx(KL_07_05, abs=1e-15)
    assert rates.eta_eps_upper == pytest.approx(KL_07_05, abs=1e-15)


def test_rates_equal_relative_entropy_on_a_grid():
    for i in range(1, 10):
        p = i / 10.0
        for k in range(1, 8):
            t = k / 20.0
            if p + t < 1.0:
                assert bernoulli_kl(p + t, p) == pytest.approx(_kl(p + t, p), abs=1e-12)
            if t < p:
                assert bernoulli_kl(p - t, p) == pytest.approx(_kl(p - t, p), abs=1e-12)
    assert bernoulli_kl(0.15, 0.4) == pytest.approx(_kl(0.15, 0.4), abs=1e-13)
    assert bernoulli_kl(0.75, 0.4) == pytest.approx(_kl(0.75, 0.4), abs=1e-13)


def test_rate_boundary_conventions():
    assert bernoulli_kl(0.3 + 0.71, 0.3) == math.inf
    assert bernoulli_kl(1.0, 0.3) == pytest.approx(-math.log(0.3), abs=1e-14)
    assert bernoulli_kl(0.3, 0.3) == 0.0
    assert bernoulli_kl(0.3 - 0.31, 0.3) == math.inf
    assert bernoulli_kl(0.0, 0.3) == pytest.approx(-math.log(0.7), abs=1e-14)
    assert bernoulli_kl(math.inf, 0.3) == math.inf
    assert bernoulli_kl(-math.inf, 0.3) == math.inf
    # a frequency within rounding of 0 or 1 stays finite and continuous
    assert bernoulli_kl(5e-324, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)
    assert bernoulli_kl(1.0 - 2.0**-53, 1e-3) == pytest.approx(
        -math.log(1e-3), rel=1e-12
    )


def test_rate_domain_checks():
    for p in (0.0, 1.0, -0.1, 1.1, math.nan):
        with pytest.raises(DomainError):
            bernoulli_kl(0.5, p)
    with pytest.raises(DomainError):
        bernoulli_kl(math.nan, 0.5)
    # escapes must be genuine deviations from the mean
    for eps_l, eps_u in ((0.5, 0.7), (0.3, 0.5), (0.0, 0.7), (0.3, 1.0)):
        with pytest.raises(DomainError):
            _sensor_rates(0.5, 0.1, eps_l, eps_u)


def test_rates_increase_with_deviation():
    prev = 0.0
    for t in (0.05, 0.1, 0.2, 0.3, 0.4):
        cur = bernoulli_kl(0.5 + t, 0.5)
        assert cur > prev
        prev = cur


def _kl_decimal(q: float, p: float) -> Decimal:
    """D(q || p) at the exact binary values of q and p, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        qd, pd = Decimal(q), Decimal(p)
        out = Decimal(0)
        if qd > 0:
            out += qd * (qd / pd).ln()
        if qd < 1:
            out += (1 - qd) * ((1 - qd) / (1 - pd)).ln()
        return out


@pytest.mark.parametrize("scale", [1 / 25, 1.0], ids=["scale_1_25", "full_scale"])
def test_bernoulli_kl_matches_decimal_oracle_on_the_benchmark(scale):
    """Every (q, p) composite_exponents forms, to 1e-12 relative.

    At delta = 0.01 the deviation t is about 1e-8, where a form that
    subtracts the two terms of the divergence loses half its digits.
    """
    s, assignment = build_paper_setup(scale=scale)
    c = s.constants()
    for delta in (0.01, 0.1, 1.0, 5.0, 260.0, 280.0, 300.0, 320.0):
        report = composite_exponents(s, assignment, DetectorConfig(delta=delta))
        worst = 0.0
        for sensor in s.sensors:
            j = sensor.id
            p = prob_zero(s, j)
            row = c.row(j)
            eps_l, eps_u = row.eps_l, row.eps_u
            t = delta / (2.0 * row.xi)
            probs = [(p, report.plain[j])]
            if not sensor.secure:
                tp = assignment.spec_for(j).shift(p, sensor.noise)
                probs.append((tp, report.tilde[j]))
            for pp, rates in probs:
                qs = (pp + t, pp - t, eps_l, eps_u)
                for q, rate in zip(qs, rates):
                    assert rate == bernoulli_kl(q, pp)
                    exact = _kl_decimal(q, pp)
                    worst = max(worst, float(abs(Decimal(rate) - exact) / exact))
        assert worst <= 1e-12, (delta, worst)


def test_composite_exponents_reject_attacks_leaving_the_bracket(toy_scenario):
    s = toy_scenario
    cfg = DetectorConfig(delta=5.0)
    p = prob_zero(s, 1)
    row = s.constants().row(1)
    eps_l, eps_u = row.eps_l, row.eps_u
    for offset in (eps_u - p + 1e-3, eps_l - p - 1e-3):
        with pytest.raises(DomainError):
            composite_exponents(s, AttackAssignment(specs={1: PsiOffset(offset)}), cfg)
    inside = AttackAssignment(specs={1: PsiOffset(0.5 * (eps_u - p))})
    assert composite_exponents(s, inside, cfg).miss_exponents[1] > 0.0


def test_an_attack_leaving_the_bracket_is_named_with_its_sensor(toy_scenario):
    spec = Mima(0.0, 0.9)
    assignment = AttackAssignment(specs={1: spec})
    with pytest.raises(
        DomainError,
        match=r"^sensor 1 under Mima\(psi0=0\.0, psi1=0\.9\): need 0 < eps_l < p < eps_u < 1, got ",
    ):
        composite_exponents(toy_scenario, assignment, DetectorConfig(delta=5.0))


def test_epsilon_bracket_interpolates(toy_scenario):
    s = toy_scenario
    row = s.constants().row(1)
    f_tau = float(s.sensor(1).noise.cdf(1.0))
    assert row.eps_l == 0.5 * row.rho_l
    assert row.eps_u == 0.5 * row.rho_u + 0.5 * f_tau


def _xi_at(s, eps_l, eps_u):
    """Xi of a tau = 1 sensor with s's standard normal noise at the given
    frequency bracket, the inf of the density taken at its ends."""
    g = s.sensor(1).noise
    x_l, x_u = g.inv_cdf(eps_l), g.inv_cdf(eps_u)
    inf_f = min(g.density(x_l), g.density(x_u))
    return _over_density(s, 1.0, np.array([1.0 - x_u]), np.array([inf_f]))[0]


def test_xi_factor_frozen_value(ref_scenario):
    s = ref_scenario
    assert s.sensor(1).threshold == 1.0
    assert _xi_at(s, PHI_M1, 0.5) == pytest.approx(XI_REF, rel=1e-14)
    doubled = _xi_at(replace(s, d0=2e5), PHI_M1, 0.5)
    assert doubled == pytest.approx(2.0 * XI_REF, rel=1e-14)


def _with_thresholds_and_a_far_sensor(s, tau, x):
    sensors = tuple(replace(sensor, threshold=tau) for sensor in s.sensors)
    return replace(s, sensors=sensors + (SensorSpec(9, Point(x, 0.0), tau, GaussianNoise()),))


def test_xi_factor_domain_checks(toy_scenario):
    """The frequency bracket may not reach the threshold probability.

    At tau = 1.3, a sensor 2^26 times d0 out puts tau minus the farthest
    power at 1.2999999999999998, where rho_U is the double below F(tau);
    F(tau)'s last bit is even, so their midpoint eps_U rounds up to F(tau).
    """
    s = _with_thresholds_and_a_far_sensor(toy_scenario, 1.3, toy_scenario.d0 * 2.0**26)
    with pytest.raises(DomainError, match=r"^eps_u = 0\.9031995154143897 must stay below F"):
        s.constants()
    # here eps_U stays the double below F(tau), but F^{-1}(eps_U) rounds
    # onto tau, where Xi's power of tau - F^{-1}(eps_U) would divide by 0
    s = _with_thresholds_and_a_far_sensor(toy_scenario, 0.8095868204375698, 1e10)
    with pytest.raises(DomainError, match=r"must stay below F\(tau\) = 0\.7909111573056079;"):
        s.constants()
    # an unordered probability bracket is caught before it reaches Xi
    far = replace(s.sensors[-1], noise=GaussianNoise(-50.0))
    with pytest.raises(InvalidScenario, match="for sensor 9:"):
        replace(s, sensors=s.sensors[:-1] + (far,)).constants()


def test_composite_exponents_clean(toy_scenario):
    s = toy_scenario
    cfg = DetectorConfig(delta=5.0)
    report = composite_exponents(s, no_attacks(), cfg)
    assert report.delta == 5.0
    assert set(report.plain) == {1, 2, 3, 4}
    assert set(report.tilde) == {1, 2}
    assert report.secure_ids == (3, 4)
    assert report.attacked_ids == ()
    # without attacks the shifted rates are literally the plain ones
    for j in (1, 2):
        assert report.tilde[j] is report.plain[j]
    assert report.miss_exponent is None
    assert report.miss_bound(1000) is None
    assert report.fa_exponent == min(report.fa_exponents.values())
    assert report.err_exponent <= report.fa_exponent
    k = 50_000
    assert report.fa_bound(k) == pytest.approx(
        12.0 * math.exp(-report.fa_exponent * k), rel=1e-15
    )
    for j in (1, 2):
        raw = report.raw_fa_bound(j, k)
        assert 0.0 < raw <= 12.0 * math.exp(-report.fa_exponents[j] * k) * (
            1.0 + 1e-12
        )
        assert report.raw_miss_bound(j, k) == raw


def test_composite_exponents_under_attack(toy_scenario):
    s = toy_scenario
    cfg = DetectorConfig(delta=5.0)
    assignment = AttackAssignment(specs={1: Mima(0.0, 0.2)})
    report = composite_exponents(s, assignment, cfg)
    assert report.attacked_ids == (1,)
    assert report.tilde[1] is not report.plain[1]
    assert report.tilde[2] is report.plain[2]
    assert report.fa_exponent == report.fa_exponents[2]
    assert report.miss_exponent == report.miss_exponents[1]
    assert report.err_exponent == min(
        report.fa_exponents[1],
        report.miss_exponents[1],
        report.fa_exponents[2],
        report.miss_exponents[2],
    )
    # a flip channel that happens to preserve p shifts nothing
    null_attack = AttackAssignment(specs={1: Mima(0.0, 0.0)})
    null_report = composite_exponents(s, null_attack, cfg)
    assert null_report.attacked_ids == (1,)
    assert null_report.tilde[1] is null_report.plain[1]
    assert null_report.miss_exponent is not None


def test_composite_exponents_all_attacked(toy_scenario):
    assignment = AttackAssignment(
        specs={1: Mima(0.0, 0.2), 2: Mima(0.2, 0.0)}
    )
    report = composite_exponents(toy_scenario, assignment, DetectorConfig(delta=5.0))
    assert report.fa_exponent == math.inf
    assert report.fa_bound(1000) == 0.0
    assert report.miss_exponent is not None


def test_composite_exponents_grow_with_delta(toy_scenario):
    small = composite_exponents(toy_scenario, no_attacks(), DetectorConfig(delta=1.0))
    large = composite_exponents(toy_scenario, no_attacks(), DetectorConfig(delta=5.0))
    assert small.fa_exponent < large.fa_exponent


def test_rate_table_rendering(toy_scenario):
    report = composite_exponents(
        toy_scenario, no_attacks(), DetectorConfig(delta=5.0)
    )
    table = report.to_table((100, 1000))
    lines = table.strip().split("\n")
    assert lines[0].split("\t") == [
        "sensor_id",
        "eta0",
        "eta1",
        "fa_bound_K100",
        "fa_bound_K1000",
        "miss_bound_K100",
        "miss_bound_K1000",
    ]
    assert len(lines) == 3
    assert lines[1].startswith("1\t")


@pytest.mark.parametrize(
    "grid, message",
    [
        ((10.5,), r"^k_grid\[0\] must be an integer, got 10\.5$"),
        ((100, "200"), r"^k_grid\[1\] must be an integer, got '200'$"),
        ((100, 0), r"^k_grid entries must be >= 1: k_grid\[1\] must be >= 1, got 0$"),
        ((10**400,), r"^k_grid\[0\] must be finite, got an integer past the float range$"),
        (100, r"^k_grid must be a sequence, got 100$"),
    ],
    ids=["float", "str", "zero", "huge", "scalar"],
)
def test_the_rate_table_and_the_plan_check_a_k_grid_alike(toy_scenario, grid, message):
    report = composite_exponents(toy_scenario, no_attacks(), DetectorConfig(delta=5.0))
    with pytest.raises(DomainError, match=message):
        report.to_table(grid)
    with pytest.raises(DomainError, match=message):
        ExperimentPlan(
            toy_scenario, no_attacks(), DetectorConfig(delta=5.0), grid, trials=1, base_seed=0
        )
    assert report.to_table(np.array([100, 1000])) == report.to_table((100, 1000))
