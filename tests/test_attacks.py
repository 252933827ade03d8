"""Attack channels: probability law, bit-domain action, classification."""

import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from quantloc import (
    AttackAssignment,
    AttackSpec,
    DomainError,
    GaussianNoise,
    InvalidScenario,
    Mima,
    NoAttack,
    PsiOffset,
    SpoofBias,
    VariantMismatch,
    apply_attack,
    bernoulli_kl,
    build_paper_setup,
    check_significant,
    check_subtle,
    nmle_distance,
    no_attacks,
)
from quantloc.rng import make_generator

PHI_M3 = 0.00134989803163009452665
PHI_075 = 0.773372647623131800672
PHI_M1 = 0.158655253931457051414
PHI_05 = 0.691462461274013103637


def test_spec_validation():
    with pytest.raises(DomainError):
        Mima(-0.1, 0.0)
    with pytest.raises(DomainError):
        Mima(0.0, 1.1)
    with pytest.raises(DomainError):
        PsiOffset(math.inf)
    with pytest.raises(DomainError):
        SpoofBias(math.nan)
    assert not NoAttack().is_attack
    assert Mima(0.0, 0.0105).is_attack
    assert PsiOffset(0.01).is_attack
    assert SpoofBias(1.0).is_attack


@pytest.mark.parametrize(
    ("cls", "params", "variant"),
    [
        (AttackSpec, (), "none"),
        (NoAttack, (), "none"),
        (Mima, ("psi0", "psi1"), "mima"),
        (PsiOffset, ("offset",), "psi_offset"),
        (SpoofBias, ("bias",), "spoof_bias"),
    ],
)
def test_a_variant_is_a_class_constant_not_a_field(cls, params, variant):
    assert tuple(f.name for f in fields(cls)) == params
    spec = cls(*(0.1 for _ in params))
    assert cls.variant == spec.variant == variant
    assert repr(spec) == f"{cls.__name__}({', '.join(f'{p}=0.1' for p in params)})"


def test_flip_channel_probability_law():
    assert Mima(0.0, 0.0105).shift(0.5) == pytest.approx(0.50525, abs=1e-15)
    assert Mima(0.0, 0.0105).psi(0.5) == pytest.approx(0.00525, abs=1e-15)
    # symmetric flips cancel at p = 1/2
    assert Mima(0.2, 0.2).psi(0.5) == pytest.approx(0.0, abs=1e-15)
    # always-flip channels land on the opposite constant
    assert Mima(1.0, 0.0).shift(0.5) == 0.0
    assert Mima(0.0, 1.0).shift(0.5) == 1.0
    assert NoAttack().shift(0.37) == 0.37
    assert NoAttack().psi(0.37) == 0.0


def test_shift_and_psi_domain_checks():
    """Every variant's shift and psi take only a probability p in [0, 1]."""
    specs = (AttackSpec(), NoAttack(), Mima(0.0, 0.1), PsiOffset(0.0), SpoofBias(0.5))
    for spec in specs:
        for method in (spec.shift, spec.psi):
            for p in (-0.01, 1.01, math.nan):
                with pytest.raises(DomainError, match=rf"^p = {p} outside \[0, 1\]$"):
                    method(p, GaussianNoise())
    with pytest.raises(DomainError):
        PsiOffset(0.6).shift(0.5)
    assert PsiOffset(-0.2).shift(0.5) == pytest.approx(0.3)
    assert PsiOffset(-0.2).psi(0.5) == -0.2


def test_impossible_offset_is_neither_psi_nor_significant(toy_scenario):
    # p + offset = 1.1 cannot happen: psi and check_significant raise, as
    # shift does, instead of reporting a distortion of 0.6
    with pytest.raises(DomainError):
        PsiOffset(0.6).psi(0.5)
    # sensor 1's p is 0.533 at the target, so an offset of 0.6 leaves [0, 1]
    s = replace(toy_scenario, kappa=0.01)
    with pytest.raises(DomainError):
        check_significant(s, 1, PsiOffset(0.6))
    assert check_significant(s, 1, PsiOffset(0.4))


def test_spoof_bias_probability_chain():
    noise = GaussianNoise()
    tp = SpoofBias(1.5).shift(PHI_05, noise)
    assert tp == pytest.approx(PHI_M1, abs=1e-14)
    assert SpoofBias(1.5).psi(PHI_05, noise) == pytest.approx(PHI_M1 - PHI_05, abs=1e-14)
    with pytest.raises(DomainError):
        SpoofBias(1.5).shift(0.5)
    # a saturated quantizer is immune to any finite bias
    assert SpoofBias(100.0).shift(0.0, noise) == 0.0
    assert SpoofBias(100.0).shift(1.0, noise) == 1.0


def test_apply_attack_variants_and_determinism():
    bits = np.array([0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8)
    noop = apply_attack(NoAttack(), bits, seed=1)
    np.testing.assert_array_equal(noop, bits)
    assert noop is not bits
    a = apply_attack(Mima(0.3, 0.4), bits, seed=1)
    b = apply_attack(Mima(0.3, 0.4), bits, seed=1)
    np.testing.assert_array_equal(a, b)
    for bad in (PsiOffset(0.01), SpoofBias(1.0)):
        with pytest.raises(VariantMismatch):
            apply_attack(bad, bits, seed=1)


def test_apply_attack_accepts_numpy_integer_seed():
    bits = np.array([0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8)
    np.testing.assert_array_equal(
        apply_attack(Mima(0.3, 0.4), bits, seed=np.int64(1)),
        apply_attack(Mima(0.3, 0.4), bits, seed=1),
    )


def test_apply_attack_rejects_a_seed_that_is_not_an_integer():
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    for seed in (7.5, (7, 0.5), "7"):
        with pytest.raises(DomainError, match="integers, got"):
            apply_attack(Mima(0.3, 0.4), bits, seed=seed)


def test_apply_attack_flip_rate_matches_probability():
    k = 100_000
    ones = np.ones(k, dtype=np.uint8)
    flipped = apply_attack(Mima(0.0, 0.3), ones, seed=42)
    rate = 1.0 - flipped.mean()
    assert rate == pytest.approx(0.3, abs=4.0 * math.sqrt(0.3 * 0.7 / k))
    zeros = np.zeros(k, dtype=np.uint8)
    raised = apply_attack(Mima(0.2, 0.0), zeros, seed=42)
    assert raised.mean() == pytest.approx(0.2, abs=4.0 * math.sqrt(0.2 * 0.8 / k))


def test_apply_attack_flips_nest_monotonically_in_psi1():
    k = 50_000
    ones = np.ones(k, dtype=np.uint8)
    weak = apply_attack(Mima(0.0, 0.1), ones, seed=9)
    strong = apply_attack(Mima(0.0, 0.25), ones, seed=9)
    # every bit flipped at psi1 = 0.1 is also flipped at psi1 = 0.25
    assert np.all(strong[weak == 0] == 0)
    assert (strong == 0).sum() > (weak == 0).sum()


def test_apply_attack_flips_each_bit_below_its_own_psi():
    # reference: bit b flips where its uniform falls below psi_b
    bits = (np.random.default_rng(4).random(20_000) < 0.5).astype(np.uint8)
    u = make_generator((11,)).random(bits.size)
    expected = bits ^ (u < np.where(bits == 0, 0.3, 0.05)).astype(np.uint8)
    out = apply_attack(Mima(0.3, 0.05), bits, seed=11)
    assert out.dtype == np.uint8 and np.array_equal(out, expected)


def _channel_conditional(k, z, m, psi0, psi1):
    """P(m zeros after the channel | z zeros before), exact."""
    total = Fraction(0)
    for a in range(max(0, m - (k - z)), min(z, m) + 1):
        stay = (
            math.comb(z, a)
            * (1 - psi0) ** a
            * psi0 ** (z - a)
        )
        gain = (
            math.comb(k - z, m - a)
            * psi1 ** (m - a)
            * (1 - psi1) ** ((k - z) - (m - a))
        )
        total += stay * gain
    return total


@pytest.mark.parametrize("k", [1, 5, 9, 12])
def test_flip_channel_law_by_exact_enumeration(k):
    """Marginal zero-count after the channel is Binomial(K, p_tilde)."""
    p = Fraction(1, 3)
    psi0 = Fraction(1, 8)
    psi1 = Fraction(1, 16)
    tp = (1 - psi0 - psi1) * p + psi1
    for m in range(k + 1):
        marginal = Fraction(0)
        for z in range(k + 1):
            prior = math.comb(k, z) * p**z * (1 - p) ** (k - z)
            marginal += prior * _channel_conditional(k, z, m, psi0, psi1)
        expected = math.comb(k, m) * tp**m * (1 - tp) ** (k - m)
        assert marginal == expected


def test_check_subtle_bracket():
    s, _ = build_paper_setup(scale=0.004)
    assert check_subtle(s, 1, Mima(0.0, 0.0105))
    assert check_subtle(s, 1, NoAttack())
    assert check_subtle(s, 1, PsiOffset(-0.00529))
    assert not check_subtle(s, 1, PsiOffset(0.25))
    assert not check_subtle(s, 1, PsiOffset(-0.25))


def test_check_subtle_uses_the_documented_bracket():
    # the reference quantizer/noise give [Phi(-3), Phi(0.75)] at one sensor
    # placed at the reference distance; verified against frozen quantiles
    from conftest import random_scenario

    rng = np.random.default_rng(5)
    s = random_scenario(rng)
    j = s.unsecure()[0].id
    row = s.constants().row(j)
    rho_l, rho_u = row.rho_l, row.rho_u
    assert check_subtle(s, j, PsiOffset(0.0))
    p = float(
        s.sensor(j).noise.cdf(s.sensor(j).threshold - s.signal_mean(j))
    )
    # closed bracket: landing exactly on an endpoint still counts
    assert check_subtle(s, j, PsiOffset(rho_l - p))
    assert check_subtle(s, j, PsiOffset(rho_u - p))
    assert not check_subtle(s, j, PsiOffset(rho_u - p + 1e-9))


def test_reference_bracket_endpoints():
    s, _ = build_paper_setup(scale=0.004)
    row = s.constants().row(1)
    rho_l, rho_u = row.rho_l, row.rho_u
    assert 0.0013499 < rho_l < PHI_075
    assert rho_u < PHI_075
    assert rho_l > PHI_M3


def test_check_significant(toy_scenario):
    """kappa is the scenario's; p is sensor 1's at the target (0.533), where
    Mima(0, 0.016) moves it by 0.0075."""
    fine, coarse = replace(toy_scenario, kappa=0.005), replace(toy_scenario, kappa=0.01)
    assert check_significant(fine, 1, Mima(0.0, 0.016))
    assert not check_significant(coarse, 1, Mima(0.0, 0.016))
    # strict comparison at the boundary
    assert not check_significant(fine, 1, PsiOffset(0.005))
    assert not check_significant(fine, 1, NoAttack())
    # the spoofing bias reads the sensor's own noise model
    assert check_significant(coarse, 1, SpoofBias(0.5))


def test_attack_assignment(toy_scenario):
    assignment = AttackAssignment(
        specs={2: Mima(0.0, 0.1), 1: NoAttack()}
    )
    assert assignment.attacked_ids() == (2,)
    assert [j for j, _ in assignment] == [1, 2]
    assert assignment.spec_for(7) == NoAttack()
    assignment.validate_against(toy_scenario)
    with pytest.raises(InvalidScenario):
        AttackAssignment(specs={99: Mima(0.0, 0.1)}).validate_against(toy_scenario)
    with pytest.raises(InvalidScenario):
        AttackAssignment(specs={3: Mima(0.0, 0.1)}).validate_against(toy_scenario)
    # marking a secure sensor as explicitly unattacked is allowed
    AttackAssignment(specs={3: NoAttack()}).validate_against(toy_scenario)
    assert no_attacks().attacked_ids() == ()


@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["+", "-"])
@pytest.mark.parametrize(
    ("call", "field"),
    [
        (lambda s, big: PsiOffset(big), "offset"),
        (lambda s, big: SpoofBias(big), "bias"),
        (lambda s, big: nmle_distance(s, 1, big), "xi"),
        (lambda s, big: bernoulli_kl(big, 0.5), None),
    ],
    ids=["PsiOffset", "SpoofBias", "nmle_distance", "bernoulli_kl"],
)
def test_an_integer_past_the_float_range_is_caught(toy_scenario, call, field, huge):
    """Ints past the float range raise the package's error naming the field
    (numpy's isfinite and float() would raise TypeError and OverflowError);
    a Bernoulli frequency outside [0, 1] has infinite rate."""
    if field is None:
        assert call(toy_scenario, huge) == math.inf
    else:
        with pytest.raises(DomainError, match=rf"^{field} must be .*finite"):
            call(toy_scenario, huge)
