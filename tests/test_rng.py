"""The keyed streams draw the distribution the model says, whatever bit
generator is behind them.

Every seeded number the package reports moves when the bit generator does,
so these tests pin the law instead: across many seeded trials the zero
counts are Binomial(K, shift(p)) for every variant, and a sensor's attack
draws are independent of its noise draws.
"""

import math
import re

import numpy as np
import pytest
from scipy.stats import binom, chi2

from quantloc import (
    AttackAssignment,
    DomainError,
    Mima,
    NoAttack,
    PsiOffset,
    SpoofBias,
    generate_dataset,
    make_generator,
    no_attacks,
    prob_zero,
    sample_signal,
)

K = 40
TRIALS = 300
SEED = 20261019

VARIANTS = {
    "none": NoAttack(),
    "mima": Mima(0.1, 0.2),
    "offset": PsiOffset(0.05),
    "spoof": SpoofBias(0.5),
}


def _zero_counts(s, spec) -> dict[int, np.ndarray]:
    """Per sensor, its zero count in each of TRIALS seeded trials at K."""
    assignment = AttackAssignment(specs={1: spec, 2: spec})
    counts = {j: np.empty(TRIALS, dtype=np.int64) for j in (1, 2, 3, 4)}
    for t in range(TRIALS):
        data = generate_dataset(s, assignment, K, SEED, trial_index=t)
        for j in counts:
            counts[j][t] = K - int(data.bits[j].sum())
    return counts


def _chi2_sf(counts: np.ndarray, q: float) -> float:
    """Chi-square p-value of a count histogram against Binomial(K, q), with
    neighbouring cells merged until each expects at least 5."""
    observed = np.bincount(counts, minlength=K + 1).astype(float)
    expected = binom.pmf(np.arange(K + 1), K, q) * counts.size
    obs_cells, exp_cells = [], []
    o = e = 0.0
    for oi, ei in zip(observed, expected):
        o, e = o + oi, e + ei
        if e >= 5.0:
            obs_cells.append(o)
            exp_cells.append(e)
            o = e = 0.0
    obs_cells[-1] += o  # the upper tail left over joins the last cell
    exp_cells[-1] += e
    obs_cells, exp_cells = np.array(obs_cells), np.array(exp_cells)
    stat = float(((obs_cells - exp_cells) ** 2 / exp_cells).sum())
    return float(chi2.sf(stat, obs_cells.size - 1))


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_zero_counts_are_binomial_at_the_shifted_probability(toy_scenario, name):
    s = toy_scenario
    spec = VARIANTS[name]
    counts = _zero_counts(s, spec)
    for j, c in counts.items():
        sensor = s.sensor(j)
        p = prob_zero(s, j)
        q = spec.shift(p, sensor.noise) if j in (1, 2) else p
        se = math.sqrt(K * q * (1.0 - q) / TRIALS)
        assert abs(c.mean() - K * q) < 4.0 * se, (name, j, c.mean(), K * q)
    # sensors 1 and 2 sit symmetrically about the target, so they share q
    p = prob_zero(s, 1)
    q = spec.shift(p, s.sensor(1).noise)
    pooled = np.concatenate([counts[1], counts[2]])
    assert _chi2_sf(pooled, q) > 1e-3, name


def test_attack_draws_are_independent_of_the_noise_draws(toy_scenario):
    """For one (seed, trial, sensor) key, which bits the flip channel hits
    says nothing about the sample each bit came from.

    Records are short because a shared stream would show mostly at its
    start: a normal draw that rejects takes extra words, and after that
    the two sequences no longer line up word for word.
    """
    s = toy_scenario
    psi, k = 1.0 / 32.0, 16
    attacked = AttackAssignment(specs={1: Mima(psi, psi)})
    samples, flips = [], []
    for t in range(2000):
        clean = generate_dataset(s, no_attacks(), k, SEED, trial_index=t).bits[1]
        hit = generate_dataset(s, attacked, k, SEED, trial_index=t).bits[1]
        samples.append(sample_signal(s, 1, k, (SEED, t)) - s.signal_mean(1))
        flips.append(clean ^ hit)
    z = np.concatenate(samples)
    f = np.concatenate(flips).astype(float)
    assert f.mean() == pytest.approx(psi, abs=4.0 * math.sqrt(psi * (1 - psi) / f.size))
    bound = 4.0 / math.sqrt(f.size)  # 4 SE of a sample correlation at zero
    for feature in (z, np.abs(z)):
        r = np.corrcoef(feature, f)[0, 1]
        assert abs(r) < bound, r


@pytest.mark.parametrize("entropy", [7.5, "7", (7, 0.5), (7, None)])
def test_an_entropy_that_is_not_integers_is_named(entropy):
    with pytest.raises(DomainError, match=f"sequence of integers, got {re.escape(repr(entropy))}$"):
        make_generator(entropy)


def test_an_integer_entropy_is_taken_mod_two_to_the_64():
    draw = make_generator((2**64 - 1, 3)).random(4)
    for same in ((-1, 3), (np.uint64(2**64 - 1), np.int8(3)), np.array([-1, 3])):
        np.testing.assert_array_equal(make_generator(same).random(4), draw)
    np.testing.assert_array_equal(make_generator(np.int64(5)).random(4), make_generator(5).random(4))
