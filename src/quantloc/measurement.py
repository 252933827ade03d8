"""Observation pipeline: signals, one-bit quantization, distance estimation.

The received sample at sensor j is s_jk = p0 (d0 / D_j)^gamma + n_jk with
Gaussian noise n_jk; the sensor forwards u_jk = 1{s_jk > tau_j}, open at
tau_j (``quantize``).  The zero-bit probability is F_j(tau_j - power),
``SensorSpec.zero_prob``, and tends to F_j(tau_j) as the target recedes.
From the zero-bit fraction xi (``QuantizedDataset.freq``) the fusion
center inverts that map to the naive maximum-likelihood distance estimate

    D_hat = d0 * p0^(1/gamma) * (tau_j - F_j^{-1}(xi))^(-1/gamma),

"naive" because it presumes no attack; under an attack shifting the
zero-probability to tp, the estimate converges to the same formula
evaluated at tp (``attacked_distance``).  ``nmle_distances`` is the same
estimator over every unsecure sensor at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError
from .noise import _index, is_finite, ndtri, shown
from .rng import NOISE_STREAM, Entropy, _normalize, make_generator
from .scenario import ScenarioConfig, SensorSpec

__all__ = [
    "QuantizedDataset",
    "EmpiricalFreq",
    "DistanceEstimate",
    "sample_signal",
    "quantize",
    "prob_zero",
    "nmle_distance",
    "nmle_distances",
    "attacked_distance",
]


@dataclass(frozen=True)
class EmpiricalFreq:
    """Zero-bit count over a K-bit record; xi = zeros / K exactly."""

    zeros: int
    k_samples: int

    def __post_init__(self) -> None:
        if self.k_samples < 1 or not (0 <= self.zeros <= self.k_samples):
            raise DomainError(
                f"bad empirical frequency: {self.zeros} zeros of {self.k_samples}"
            )

    @property
    def xi(self) -> float:
        return self.zeros / self.k_samples


class PackedBits(Mapping[int, np.ndarray]):
    """Bit records packed eight to the byte, MSB first, one row each, with
    the padding bits past K zero.  A record unpacks only when read."""

    def __init__(self, ids: Sequence[int], packed: np.ndarray, k: int) -> None:
        self.rows, self.k = dict(zip(ids, range(len(ids)))), k
        # Rows padded to whole 64-bit words: one popcount per word leaves an
        # eighth of the counts to add up.
        words = np.zeros((len(packed), -(-packed.shape[1] // 8)), dtype=np.uint64)
        self.packed = words.view(np.uint8)
        self.packed[:, : packed.shape[1]] = packed
        self.ones = np.bitwise_count(words).sum(axis=1, dtype=np.int64)

    def __getitem__(self, sensor_id: int) -> np.ndarray:
        return np.unpackbits(self.packed[self.rows[sensor_id]], count=self.k)

    def __iter__(self) -> Iterator[int]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, eq=False)
class QuantizedDataset:
    """Per-sensor bit records of common length K, as (K,) arrays of 0/1 or
    as ``PackedBits``.  Equal by value, packed or not; unhashable.  Seed and
    trial index are kept mod 2^64 as Python ints, as the streams key them."""

    bits: Mapping[int, np.ndarray]
    k: int
    rng_seed: int
    trial_index: int = 0

    def __post_init__(self) -> None:
        seed, trial = _normalize((self.rng_seed, self.trial_index))
        object.__setattr__(self, "rng_seed", seed)
        object.__setattr__(self, "trial_index", trial)
        if isinstance(self.bits, PackedBits):
            return  # rows of ceil(K / 8) bytes unpack to K bits
        for sid, arr in self.bits.items():
            if arr.shape != (self.k,):
                raise DomainError(
                    f"sensor {sid} record has length {arr.shape}, expected ({self.k},)"
                )

    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantizedDataset):
            return NotImplemented
        head = (self.k, self.rng_seed, self.trial_index, self.bits.keys())
        if head != (other.k, other.rng_seed, other.trial_index, other.bits.keys()):
            return False
        return all(np.array_equal(self.bits[sid], other.bits[sid]) for sid in self.bits)

    def freq(self, sensor_id: int) -> EmpiricalFreq:
        """Zero count of one record, taken as ``zero_counts`` takes it."""
        return EmpiricalFreq(zeros=int(self.zero_counts((sensor_id,))[0]), k_samples=self.k)

    def zero_counts(self, sensor_ids) -> np.ndarray:
        """Zero counts of several records, in order: K minus a popcount of
        packed rows, or minus ``np.count_nonzero`` of in-memory arrays.

        Raises KeyError with the first id that has no record.
        """
        if isinstance(self.bits, PackedBits):
            ones = self.bits.ones[[self.bits.rows[sid] for sid in sensor_ids]]
        else:
            ones = np.array([np.count_nonzero(self.bits[sid]) for sid in sensor_ids], np.int64)
        return self.k - ones if ones.size else ones  # with no ids, K may pass int64


def sample_signal(
    s: ScenarioConfig, j: int, k: int, seed: Entropy
) -> np.ndarray:
    """K raw samples at sensor j: signal mean plus i.i.d. noise.

    The noise stream is keyed by (seed..., NOISE_STREAM, j), so sensors are
    independent, a given (seed, j) always reproduces the same sequence, and
    shorter records are prefixes of longer ones.
    """
    k = _index(k, "k")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    noise = s.sensor(j).noise
    entropy = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    rng = make_generator((*entropy, NOISE_STREAM, j))
    z = rng.standard_normal(k)
    z *= noise.scale
    z += s.signal_mean(j) + noise.location
    return z


def quantize(s: ScenarioConfig, j: int, samples: np.ndarray) -> np.ndarray:
    """One-bit quantizer: 1 when the sample exceeds the threshold.

    The comparison is strict, so a sample exactly at the threshold maps
    to 0.
    """
    tau = s.sensor(j).threshold
    return (np.asarray(samples) > tau).view(np.uint8)


def prob_zero(s: ScenarioConfig, j: int) -> float:
    """Probability of a zero bit at sensor j for the scenario's target."""
    return s.sensor(j).zero_prob(s.signal_mean(j))


@dataclass(frozen=True)
class DistanceEstimate:
    """A distance estimate plus whether the frequency had to be clamped."""

    value: float
    clamped: bool
    xi_used: float

    def __float__(self) -> float:
        return self.value


def _clamp(xi, xi_min: float, f_tau):
    """The estimator's clamp, elementwise: (xi used, whether xi was moved).

    xi goes into [xi_min, F(tau) - xi_min]; where that interval is empty, xi
    is pinned to F(tau)/2.  Floats and arrays take the same float steps; a
    float (an anchor's estimate) stays in Python floats, at a twentieth of
    the cost of numpy's 0-d calls.
    """
    lo, hi = xi_min, f_tau - xi_min
    if type(xi) is float:
        if lo > hi:
            lo = hi = f_tau / 2.0
        return min(max(xi, lo), hi), not lo <= xi <= hi
    collapsed = lo > hi
    lo = np.where(collapsed, f_tau / 2.0, lo)
    hi = np.where(collapsed, f_tau / 2.0, hi)
    return np.minimum(np.maximum(xi, lo), hi), ~((lo <= xi) & (xi <= hi))


def _distance(s: ScenarioConfig, base: float) -> float:
    """d0 * (p0 / base)^(1/gamma), base = tau - F^{-1}(xi): the inversion's last step."""
    return s.d0 * (s.p0 / base) ** (1.0 / s.gamma)


def _invert(s: ScenarioConfig, sensor: SensorSpec, prob: float) -> float:
    return _distance(s, sensor.threshold - sensor.noise.inv_cdf(prob))


def nmle_distance(
    s: ScenarioConfig, j: int, xi: EmpiricalFreq | float
) -> DistanceEstimate:
    """Naive-MLE distance from a zero-bit frequency.

    The estimator is undefined at xi = 0 and xi >= F_j(tau_j), so xi is
    clamped into [xi_min, F_j(tau_j) - xi_min] first, with xi_min = 1/(2K)
    (a half count) for an ``EmpiricalFreq`` and 1e-12 for a bare float.  A
    record so short that the interval collapses (K = 1 with a low
    threshold, say) pins xi to F_j(tau_j)/2.  The clamp is reported, not
    raised: a clamped estimate is wildly wrong and drives the geometric test
    toward "attacked", which is the right failure mode.

    ``detect_all`` calls this for the two anchors only; ``nmle_distances``
    estimates the unsecure sensors with the same clamp and the same float
    steps, so its values and flags are identical to this function's.
    """
    if isinstance(xi, EmpiricalFreq):
        value, xi_min = xi.xi, 1.0 / (2.0 * xi.k_samples)
    elif is_finite(xi):
        value, xi_min = float(xi), 1e-12
    else:
        raise DomainError(f"xi must be a finite frequency, got {shown(xi)}")
    sensor = s.sensor(j)
    used, clamped = _clamp(value, xi_min, sensor.zero_prob())
    used = float(used)
    return DistanceEstimate(_invert(s, sensor, used), bool(clamped), used)


def nmle_distances(
    s: ScenarioConfig, zeros: np.ndarray, k: int
) -> tuple[list[float], list[bool]]:
    """``nmle_distance`` of every unsecure sensor at once, in ``s.unsecure()`` order.

    ``zeros`` holds each sensor's zero count out of K bits.  One clamp, one
    ``ndtri`` and one inversion cover them all, with the scenario's
    per-sensor constants resolved at construction.  Every value and clamp
    flag equals ``nmle_distance(s, j, EmpiricalFreq(zeros_j, k))`` bit for
    bit.  The final step inlines ``_distance``, with Python's float power
    per element: numpy's vectorized power can differ from it in the last
    bit (about 5 % of inputs on an AVX-512 host).
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    arrays = s.unsecure_arrays()
    used, clamped = _clamp(np.asarray(zeros) / k, 1.0 / (2.0 * k), arrays.f_tau)
    x = ndtri(used) * arrays.scale + arrays.location
    if not np.isfinite(x).all():
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise DomainError(
            f"quantile argument must lie in (0, 1), got {used[bad]} "
            f"for sensor {s.unsecure()[bad].id}"
        )
    d0, p0, power = s.d0, s.p0, 1.0 / s.gamma
    return [d0 * (p0 / base) ** power for base in (arrays.threshold - x).tolist()], clamped.tolist()


def attacked_distance(s: ScenarioConfig, j: int, tp: float) -> float:
    """Asymptotic estimate when the zero-probability is shifted to tp.

    This is the no-clamp inversion; tp must lie strictly inside
    (0, F_j(tau_j)).
    """
    sensor = s.sensor(j)
    f_tau = sensor.zero_prob()
    if not (0.0 < tp < f_tau):
        raise DomainError(
            f"shifted probability {tp} outside (0, {f_tau}) for sensor {j}"
        )
    return _invert(s, sensor, tp)
