"""Adversary models: bit-flip channels, probability offsets, spoofing bias.

Every attack on a one-bit record is summarized by how it moves the
zero-probability: p -> p + Psi.  The bit-flip channel flips a 0 to 1 with
probability psi0 and a 1 to 0 with probability psi1, so

    p_tilde = (1 - psi0 - psi1) p + psi1,    Psi = psi1 - (psi0 + psi1) p.

A spoofing bias b added to the raw samples shifts the zero-probability to
F(F^{-1}(p) - b).  The offset variant prescribes Psi directly, which also
covers quantizer-tampering attacks: whatever the tampered quantizer does,
the fusion center only ever sees the resulting p_tilde.

Each variant carries its behaviour: ``shift`` maps p to p_tilde and
``psi`` gives Psi, both raising DomainError for p outside [0, 1], and
``bit_record`` turns a sensor's raw samples into its post-attack bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator, Mapping

import numpy as np

from .errors import DomainError, InvalidScenario, VariantMismatch
from .measurement import prob_zero, quantize
from .noise import GaussianNoise, is_finite, shown
from .rng import Entropy, make_generator
from .scenario import ScenarioConfig, SensorSpec

__all__ = [
    "AttackSpec",
    "NoAttack",
    "Mima",
    "PsiOffset",
    "SpoofBias",
    "AttackAssignment",
    "no_attacks",
    "apply_attack",
    "check_subtle",
    "check_significant",
]


def _checked(p: float) -> float:
    """p itself, once it is known to be a probability; DomainError otherwise."""
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p = {shown(p)} outside [0, 1]")
    return p


@dataclass(frozen=True)
class AttackSpec:
    """Base class; concrete variants carry their own parameters and behaviour.

    The base behaviour is the honest sensor's: p is unmoved, and the record
    is the plain threshold test of the raw samples.
    """

    variant: ClassVar[str] = "none"

    @property
    def is_attack(self) -> bool:
        return self.variant != "none"

    def shift(self, p: float, noise: GaussianNoise | None = None) -> float:
        """Zero-probability after the attack, from the clean zero-probability p.

        The spoofing variant needs the sensor's noise model to relocate the
        threshold crossing.
        """
        return _checked(p)

    def psi(self, p: float, noise: GaussianNoise | None = None) -> float:
        """The offset Psi = p_tilde - p; raises DomainError wherever ``shift`` does."""
        return self.shift(p, noise) - p

    def flip_probs(self) -> tuple[float, float]:
        """(psi0, psi1) of a bit-domain channel; other variants have none."""
        raise VariantMismatch(f"{self.variant} is not a bit-domain attack")

    def bit_record(
        self, samples: np.ndarray, s: ScenarioConfig, sensor: SensorSpec, seed: Entropy
    ) -> np.ndarray:
        """The sensor's post-attack bits from its raw samples.

        ``seed`` keys the sensor's attack stream, for variants that draw.
        """
        return quantize(s, sensor.id, samples)


@dataclass(frozen=True)
class NoAttack(AttackSpec):
    def flip_probs(self) -> tuple[float, float]:
        return 0.0, 0.0


@dataclass(frozen=True)
class Mima(AttackSpec):
    """Independent bit-flip channel: 0 -> 1 w.p. psi0, 1 -> 0 w.p. psi1."""

    variant: ClassVar[str] = "mima"
    psi0: float
    psi1: float

    def __post_init__(self) -> None:
        for name, value in (("psi0", self.psi0), ("psi1", self.psi1)):
            if not (0.0 <= value <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {shown(value)}")

    def shift(self, p: float, noise: GaussianNoise | None = None) -> float:
        tp = (1.0 - self.psi0 - self.psi1) * _checked(p) + self.psi1
        return min(max(tp, 0.0), 1.0)

    def flip_probs(self) -> tuple[float, float]:
        return self.psi0, self.psi1

    def bit_record(
        self, samples: np.ndarray, s: ScenarioConfig, sensor: SensorSpec, seed: Entropy
    ) -> np.ndarray:
        return apply_attack(self, super().bit_record(samples, s, sensor, seed), seed)


@dataclass(frozen=True)
class PsiOffset(AttackSpec):
    """Direct offset of the zero-probability: p -> p + offset.

    Realized exactly by moving the quantizer threshold to where the
    zero-probability is p + offset, so the same noise draws serve every
    offset.
    """

    variant: ClassVar[str] = "psi_offset"
    offset: float

    def __post_init__(self) -> None:
        if not is_finite(self.offset):
            raise DomainError(f"offset must be finite, got {shown(self.offset)}")

    def shift(self, p: float, noise: GaussianNoise | None = None) -> float:
        tp = _checked(p) + self.offset
        if not (0.0 <= tp <= 1.0):
            raise DomainError(
                f"offset {self.offset} pushes p = {p} to {tp}, outside [0, 1]"
            )
        return tp

    def psi(self, p: float, noise: GaussianNoise | None = None) -> float:
        self.shift(p)  # raises where p + offset leaves [0, 1]
        return self.offset  # exact, where p + offset - p may round

    def bit_record(
        self, samples: np.ndarray, s: ScenarioConfig, sensor: SensorSpec, seed: Entropy
    ) -> np.ndarray:
        mean = s.signal_mean(sensor.id)
        tp = self.shift(sensor.zero_prob(mean))
        if tp <= 0.0:
            return np.ones(samples.size, dtype=np.uint8)
        if tp >= 1.0:
            return np.zeros(samples.size, dtype=np.uint8)
        return (samples > mean + sensor.noise.inv_cdf(tp)).view(np.uint8)


@dataclass(frozen=True)
class SpoofBias(AttackSpec):
    """Additive bias on the raw samples before quantization."""

    variant: ClassVar[str] = "spoof_bias"
    bias: float

    def __post_init__(self) -> None:
        if not is_finite(self.bias):
            raise DomainError(f"bias must be finite, got {shown(self.bias)}")

    def shift(self, p: float, noise: GaussianNoise | None = None) -> float:
        """Moves the threshold crossing, so it needs the sensor's noise model."""
        _checked(p)
        if noise is None:
            raise DomainError("spoofing bias needs the sensor's noise model")
        if p <= 0.0 or p >= 1.0:
            return p  # saturated quantizer stays saturated under any finite bias
        return noise.cdf(noise.inv_cdf(p) - self.bias)

    def bit_record(
        self, samples: np.ndarray, s: ScenarioConfig, sensor: SensorSpec, seed: Entropy
    ) -> np.ndarray:
        return super().bit_record(samples + self.bias, s, sensor, seed)


def apply_attack(spec: AttackSpec, bits: np.ndarray, seed: Entropy) -> np.ndarray:
    """Pass a bit record through a bit-domain attack.

    Only the flip channel (and the trivial no-attack) act on bits; the
    offset and spoofing variants change the sampling distribution instead
    and are rejected here.  Deterministic given the seed, and monotone in
    the flip probabilities: raising psi1 with the seed fixed only grows
    the set of flipped ones, never un-flips one.
    """
    psi0, psi1 = spec.flip_probs()
    arr = np.asarray(bits, dtype=np.uint8)
    if not spec.is_attack:
        return arr.copy()
    rng = make_generator(seed)
    u = rng.random(arr.size)
    ones = arr.view(np.bool_)
    flips = (ones & (u < psi1)) | (~ones & (u < psi0))
    return arr ^ flips.view(np.uint8)


def check_subtle(s: ScenarioConfig, j: int, spec: AttackSpec) -> bool:
    """Whether the attacked zero-probability stays inside [rho_L, rho_U].

    A subtle attack keeps sensor j's post-attack statistics inside the
    bracket every unattacked in-ROI sensor obeys, so the fusion center
    cannot screen it out by frequency alone.
    """
    tp = spec.shift(prob_zero(s, j), s.sensor(j).noise)
    row = s.constants().row(j)
    return row.rho_l <= tp <= row.rho_u


def check_significant(s: ScenarioConfig, j: int, spec: AttackSpec) -> bool:
    """Whether the attack moves sensor j's zero-probability at the target by
    more than the scenario's kappa, the one significance floor."""
    return abs(spec.psi(prob_zero(s, j), s.sensor(j).noise)) > s.kappa


@dataclass(frozen=True)
class AttackAssignment:
    """Map from sensor id to attack; missing ids are unattacked."""

    specs: Mapping[int, AttackSpec]

    def spec_for(self, sensor_id: int) -> AttackSpec:
        return self.specs.get(sensor_id, NoAttack())

    def attacked_ids(self) -> tuple[int, ...]:
        return tuple(sorted(j for j, sp in self.specs.items() if sp.is_attack))

    def __iter__(self) -> Iterator[tuple[int, AttackSpec]]:
        return iter(sorted(self.specs.items()))

    def validate_against(self, s: ScenarioConfig) -> None:
        """Reject assignments naming unknown sensors or attacking secure ones."""
        known = {sensor.id for sensor in s.sensors}
        secure = {sensor.id for sensor in s.secure_pair()}
        for j, sp in self.specs.items():
            if j not in known:
                raise InvalidScenario(f"attack assigned to unknown sensor {j}")
            if sp.is_attack and j in secure:
                raise InvalidScenario(
                    f"sensor {j} is secure and cannot be attacked"
                )


def no_attacks() -> AttackAssignment:
    return AttackAssignment(specs={})
