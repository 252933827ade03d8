"""Adversary models: bit-flip channels, probability offsets, spoofing bias.

Every attack on a one-bit record is summarized by how it moves the
zero-probability: p -> p + Psi.  The bit-flip channel flips a 0 to 1 with
probability psi0 and a 1 to 0 with probability psi1, so

    p_tilde = (1 - psi0 - psi1) p + psi1,    Psi = psi1 - (psi0 + psi1) p.

A spoofing bias b added to the raw samples shifts the zero-probability to
F(F^{-1}(p) - b).  The offset variant prescribes Psi directly, which also
covers quantizer-tampering attacks: whatever the tampered quantizer does,
the fusion center only ever sees the resulting p_tilde.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .errors import DomainError, InvalidScenario, VariantMismatch
from .noise import NoiseModel
from .rng import Entropy, make_generator
from .scenario import DistanceBounds, ScenarioConfig, rho_bounds

__all__ = [
    "AttackSpec",
    "NoAttack",
    "Mima",
    "PsiOffset",
    "SpoofBias",
    "AttackAssignment",
    "no_attacks",
    "apply_attack",
    "apply_spoof",
    "post_attack_prob",
    "psi_of",
    "check_subtle",
    "check_significant",
]


@dataclass(frozen=True)
class AttackSpec:
    """Base class; concrete variants carry their own parameters."""

    variant: str = field(default="none", init=False)

    @property
    def is_attack(self) -> bool:
        return self.variant != "none"


@dataclass(frozen=True)
class NoAttack(AttackSpec):
    variant: str = field(default="none", init=False)


@dataclass(frozen=True)
class Mima(AttackSpec):
    """Independent bit-flip channel: 0 -> 1 w.p. psi0, 1 -> 0 w.p. psi1."""

    psi0: float
    psi1: float
    variant: str = field(default="mima", init=False)

    def __post_init__(self) -> None:
        for name, value in (("psi0", self.psi0), ("psi1", self.psi1)):
            if not (0.0 <= value <= 1.0):
                raise DomainError(f"{name} = {value} outside [0, 1]")


@dataclass(frozen=True)
class PsiOffset(AttackSpec):
    """Direct offset of the zero-probability: p -> p + offset."""

    offset: float
    variant: str = field(default="psi_offset", init=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.offset):
            raise DomainError(f"offset must be finite, got {self.offset}")


@dataclass(frozen=True)
class SpoofBias(AttackSpec):
    """Additive bias on the raw samples before quantization."""

    bias: float
    variant: str = field(default="spoof_bias", init=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.bias):
            raise DomainError(f"bias must be finite, got {self.bias}")


def apply_attack(spec: AttackSpec, bits: np.ndarray, seed: Entropy) -> np.ndarray:
    """Pass a bit record through a bit-domain attack.

    Only the flip channel (and the trivial no-attack) act on bits; the
    offset and spoofing variants change the sampling distribution instead
    and are rejected here.  Deterministic given the seed, and monotone in
    the flip probabilities: raising psi1 with the seed fixed only grows
    the set of flipped ones, never un-flips one.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    if isinstance(spec, NoAttack):
        return arr.copy()
    if not isinstance(spec, Mima):
        raise VariantMismatch(
            f"apply_attack handles bit-domain variants only, got {spec.variant}"
        )
    entropy = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    rng = make_generator(entropy)
    u = rng.random(arr.size)
    flips = u < np.where(arr == 0, spec.psi0, spec.psi1)
    return arr ^ flips.astype(np.uint8)


def apply_spoof(spec: AttackSpec, samples: np.ndarray) -> np.ndarray:
    """Add the spoofing bias to raw samples."""
    if not isinstance(spec, SpoofBias):
        raise VariantMismatch(
            f"apply_spoof requires the spoofing variant, got {spec.variant}"
        )
    return np.asarray(samples, dtype=float) + spec.bias


def post_attack_prob(
    spec: AttackSpec, p: float, noise: NoiseModel | None = None
) -> float:
    """Zero-probability after the attack acts on Bernoulli bits with Pr(0) = p.

    The spoofing variant needs the sensor's noise model to relocate the
    threshold crossing.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p = {p} outside [0, 1]")
    if isinstance(spec, NoAttack):
        return p
    if isinstance(spec, Mima):
        tp = (1.0 - spec.psi0 - spec.psi1) * p + spec.psi1
        return min(max(tp, 0.0), 1.0)
    if isinstance(spec, PsiOffset):
        tp = p + spec.offset
        if not (0.0 <= tp <= 1.0):
            raise DomainError(
                f"offset {spec.offset} pushes p = {p} to {tp}, outside [0, 1]"
            )
        return tp
    if isinstance(spec, SpoofBias):
        if noise is None:
            raise DomainError("spoofing bias needs the sensor's noise model")
        if p <= 0.0 or p >= 1.0:
            return p  # saturated quantizer stays saturated under any finite bias
        return float(noise.cdf(noise.inv_cdf(p) - spec.bias))
    raise VariantMismatch(f"unknown attack variant {spec.variant!r}")


def psi_of(spec: AttackSpec, p: float, noise: NoiseModel | None = None) -> float:
    """Probability offset Psi = p_tilde - p induced at zero-probability p."""
    if isinstance(spec, NoAttack):
        return 0.0
    if isinstance(spec, Mima):
        return spec.psi1 - (spec.psi0 + spec.psi1) * p
    if isinstance(spec, PsiOffset):
        return spec.offset
    return post_attack_prob(spec, p, noise) - p


def check_subtle(
    s: ScenarioConfig,
    j: int,
    spec: AttackSpec,
    bounds: DistanceBounds | None = None,
) -> bool:
    """Whether the attacked zero-probability stays inside [rho_L, rho_U].

    A subtle attack keeps sensor j's post-attack statistics inside the
    bracket every unattacked in-ROI sensor obeys, so the fusion center
    cannot screen it out by frequency alone.
    """
    sensor = s.sensor(j)
    p = float(sensor.noise.cdf(sensor.threshold - s.signal_mean(j)))
    tp = post_attack_prob(spec, p, noise=sensor.noise)
    rho_l, rho_u = rho_bounds(s, j, bounds)
    return rho_l <= tp <= rho_u


def check_significant(
    spec: AttackSpec,
    p: float,
    kappa: float,
    noise: NoiseModel | None = None,
) -> bool:
    """Whether the attack distorts the zero-probability by more than kappa."""
    if not (kappa > 0.0):
        raise DomainError(f"kappa must be positive, got {kappa}")
    return abs(psi_of(spec, p, noise)) > kappa


@dataclass(frozen=True)
class AttackAssignment:
    """Map from sensor id to attack; missing ids are unattacked."""

    specs: Mapping[int, AttackSpec]

    def spec_for(self, sensor_id: int) -> AttackSpec:
        return self.specs.get(sensor_id, NoAttack())

    def attacked_ids(self) -> tuple[int, ...]:
        return tuple(sorted(j for j, sp in self.specs.items() if sp.is_attack))

    def unattacked_ids(self, s: ScenarioConfig) -> tuple[int, ...]:
        attacked = set(self.attacked_ids())
        return tuple(
            sensor.id for sensor in s.unsecure() if sensor.id not in attacked
        )

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
