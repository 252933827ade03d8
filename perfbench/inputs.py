"""Seeded inputs for the benchmark, drawn without the package's own samplers.

Scenarios come from ``build_paper_setup`` and are written with the package's
scenario writer, because reading them back is part of set-up.  Bit records
are drawn here: each sensor's bits are Bernoulli at its model
zero-probability, the attacked group then goes through a Mima flip channel,
and the records are written by a local QDS1 writer.  A change to the
package's samplers, attack code or dataset writer therefore cannot change
what the detection workloads read.

The expected zero counts, distance estimates and clamp flags of every record
are computed here as well, by a clamped ``ndtri`` inversion that mirrors the
estimator's definition, and saved for the output checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

# Flip probabilities of the attacked group (the paper's benchmark attack).
PSI0 = 0.0
PSI1 = 0.0105

_MASK64 = (1 << 64) - 1


def stream(seed: int, *keys: int) -> np.random.Generator:
    """Independent generator for (seed, keys...), used for every draw here."""
    return np.random.default_rng(np.random.SeedSequence([seed & _MASK64, *keys]))


def zero_probabilities(scenario) -> dict[int, float]:
    """Pr(bit = 0) for every sensor: F_j(tau_j - p0 (d0 / D_j)^gamma)."""
    out = {}
    target = scenario.target
    for sensor in scenario.sensors:
        dist = np.hypot(sensor.position.x - target.x, sensor.position.y - target.y)
        mean = scenario.p0 * (scenario.d0 / dist) ** scenario.gamma
        z = (sensor.threshold - mean - sensor.noise.location) / sensor.noise.scale
        out[sensor.id] = float(ndtr(z))
    return out


def draw_records(
    p_zero: dict[int, float], attacked: set[int], k: int, rng: np.random.Generator
) -> dict[int, np.ndarray]:
    """K bits per sensor: Bernoulli zeros at p_zero, then flips on attacked ids."""
    records = {}
    for sid, p in sorted(p_zero.items()):
        bits = (rng.random(k) >= p).astype(np.uint8)
        if sid in attacked:
            flip = rng.random(k) < np.where(bits == 0, PSI0, PSI1)
            bits ^= flip.astype(np.uint8)
        records[sid] = bits
    return records


def write_qds1(path: Path, records: dict[int, np.ndarray], k: int, seed: int, trial: int) -> None:
    """The QDS1 container: magic, four little-endian u64 header words
    (K, sensor count, seed, trial), then per sensor an i64 id and its bits
    packed eight to the byte."""
    with open(path, "wb") as fh:
        fh.write(b"QDS1")
        fh.write(np.array([k, len(records), seed & _MASK64, trial], dtype="<u8").tobytes())
        for sid in sorted(records):
            fh.write(np.array([sid], dtype="<i8").tobytes())
            fh.write(np.packbits(records[sid]).tobytes())


def expected_estimates(scenario, zeros: dict[int, int], k: int) -> dict[int, tuple[float, bool]]:
    """Distance estimate and clamp flag per sensor from its zero count.

    xi = zeros / K is clamped into [1/(2K), F(tau) - 1/(2K)] and inverted:
    D = d0 (p0 / (tau - F^{-1}(xi)))^(1/gamma).
    """
    out = {}
    for sensor in scenario.sensors:
        noise = sensor.noise
        xi = zeros[sensor.id] / k
        lo = 1.0 / (2.0 * k)
        hi = float(ndtr((sensor.threshold - noise.location) / noise.scale)) - lo
        if lo > hi:
            lo = hi = (hi + lo) / 2.0
        used = min(max(xi, lo), hi)
        base = sensor.threshold - (float(ndtri(used)) * noise.scale + noise.location)
        d_hat = scenario.d0 * (scenario.p0 / base) ** (1.0 / scenario.gamma)
        out[sensor.id] = (d_hat, not (lo <= xi <= hi))
    return out


def write_scenario(q, work: Path, scale: float) -> tuple[object, object]:
    """Write the paper network at ``scale`` to work/scenario.json."""
    scenario, assignment = q.build_paper_setup(scale=scale, psi1=PSI1)
    q.save_scenario(scenario, work / "scenario.json", assignment)
    return scenario, assignment


def write_datasets(
    q, work: Path, seed: int, scale: float, k: int, count: int
) -> None:
    """``count`` records at ``k`` bits plus expected.json for the checks."""
    scenario, assignment = write_scenario(q, work, scale)
    p_zero = zero_probabilities(scenario)
    attacked = set(assignment.attacked_ids())
    expected = []
    for i in range(count):
        records = draw_records(p_zero, attacked, k, stream(seed, i))
        name = f"data-{i:03d}.qds"
        write_qds1(work / name, records, k, seed, i)
        zeros = {sid: int(k - int(bits.sum())) for sid, bits in records.items()}
        est = expected_estimates(scenario, zeros, k)
        expected.append(
            {
                "file": name,
                "zeros": {str(sid): n for sid, n in zeros.items()},
                "d_hat": {str(sid): v[0] for sid, v in est.items()},
                "clamped": {str(sid): v[1] for sid, v in est.items()},
            }
        )
    (work / "expected.json").write_text(json.dumps({"k": k, "datasets": expected}))
