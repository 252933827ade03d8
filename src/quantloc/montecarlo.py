"""Reproducible Monte Carlo estimation of detector error probabilities.

Seeding convention: every random stream is keyed by the tuple
(base_seed, trial_index, stream, sensor_id), where stream 0 is measurement
noise and stream 1 is attack randomness.  Neither K nor delta enters the
key, which buys two properties at once: a shorter record is a prefix of a
longer one from the same trial, and runs that differ only in delta (or in
a bit-domain attack parameter) see common random numbers, so sweep
comparisons are paired rather than independent.

The unit of parallel work is a trial: it is generated once, at the largest
K of the grid, and every smaller K classifies prefix views of those
records, which the seeding contract makes identical to a fresh draw at that
K.  Each (trial, K) estimates its distances once and decides every delta
from them.  Trials run across a thread pool and only integer counts are
aggregated, so serial and parallel runs of the same plan produce identical
metrics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analysis import RateReport, _k_grid, composite_exponents
from .attacks import AttackAssignment
from .detector import (
    DetectorConfig,
    _classify,
    _warn_if_inadmissible,
    detect_all,
)
from .errors import DomainError
from .measurement import QuantizedDataset, sample_signal
from .noise import _index
from .rng import ATTACK_STREAM
from .scenario import ScenarioConfig

__all__ = [
    "ExperimentPlan",
    "MetricsRow",
    "Metrics",
    "generate_dataset",
    "estimate_error_probs",
    "sweep_delta",
]


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything a Monte Carlo run depends on, immutably.

    ``k_grid`` entries, ``trials``, ``base_seed`` and ``threads`` must be
    integers; numpy integers are stored as Python ints.
    """

    scenario: ScenarioConfig
    assignment: AttackAssignment
    detector: DetectorConfig
    k_grid: tuple[int, ...]
    trials: int
    base_seed: int
    threads: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_grid", _k_grid(self.k_grid))
        for name in ("trials", "base_seed", "threads"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        if not self.k_grid:
            raise DomainError("k_grid must be nonempty")
        if list(self.k_grid) != sorted(self.k_grid) or len(set(self.k_grid)) != len(
            self.k_grid
        ):
            raise DomainError(f"k_grid must be strictly ascending, got {self.k_grid}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 0:
            raise DomainError(f"threads must be >= 0, got {self.threads}")
        self.assignment.validate_against(self.scenario)


def generate_dataset(
    scenario: ScenarioConfig,
    assignment: AttackAssignment,
    k: int,
    base_seed: int,
    trial_index: int,
) -> QuantizedDataset:
    """One trial's post-attack bit records for every sensor.

    Each sensor's raw samples come from its noise stream; its attack spec
    turns them into bits (``AttackSpec.bit_record``), drawing any flips
    from the sensor's attack stream.
    """
    bits: dict[int, np.ndarray] = {}
    for sensor in scenario.sensors:
        j = sensor.id
        samples = sample_signal(scenario, j, k, (base_seed, trial_index))
        attack_seed = (base_seed, trial_index, ATTACK_STREAM, j)
        bits[j] = assignment.spec_for(j).bit_record(samples, scenario, sensor, attack_seed)
    return QuantizedDataset(bits=bits, k=k, rng_seed=base_seed, trial_index=trial_index)


@dataclass(frozen=True)
class MetricsRow:
    """Empirical error rates and bound overlays at one (K, delta) point.

    Rates for an empty class (no attacked sensors, say) are None rather
    than zero; the standard errors use the binomial formula over
    trials x class-size effective cells.
    """

    k: int
    delta: float
    fa_hat: float | None
    fa_se: float | None
    miss_hat: float | None
    miss_se: float | None
    avg_err: float
    avg_err_se: float
    fa_bound: float
    miss_bound: float | None
    pe_bound: float
    fa_count: int
    miss_count: int
    trials: int


def _fmt_opt(value: float | None) -> str:
    return "nan" if value is None else f"{value:.6e}"


@dataclass(frozen=True)
class Metrics:
    """Rows over the K grid, and the decay slope fitted from them."""

    rows: tuple[MetricsRow, ...]

    HEADER = (
        "K\tdelta\tfa_hat\tfa_se\tmiss_hat\tmiss_se\tavg_err\tavg_err_se"
        "\tfa_bound\tmiss_bound\tpe_bound"
    )

    def to_table(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            lines.append(
                "\t".join(
                    [
                        str(r.k),
                        f"{r.delta:g}",
                        _fmt_opt(r.fa_hat),
                        _fmt_opt(r.fa_se),
                        _fmt_opt(r.miss_hat),
                        _fmt_opt(r.miss_se),
                        f"{r.avg_err:.6e}",
                        f"{r.avg_err_se:.6e}",
                        f"{r.fa_bound:.6e}",
                        _fmt_opt(r.miss_bound),
                        f"{r.pe_bound:.6e}",
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    @property
    def slope(self) -> float | None:
        """Least-squares slope of ln(avg_err) versus K over the rows with a
        positive average error; None with fewer than two such rows."""
        points = [(r.k, r.avg_err) for r in self.rows if r.avg_err > 0.0]
        if len(points) < 2:
            return None
        ks = np.array([p[0] for p in points], dtype=float)
        logs = np.log([p[1] for p in points])
        return float(np.polyfit(ks, logs, 1)[0])

    def row_for(self, k: int, delta: float | None = None) -> MetricsRow:
        for r in self.rows:
            if r.k == k and (delta is None or r.delta == delta):
                return r
        raise KeyError(f"no metrics row for K={k}, delta={delta}")


def _rate_and_se(count: int, cells: int) -> tuple[float | None, float | None]:
    if cells == 0:
        return None, None
    p_hat = count / cells
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / cells)


def _count_trial(
    plan: ExperimentPlan,
    configs: Sequence[DetectorConfig],
    trial_index: int,
    attacked: np.ndarray,
) -> np.ndarray:
    """One trial's [false alarms, misses], shape (len(k_grid), len(configs), 2).

    ``attacked`` marks the attacked sensors in ``s.unsecure()`` order, the
    order of every report's flags.  One draw at the largest K serves every
    K through prefix views; one detect_all per K serves every delta through
    its radii (module docstring).
    """
    full = generate_dataset(
        plan.scenario, plan.assignment, plan.k_grid[-1], plan.base_seed, trial_index
    )
    flags = []
    for k in plan.k_grid:
        data = QuantizedDataset(
            bits={j: record[:k] for j, record in full.bits.items()},
            k=k,
            rng_seed=plan.base_seed,
            trial_index=trial_index,
        )
        first = detect_all(plan.scenario, configs[0], data)
        flags.append([first.flags] + [
            _classify(
                plan.scenario, cfg, first.secure_estimates, first.d_hat, first.clamped, k
            ).flags
            for cfg in configs[1:]
        ])
    flagged = np.array(flags, dtype=bool)
    return np.stack(
        [(flagged & ~attacked).sum(axis=-1), (~flagged & attacked).sum(axis=-1)], axis=-1
    )


def _threads(plan: ExperimentPlan) -> int:
    if plan.threads > 0:
        return plan.threads
    # Count the CPUs this process may run on, not every CPU of the machine.
    if hasattr(os, "sched_getaffinity"):
        return min(32, len(os.sched_getaffinity(0)))
    return min(32, os.cpu_count() or 1)


def sweep_delta(plan: ExperimentPlan, deltas: Sequence[float]) -> dict[float, Metrics]:
    """Metrics for several detection radii off one shared set of datasets.

    Every delta sees the identical trial data (the seed key excludes
    delta), so differences between the returned curves are paired
    comparisons, free of re-sampling noise.  Each trial's counts come back
    as one integer array (``_count_trial``); the sweep's totals are their
    sum, so serial and pooled runs agree exactly.  ``deltas`` may be any
    sequence, a 1-D numpy array included; the metrics are keyed by each
    delta as a Python float.
    """
    try:
        deltas = list(deltas)
    except TypeError:
        raise DomainError(f"deltas must be a sequence, got {deltas!r}") from None
    configs = []
    for i, delta in enumerate(deltas):
        try:
            configs.append(replace(plan.detector, delta=delta))
        except DomainError as exc:
            raise DomainError(f"deltas[{i}]: {exc}") from None
    if not configs:
        raise DomainError("need at least one delta")
    deltas = [cfg.delta for cfg in configs]
    if len(set(deltas)) != len(deltas):
        raise DomainError(f"deltas must not repeat a value, got {deltas}")
    scenario, assignment = plan.scenario, plan.assignment
    attacked = np.isin(scenario.unsecure_ids(), assignment.attacked_ids())
    n_total = len(attacked)
    if n_total == 0:
        raise DomainError("scenario has no unsecure sensors to classify")
    n_attacked = int(attacked.sum())
    n_unattacked = n_total - n_attacked

    reports: dict[float, RateReport] = {
        cfg.delta: composite_exponents(scenario, assignment, cfg)
        for cfg in configs
    }
    # detect_all runs at the first delta only and raises its advisory there;
    # the other deltas are checked here, once per sweep.
    for cfg in configs[1:]:
        _warn_if_inadmissible(scenario, cfg.delta)

    def run_trial_counts(trial: int) -> np.ndarray:
        return _count_trial(plan, configs, trial, attacked)

    workers = _threads(plan)
    if workers == 1:
        results = map(run_trial_counts, range(plan.trials))
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(run_trial_counts, range(plan.trials)))
        finally:
            pool.shutdown()
    totals = sum(results).tolist()

    out: dict[float, Metrics] = {}
    for d, delta in enumerate(deltas):
        rows = []
        for k, per_delta in zip(plan.k_grid, totals):
            fa_count, miss_count = per_delta[d]
            fa_hat, fa_se = _rate_and_se(
                fa_count, plan.trials * n_unattacked
            )
            miss_hat, miss_se = _rate_and_se(
                miss_count, plan.trials * n_attacked
            )
            avg_err, avg_err_se = _rate_and_se(
                fa_count + miss_count, plan.trials * n_total
            )
            report = reports[delta]
            rows.append(
                MetricsRow(
                    k=k,
                    delta=delta,
                    fa_hat=fa_hat,
                    fa_se=fa_se,
                    miss_hat=miss_hat,
                    miss_se=miss_se,
                    avg_err=avg_err,
                    avg_err_se=avg_err_se,
                    fa_bound=report.fa_bound(k),
                    miss_bound=report.miss_bound(k),
                    pe_bound=report.err_bound(k),
                    fa_count=fa_count,
                    miss_count=miss_count,
                    trials=plan.trials,
                )
            )
        out[delta] = Metrics(rows=tuple(rows))
    return out


def estimate_error_probs(plan: ExperimentPlan) -> Metrics:
    """Empirical false-alarm, miss, and average error rates over the K grid."""
    return sweep_delta(plan, [plan.detector.delta])[plan.detector.delta]
