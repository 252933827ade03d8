"""The benchmark's workloads: inputs, one operation, and its output checks.

Nothing here imports numpy or scipy: the measured process must pay for
those only through ``import quantloc``.  ``run.py`` writes the inputs that
``scale``, ``k`` and ``datasets`` describe before the process starts.

Each workload is driven by one closed-loop caller: operation i starts when
operation i - 1 has returned.  Operation 0 is the warm-up call counted in
set-up time.

- ``mc_sweep``: ``sweep_delta`` on the 1/25-scale paper network (22
  sensors, 10 under Mima with psi1 = 0.0105) over the acceptance grid with
  20 trials, at every available thread (one thread when traced).  Sampling
  and flipping bits dominate; detection is a small share.
- ``fusion_detect``: ``load_dataset`` then analytic ``detect_all`` on the
  full-scale network (502 sensors) at K = 1e4.  No sampling; the time goes to
  per-sensor Python work in the estimator and the region test.
- ``crosscheck``: ``load_dataset`` then discretized ``detect_all`` at
  M = 2e5 on 1/25-scale records at K = 2e4, with the analytic verdicts
  alongside.  The only workload where the discretized walk does the work;
  sampling and the scenario lookup are out of its path.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

K_GRID = (20_000, 40_000, 60_000, 80_000, 100_000)
DELTAS = (260.0, 280.0, 300.0, 320.0)
DELTA = 280.0
M_POINTS = 200_000
SMALL_SCALE = 1.0 / 25.0
# The trial count of the roadmap's Monte Carlo workload W1: with 100 cells
# per sweep the thread pool and the per-delta rate formulas run at the share
# a real sweep gives them.
TRIALS_PER_OP = 20
# The warm-up sweep in set-up is one trial of the same grid: it pays the
# first-call costs without timing a full sweep inside set-up.
WARMUP_TRIALS = 1
REFERENCE = Path(__file__).resolve().parent / "reference_rates.json"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class _Workload:
    """Defaults shared by every workload."""

    # Layers that must see calls when this workload is traced.
    layers: tuple[str, ...] = ()
    # Operations a traced run repeats untraced and traced, per second of --seconds.
    trace_ops_per_s: float
    # Inputs run.py writes: network scale, record length, record count.
    scale: float
    k: int | None = None
    datasets = 0

    def __init__(self, q, work: Path, seed: int, threads: int) -> None:
        self.q, self.work, self.seed, self.threads = q, work, seed, threads

    def load(self) -> None:
        self.scenario, self.assignment = self.q.load_scenario(self.work / "scenario.json")

    def load_inputs(self) -> None:
        """Read prepared inputs; runs outside set-up time and timed operations."""

    def units(self, result) -> int:
        return 1

    def check(self, i: int, result, tally: bool) -> str | None:
        """Check one operation's outputs; ``tally`` adds it to the run's totals.

        A traced run repeats every operation; only one pass is tallied.
        """
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Run-level checks after the last operation."""
        return []


class MonteCarlo(_Workload):
    """One op is a ``sweep_delta`` call: TRIALS_PER_OP trials x 5 K values x 4 deltas.

    A cell is one (K, trial) dataset classified at all four deltas; the work
    unit is the cell.  The warm-up, op 0, runs WARMUP_TRIALS trials.
    """

    layers = (
        "montecarlo.sweep_delta", "montecarlo.generate_dataset",
        "measurement.sample_signal", "attacks.apply_attack", "rng.make_generator",
        "analysis.composite_exponents", "measurement.freq", "measurement.nmle_distance",
        "noise.inv_cdf", "noise.cdf", "scenario.sensor", "geometry.analytic",
        "detector.detect_all", "detector.delta_admissible", "fileio.load_scenario",
    )
    # A traced operation is one sweep at one thread, twice: about 12 s.
    trace_ops_per_s = 1.0 / 15.0
    scale = SMALL_SCALE

    def __init__(self, q, work: Path, seed: int, threads: int) -> None:
        super().__init__(q, work, seed, threads)
        self.totals: dict[tuple[int, float], list[int]] = {}
        self.ops_counted = 0
        self.first: dict | None = None

    def sweep(
        self, i: int, threads: int, trials: int = TRIALS_PER_OP
    ) -> dict[tuple[int, float], tuple[int, int]]:
        plan = self.q.ExperimentPlan(
            scenario=self.scenario,
            assignment=self.assignment,
            detector=self.q.DetectorConfig(delta=DELTA),
            k_grid=K_GRID,
            trials=trials,
            base_seed=self.seed * 1_000_003 + i,
            threads=threads,
        )
        metrics = self.q.sweep_delta(plan, list(DELTAS))
        return {
            (row.k, delta): (row.fa_count, row.miss_count)
            for delta, m in metrics.items()
            for row in m.rows
        }

    def op(self, i: int):
        return self.sweep(i, self.threads, WARMUP_TRIALS if i == 0 else TRIALS_PER_OP)

    def units(self, result) -> int:
        return len(K_GRID) * TRIALS_PER_OP

    def check(self, i: int, counts, tally: bool) -> str | None:
        """fa non-increasing and miss non-decreasing in delta at every K.

        Exact: every delta classifies the same data, and a wider ring pair
        only grows the region a circle must meet.  The warm-up's counts are
        kept for the thread-count check; the timed operations' counts feed
        the rate check.
        """
        for k in K_GRID:
            fa = [counts[(k, d)][0] for d in DELTAS]
            miss = [counts[(k, d)][1] for d in DELTAS]
            if fa != sorted(fa, reverse=True) or miss != sorted(miss):
                return f"op {i}, K={k}: fa {fa} / miss {miss} not monotone in delta"
        if i == 0:
            self.first = counts
            return None
        if not tally:
            return None
        for key, (fa, miss) in counts.items():
            acc = self.totals.setdefault(key, [0, 0])
            acc[0] += fa
            acc[1] += miss
        self.ops_counted += 1
        return None

    def finish(self) -> list[str]:
        """Thread-count invariance of the warm-up, then rates against the reference.

        The warm-up's five cells are spread over the pool, so a count that
        depended on which thread ran a cell would differ here.
        """
        problems = []
        other = 1 if self.threads != 1 else nproc()
        if self.first is not None and self.sweep(0, other, WARMUP_TRIALS) != self.first:
            problems.append(f"op 0 counts differ between {self.threads} and {other} threads")
        problems += self.rate_problems()
        return problems

    def rate_problems(self) -> list[str]:
        """Mean per-op rates within 5 standard errors (plus 0.01) of the reference.

        The standard error uses the per-op spread measured for the reference,
        which includes the correlation that shared anchor estimates put
        between the sensors of one trial.
        """
        if not self.ops_counted:
            return []
        ref = json.loads(REFERENCE.read_text())
        n_att = len(self.assignment.attacked_ids())
        n_un = len(self.scenario.unsecure()) - n_att
        cells = self.ops_counted * TRIALS_PER_OP
        problems = []
        for row in ref["rows"]:
            fa, miss = self.totals[(row["k"], row["delta"])]
            for name, rate in (("fa", fa / (cells * n_un)), ("miss", miss / (cells * n_att))):
                se = row[f"{name}_sd"] * math.sqrt(1.0 / self.ops_counted + 1.0 / ref["ops"])
                if abs(rate - row[f"{name}_mean"]) > 5.0 * se + 0.01:
                    problems.append(
                        f"K={row['k']} delta={row['delta']}: {name} rate {rate:.4f} vs "
                        f"reference {row[f'{name}_mean']:.4f} (se {se:.4f})"
                    )
        return problems


class _RecordWorkload(_Workload):
    """Checks shared by the two workloads that read prepared bit records."""

    def __init__(self, q, work: Path, seed: int, threads: int) -> None:
        super().__init__(q, work, seed, threads)
        self.expected = json.loads((work / "expected.json").read_text())["datasets"]

    def load_inputs(self) -> None:
        self.paths = [self.work / e["file"] for e in self.expected]

    def check_data(self, i: int, data) -> str | None:
        """Loaded zero counts equal the generator's."""
        exp = self.expected[i % len(self.expected)]["zeros"]
        zeros = {str(sid): int(data.k - int(bits.sum())) for sid, bits in data.bits.items()}
        if zeros != exp:
            return f"dataset {i % len(self.expected)}: zero counts differ from the generator's"
        return None

    def check_report(self, i: int, report) -> str | None:
        """Every d_hat within 1e-9 relative of the local inversion, same clamp flags."""
        exp = self.expected[i % len(self.expected)]
        estimates = [(r.sensor_id, r.d_hat, r.clamped) for r in report.rows]
        estimates += [(sid, e.value, e.clamped) for sid, e in report.secure_estimates]
        if len(estimates) != len(exp["d_hat"]):
            return f"op {i}: {len(estimates)} estimates for {len(exp['d_hat'])} sensors"
        for sid, d_hat, clamped in estimates:
            want = exp["d_hat"][str(sid)]
            if abs(d_hat - want) > 1e-9 * abs(want) or clamped != exp["clamped"][str(sid)]:
                return f"op {i}, sensor {sid}: d_hat {d_hat!r} clamped {clamped} vs {want!r}"
        return None


class FusionDetect(_RecordWorkload):
    """One op: ``load_dataset`` of one record file, then analytic ``detect_all``."""

    layers = (
        "measurement.freq", "measurement.nmle_distance", "noise.inv_cdf", "noise.cdf",
        "scenario.sensor", "geometry.analytic", "detector.detect_all",
        "detector.delta_admissible", "fileio.load_scenario", "fileio.load_dataset",
    )
    trace_ops_per_s = 4.0
    scale, k, datasets = 1.0, 10_000, 16

    def load_inputs(self) -> None:
        super().load_inputs()
        self.cfg = self.q.DetectorConfig(delta=DELTA)

    def op(self, i: int):
        data = self.q.load_dataset(self.paths[i % len(self.paths)])
        return data, self.q.detect_all(self.scenario, self.cfg, data)

    def check(self, i: int, result, tally: bool) -> str | None:
        data, report = result
        return self.check_data(i, data) or self.check_report(i, report)


class Crosscheck(_RecordWorkload):
    """One op: ``load_dataset``, then discretized ``detect_all`` at M = 2e5 plus
    the analytic verdicts."""

    layers = (
        "measurement.freq", "measurement.nmle_distance", "noise.inv_cdf", "noise.cdf",
        "scenario.sensor", "geometry.analytic", "geometry.discretized",
        "detector.detect_all", "detector.delta_admissible", "fileio.load_scenario",
        "fileio.load_dataset",
    )
    trace_ops_per_s = 1.0
    # A flagged sensor walks all M points, so latency depends on the record;
    # with about one record per operation of a run, p90 stays steady.
    scale, k, datasets = SMALL_SCALE, 20_000, 160

    def __init__(self, q, work: Path, seed: int, threads: int) -> None:
        super().__init__(q, work, seed, threads)
        self.decisions = 0
        self.disagreements = 0

    def load_inputs(self) -> None:
        super().load_inputs()
        self.discretized = self.q.DetectorConfig(delta=DELTA, method="discretized", m_points=M_POINTS)
        self.analytic = self.q.DetectorConfig(delta=DELTA)

    def op(self, i: int):
        # One record in memory at a time, so peak RSS is that of one detection.
        data = self.q.load_dataset(self.paths[i % len(self.paths)])
        return (
            data,
            self.q.detect_all(self.scenario, self.discretized, data),
            self.q.detect_all(self.scenario, self.analytic, data),
        )

    def check(self, i: int, result, tally: bool) -> str | None:
        data, discretized, analytic = result
        problem = (
            self.check_data(i, data)
            or self.check_report(i, discretized)
            or self.check_report(i, analytic)
        )
        if problem or not tally:
            return problem
        verdicts = {r.sensor_id: r.decision for r in analytic.rows}
        self.decisions += len(verdicts)
        self.disagreements += sum(r.decision != verdicts[r.sensor_id] for r in discretized.rows)
        return None

    def finish(self) -> list[str]:
        """At most 1 in 1000 verdicts may differ, the rate criterion 09 allows."""
        problems = []
        if self.disagreements * 1000 > self.decisions:
            problems.append(
                f"{self.disagreements} of {self.decisions} verdicts differ between methods"
            )
        return problems


WORKLOADS = {
    "mc_sweep": (MonteCarlo, nproc),
    "fusion_detect": (FusionDetect, lambda: 1),
    "crosscheck": (Crosscheck, lambda: 1),
}
