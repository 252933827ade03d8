"""One measured process: set-up, then a workload's operations.

Run by ``run.py`` in a fresh interpreter, so that import cost, set-up time and
peak memory belong to one workload.  Writes its measurements as JSON to
``--out``.

Set-up time covers ``import quantloc``, ``load_scenario`` and the warm-up
operation (which pays the ``delta_admissible`` cache and scipy's lazy
imports); loading prepared inputs into memory is excluded.

Untraced, operations run in a closed loop for ``--seconds``; on one thread
the speed probe is timed before the first and after each one.  Traced, a
fixed number of operations (proportional to ``--seconds``) each runs twice,
with the wrappers removed and with them installed, and the ratio of the two
wall times is the tracing overhead.  Spans and per-layer totals cover set-up
and the traced runs; the counts repeat exactly between runs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_package():
    """Import quantloc from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import quantloc

    if Path(quantloc.__file__).resolve().parent != SRC / "quantloc":
        raise ImportError(f"quantloc imported from {quantloc.__file__}, not {SRC}")
    return quantloc


def run_op(workload, i: int, problems: list[str], tally: bool = True) -> tuple[float, object]:
    """Time one operation, then check it outside the timed region."""
    start = time.perf_counter()
    try:
        result = workload.op(i)
    except Exception:
        result = None
        problems.append(f"op {i} raised:\n{traceback.format_exc()}")
    elapsed = time.perf_counter() - start
    if result is not None and (problem := workload.check(i, result, tally)):
        problems.append(problem)
    return elapsed, result


def make_speed_probe():
    """A probe returning the seconds of a fixed mix of interpreter and numpy work.

    The host this benchmark runs on is shared, and its speed drifts by tens
    of percent over seconds to minutes.  Timed next to every operation, the
    probe tracks that drift, so that run.py can report latencies at a fixed
    reference speed.  Its data (32 KiB) fits in L1, and only its second pass
    is timed, so the operation before it hardly changes its time.  It
    depends on nothing in quantloc.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 4096)

    def probe() -> float:
        for _ in range(2):  # the first pass refills what the operation evicted
            start = time.perf_counter()
            acc = 0
            for j in range(3000):
                acc += j * j % 7
            for _ in range(8):
                np.cos(x).sum()
        return time.perf_counter() - start

    return probe


def layer_metrics(tracer, workload, walls: list[float], untraced_units: int) -> dict[str, float]:
    """Per-layer totals; ``walls`` holds the untraced and traced wall times."""
    from tracing import LAYERS

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = tracer.calls[layer]
        out[f"{layer}.self_ms"] = tracer.self_ns[layer] / 1e6
    c = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["montecarlo.sweep_delta.wall_ms"] = tracer.total_ns["montecarlo.sweep_delta"] / 1e6
    out["montecarlo.samples_drawn_per_needed"] = ratio(
        c["measurement.sample_signal.samples"], c["montecarlo.sweep_delta.needed"]
    )
    out["measurement.sample_signal.samples"] = c["measurement.sample_signal.samples"]
    out["attacks.apply_attack.bits"] = c["attacks.apply_attack.bits"]
    out["measurement.nmle_distance.clamped_frac"] = ratio(
        c["measurement.nmle_distance.clamped"], tracer.calls["measurement.nmle_distance"]
    )
    for method in ("analytic", "discretized"):
        out[f"geometry.{method}.meets_frac"] = ratio(
            c[f"geometry.{method}.meets"], tracer.calls[f"geometry.{method}"]
        )
    out["geometry.crosscheck.disagreements"] = getattr(workload, "disagreements", 0)
    out["detector.detect_all.flagged_frac"] = ratio(
        c["detector.detect_all.flagged"], c["detector.detect_all.rows"]
    )
    out["fileio.load_dataset.bytes"] = c["fileio.load_dataset.bytes"]
    # A traced run is single-threaded, so its untraced passes give the
    # one-thread Monte Carlo throughput.
    sweeps = tracer.calls["montecarlo.sweep_delta"]
    out["montecarlo.cells_per_s_1t"] = untraced_units / walls[0] if sweeps else 0.0
    out["trace.overhead_ratio"] = walls[1] / walls[0]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    warnings.simplefilter("ignore")

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS  # no numpy or scipy before the timed import

    cls, threads = WORKLOADS[args.workload]
    # Traced runs use one thread, so that self times add up.
    threads = 1 if args.trace else threads()
    tracer = None
    t0 = time.perf_counter()
    q = import_package()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = cls(q, args.work, args.seed, threads)
    workload.load()
    t1 = time.perf_counter()
    workload.load_inputs()
    t2 = time.perf_counter()
    problems: list[str] = []
    with tracer.span("bench.op") if tracer else nullcontext():
        run_op(workload, 0, problems)
    setup_s = (t1 - t0) + (time.perf_counter() - t2)
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    attempted = 1
    ops: list[tuple[float, int]] = []
    probes: list[float] = []
    if tracer:
        # Each operation runs once untraced and once traced, in alternating
        # order, so neither drift in the machine's speed nor the second run's
        # warmer caches lands in the overhead ratio.
        tracer.uninstall()
        n_ops = max(1, round(args.seconds * cls.trace_ops_per_s))
        walls = [0.0, 0.0]
        untraced_units = 0
        for i in range(1, n_ops + 1):
            for traced in (False, True) if i % 2 else (True, False):
                if not traced:
                    elapsed, result = run_op(workload, i, problems)
                    walls[0] += elapsed
                    untraced_units += 0 if result is None else workload.units(result)
                    continue
                tracer.install()
                tracer.op = i
                with tracer.span("bench.op"):
                    # Both passes are checked; the untraced one alone is tallied.
                    walls[1] += run_op(workload, i, problems, tally=False)[0]
                tracer.uninstall()
        attempted += 2 * n_ops
        problems += [f"traced run saw no call to {layer}" for layer in cls.layers if not tracer.calls[layer]]
    else:
        # On one thread the host-speed probe runs before the first operation
        # and after each one, and run.py scales latencies by it.  An operation
        # on several threads is as slow as its slowest core, which the probe
        # does not see, so those operations are reported as measured.
        speed_probe = make_speed_probe() if threads == 1 else None
        if speed_probe:
            probes.append(speed_probe())
        start = time.perf_counter()
        i = 1
        while time.perf_counter() - start < args.seconds:
            elapsed, result = run_op(workload, i, problems)
            if speed_probe:
                probes.append(speed_probe())
            ops.append((elapsed, 0 if result is None else workload.units(result)))
            i += 1
        attempted += len(ops)

    # The run-level checks count as one more checked operation.
    failed = len(problems)
    try:
        run_problems = workload.finish()
    except Exception:
        run_problems = [f"run-level check raised:\n{traceback.format_exc()}"]
    problems += run_problems
    attempted += 1
    failed += bool(run_problems)

    report = {
        "ops": ops,  # (latency s, work units) per timed operation
        "probes": probes,  # probe seconds before, between and after them
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": threads,
    }
    if tracer:
        report["per_layer"] = layer_metrics(tracer, workload, walls, untraced_units)
        tracer.write_spans(args.work / "spans.jsonl.gz")
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
