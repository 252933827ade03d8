"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload fusion_detect --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The script writes the workload's inputs
from ``--seed`` under ``perfbench/work/``, times set-up in SETUP_PROBES
fresh processes, then runs the workload in one more fresh process
(``worker.py``) and prints a table followed by one JSON object as the last
line of standard output.  With ``--trace 0`` the JSON holds the end-to-end
metrics, with ``--trace 1`` the per-layer ones.  It exits non-zero without a
result when the checkout has no ``src/quantloc`` or a process fails.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# Typical time of worker.make_speed_probe's probe on the machine in README.md.
REFERENCE_PROBE_S = 0.0005
# Every child process together must end well inside the 180 s a run may take.
BUDGET_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def prepare(workload: str, seed: int, work: Path) -> None:
    """Write the scenario and any bit records the workload reads."""
    sys.path.insert(0, str(SRC))
    import quantloc

    import inputs

    cls, _ = WORKLOADS[workload]
    if cls.datasets:
        inputs.write_datasets(quantloc, work, seed, cls.scale, cls.k, cls.datasets)
    else:
        inputs.write_scenario(quantloc, work, cls.scale)


def run_worker(args, work: Path, name: str, deadline: float, *extra: str) -> dict:
    out = work / f"{name}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--out", str(out), *extra,
    ]
    # subprocess.run kills the child on timeout and waits for it to end.
    subprocess.run(cmd, check=True, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text())


def end_to_end(setup: list[float], report: dict) -> dict[str, tuple[float, str]]:
    """Operation metrics, set-up and memory.

    On a single-threaded workload each latency is scaled by REFERENCE_PROBE_S
    over the mean of the speed probes taken just before and just after the
    operation, which takes the shared host's drifting speed out of the
    comparison between runs.  A multi-threaded workload has no probes, and
    its latencies are used as measured.
    """
    probes = report["probes"]
    scaled = [
        latency * REFERENCE_PROBE_S / ((probes[i] + probes[i + 1]) / 2.0) if probes else latency
        for i, (latency, _) in enumerate(report["ops"])
    ]
    ms = [1e3 * t for t in scaled]
    return {
        "throughput_per_s": (sum(units for _, units in report["ops"]) / sum(scaled), "1/s"),
        "latency_ms_p50": (percentile(ms, 50), "ms"),
        "latency_ms_p90": (percentile(ms, 90), "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def as_measured(report: dict) -> str:
    """The operation metrics before scaling, for the table only."""
    ops, probes = report["ops"], report["probes"]
    ms = [1e3 * latency for latency, _ in ops]
    return (
        f"as measured: throughput {sum(u for _, u in ops) / sum(t for t, _ in ops):.6g}/s, "
        f"latency p50 {percentile(ms, 50):.6g} ms, p90 {percentile(ms, 90):.6g} ms"
        + (f", speed probe median {1e3 * statistics.median(probes):.4g} ms" if probes else "")
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S
    if not (SRC / "quantloc" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'quantloc'}", file=sys.stderr)
        return 2

    work = HERE / "work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepare(args.workload, args.seed, work)
    setup = []
    if not args.trace:
        for n in range(SETUP_PROBES):
            setup.append(run_worker(args, work, f"setup{n}", deadline, "--setup-only")["setup_s"])
    report = run_worker(args, work, "run", deadline)
    for path in work.glob("data-*.qds"):
        path.unlink()

    import numpy
    import scipy

    print(
        f"# {args.workload} seed={args.seed} threads={report['threads']} "
        f"python={platform.python_version()} numpy={numpy.__version__} scipy={scipy.__version__}"
    )
    for problem in report["problems"]:
        print(f"# FAILED CHECK: {problem}")
    if args.trace:
        from tracing import layer_unit

        metrics = {name: (value, layer_unit(name)) for name, value in report["per_layer"].items()}
        print(f"# spans: {work / 'spans.jsonl.gz'}")
    else:
        metrics = end_to_end(setup, report)
        print(f"# {len(report['ops'])} timed operations, {SETUP_PROBES} set-up probes")
        print(f"# {as_measured(report)}")
    print(f"# failed_frac {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']})")
    for name, (value, unit) in metrics.items():
        print(f"# {name:45s} {value:14.6g} {unit}")

    print(
        json.dumps(
            {
                "correct": not report["problems"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
