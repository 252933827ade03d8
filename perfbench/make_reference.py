"""Regenerate reference_rates.json, the Monte Carlo rates the checks compare to.

    python3 perfbench/make_reference.py [--ops 100]

Runs the ``mc_sweep`` operation ``--ops`` times from a seed no benchmark run
uses and records, for every (K, delta), the mean and the standard deviation
over operations of the false-alarm and miss fractions.  Takes about five
minutes on two cores at the default size.  Rerun it only when the model or
the workload definition changes, never to make a failing check pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads  # noqa: E402
from worker import import_package  # noqa: E402

REFERENCE_SEED = 10**9


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ops", type=int, default=100)
    args = ap.parse_args()
    warnings.simplefilter("ignore")
    q = import_package()
    work = HERE / "work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    inputs.write_scenario(q, work, workloads.SMALL_SCALE)
    mc = workloads.MonteCarlo(q, work, REFERENCE_SEED, workloads.nproc())
    mc.load()
    n_att = len(mc.assignment.attacked_ids())
    n_un = len(mc.scenario.unsecure()) - n_att
    cells = workloads.TRIALS_PER_OP
    fractions: dict[tuple[int, float], list[tuple[float, float]]] = {}
    for i in range(args.ops):
        for key, (fa, miss) in mc.sweep(i, mc.threads).items():
            fractions.setdefault(key, []).append((fa / (cells * n_un), miss / (cells * n_att)))
    rows = []
    for (k, delta), values in sorted(fractions.items()):
        fa = [v[0] for v in values]
        miss = [v[1] for v in values]
        rows.append(
            {
                "k": k,
                "delta": delta,
                "fa_mean": statistics.fmean(fa),
                "fa_sd": statistics.stdev(fa),
                "miss_mean": statistics.fmean(miss),
                "miss_sd": statistics.stdev(miss),
            }
        )
    doc = {"seed": REFERENCE_SEED, "ops": args.ops, "trials_per_op": cells, "rows": rows}
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
