"""Regenerate the seeded golden files from the package's random streams.

Run from the repository root after a change that moves the seeded streams
(and only then, saying so in CHANGES.md):

    PYTHONPATH=src python tests/data/make_goldens.py

It rewrites ``detect_scale{0.04,1}_seed7_K10000_delta280.tsv`` here with
what ``quantloc paper-setup`` and ``quantloc detect --delta 280 --K 10000
--seed 7`` print, ``detect_scale{0.04,1}_seed7_K10000_delta280_discretized.tsv``
with what the same command prints with ``--method discretized --M 200000``,
``detect_scale0.04_seed7_K10000_delta280_discretized_M12800000.tsv`` with
what it prints for the 1/25-scale setup with ``--method discretized --M
12800000`` (64 times the points, so the walk is pinned at a large M too),
and ``sweep_scale0.04_seed7_K2000-4000_trials6_delta280.tsv``
with what ``quantloc sweep --K-grid 2000,4000 --trials 6 --delta 280 --seed 7``
prints for the 1/25-scale setup.  It prints the ``PINNED_ZERO_COUNTS``
literal of ``tests/test_montecarlo.py`` to paste in.

It also rewrites ``bounds_scale1_delta280.tsv``, what ``quantloc bounds
--delta 280 --K-grid 20000,100000`` prints for the full-scale paper setup,
``bounds_scale0.04_delta280.tsv``, what it prints for the 1/25-scale setup
at its default ``kappa`` (the network the Monte Carlo benchmark sweeps),
and ``bounds_scale0.04_delta280_kappa0.05.tsv``, what the same command
prints for the 1/25-scale setup saved with ``kappa`` 0.05
(``save_scenario(replace(s, kappa=0.05), ...)``).  No random stream
reaches those tables, so a stream change leaves them byte for byte as
committed; a change to the exponents or the distortion floor that moves
them must say so in CHANGES.md.

``trial_scale0.04_seed7_K10000_philox.bits`` and its table are not made
here: they pin the detector on a fixed record, so no stream change may
regenerate them.  They were written once, by the Philox streams, with
``save_dataset(generate_dataset(*build_paper_setup(scale=0.04), 10000, 7,
trial_index=0), path)``.  Its discretized table, ``..._discretized.tsv``,
is what ``detect_all`` printed for it at M = 2e5 with the walk that bounded
fixed 16,384-point chunks and 1024-point blocks, so it pins the walk's
verdicts across a change of how the walk skips.

``criterion09_discretized_M200000.txt`` holds the discretized verdicts of
criterion 09's 10,000 random region queries (``random_region_trial`` drawn
in turn from ``default_rng(20260809)``, as
``test_criterion_09_analytic_matches_discretized`` draws them) at M = 2e5,
one ``0`` or ``1`` character each and no newline.  62 of its walks are
longer than 100 points, so it pins the walk on long pieces, which the
paper-network tables never reach.  No random stream of the package reaches
it: like the bounds tables, it moves only with the walk's verdicts.
"""

from __future__ import annotations

import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

DATA = Path(__file__).resolve().parent
sys.path.insert(0, str(DATA.parent))  # the tests directory: conftest, test_montecarlo

import numpy as np  # noqa: E402
from conftest import make_toy_scenario, random_region_trial  # noqa: E402
from quantloc import build_paper_setup, save_scenario  # noqa: E402
from quantloc.cli import main  # noqa: E402
from quantloc.geometry import circle_meets_region_discretized  # noqa: E402
from test_montecarlo import pinned_zero_counts  # noqa: E402


def write_detect_tables() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for scale, suffix, method in (
            ("0.04", "", []),
            ("1", "", []),
            ("0.04", "_discretized", ["--method", "discretized", "--M", "200000"]),
            ("1", "_discretized", ["--method", "discretized", "--M", "200000"]),
            ("0.04", "_discretized_M12800000", ["--method", "discretized", "--M", "12800000"]),
        ):
            scenario = str(Path(tmp) / f"paper{scale}.json")
            out = DATA / f"detect_scale{scale}_seed7_K10000_delta280{suffix}.tsv"
            assert main(["paper-setup", "--scale", scale, "--out", scenario]) == 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # delta is above the admissible limit
                code = main(
                    ["detect", scenario, "--delta", "280", "--K", "10000",
                     "--seed", "7", *method, "--out", str(out)]
                )
            assert code == 0
            print(f"wrote {out.relative_to(DATA.parent.parent)}")


def write_sweep_table() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        scenario = str(Path(tmp) / "paper0.04.json")
        out = DATA / "sweep_scale0.04_seed7_K2000-4000_trials6_delta280.tsv"
        assert main(["paper-setup", "--scale", "0.04", "--out", scenario]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # delta is above the admissible limit
            code = main(
                ["sweep", scenario, "--K-grid", "2000,4000", "--trials", "6",
                 "--delta", "280", "--seed", "7", "--out", str(out)]
            )
        assert code == 0
        print(f"wrote {out.relative_to(DATA.parent.parent)}")


def write_bounds_tables() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for scale, name, kappa in (
            (1.0, "bounds_scale1_delta280.tsv", None),
            (0.04, "bounds_scale0.04_delta280.tsv", None),
            (0.04, "bounds_scale0.04_delta280_kappa0.05.tsv", 0.05),
        ):
            scenario = str(Path(tmp) / f"paper{scale:g}.json")
            out = DATA / name
            s, assignment = build_paper_setup(scale=scale)
            save_scenario(s if kappa is None else replace(s, kappa=kappa), scenario, assignment)
            code = main(
                ["bounds", scenario, "--delta", "280", "--K-grid", "20000,100000",
                 "--out", str(out)]
            )
            assert code == 0
            print(f"wrote {out.relative_to(DATA.parent.parent)}")


def criterion09_verdicts() -> str:
    rng = np.random.default_rng(20260809)
    return "".join(
        "1" if circle_meets_region_discretized(*random_region_trial(rng), 200_000) else "0"
        for _ in range(10_000)
    )


def write_criterion09_verdicts() -> None:
    out = DATA / "criterion09_discretized_M200000.txt"
    out.write_text(criterion09_verdicts())
    print(f"wrote {out.relative_to(DATA.parent.parent)}")


def print_zero_counts() -> None:
    print("PINNED_ZERO_COUNTS = {")
    for name, counts in pinned_zero_counts(make_toy_scenario()).items():
        print(f'    "{name}": {counts},')
    print("}")


if __name__ == "__main__":
    write_detect_tables()
    write_sweep_table()
    write_bounds_tables()
    write_criterion09_verdicts()
    print_zero_counts()
