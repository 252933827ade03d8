"""Command-line front end.

Subcommands: validate (assumption checks for a scenario file), detect (one
detection run on freshly generated data), bounds (exponent and bound
tables), sweep (Monte Carlo error rates over a K grid), and paper-setup
(write the benchmark scenario at a chosen scale).  Every command is a pure
function of its input file, flags, and seed.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .analysis import composite_exponents
from .detector import (
    DEFAULT_M,
    METHODS,
    DetectorConfig,
    delta_admissible,
    detect_all,
    lambda_min,
)
from .errors import ParseError, QuantLocError
from .fileio import build_paper_setup, load_scenario, save_scenario, render_scenario
from .montecarlo import ExperimentPlan, _fmt_opt, estimate_error_probs, generate_dataset
from .scenario import validate_assumptions

__all__ = ["main"]

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _k_grid(raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("K grid is empty")
    return values


def _detector_config(args: argparse.Namespace) -> DetectorConfig:
    return DetectorConfig(delta=args.delta, method=args.method, m_points=args.M)


def cmd_validate(args: argparse.Namespace) -> int:
    scenario, assignment = load_scenario(args.scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = validate_assumptions(scenario)
    bounds = scenario.distance_bounds()
    lines = [
        f"sensors: {len(scenario.unsecure())} unsecure + 2 secure",
        f"attacked: {len(assignment.attacked_ids())}",
        f"distance bounds: D_L={bounds.d_lower:.6g} D_U={bounds.d_upper:.6g} "
        f"D_S={bounds.d_secure:.6g}",
        report.summary(),
    ]
    lines.append(
        "all assumptions satisfied"
        if report.all_satisfied
        else "some assumptions violated (see above); guarantees weaken but "
        "detection still runs"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    scenario, assignment = load_scenario(args.scenario)
    cfg = _detector_config(args)
    data = generate_dataset(scenario, assignment, args.K, args.seed, trial_index=0)
    report = detect_all(scenario, cfg, data)
    _emit(report.to_table(), args.out)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    scenario, assignment = load_scenario(args.scenario)
    report = composite_exponents(scenario, assignment, DetectorConfig(delta=args.delta))
    lines = [
        f"# delta\t{args.delta:g}",
        f"# kappa\t{scenario.kappa:g}",
        f"# lambda_min\t{lambda_min(scenario):.6g}",
        f"# delta_admissible\t{delta_admissible(scenario):.6g}",
        f"# eta_fa\t{report.fa_exponent:.6e}",
        f"# eta_miss\t{_fmt_opt(report.miss_exponent)}",
        f"# eta_err\t{report.err_exponent:.6e}",
    ]
    table = report.to_table(args.K_grid)
    _emit("\n".join(lines) + "\n" + table, args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario, assignment = load_scenario(args.scenario)
    plan = ExperimentPlan(
        scenario=scenario,
        assignment=assignment,
        detector=_detector_config(args),
        k_grid=args.K_grid,
        trials=args.trials,
        base_seed=args.seed,
        threads=args.threads,
    )
    metrics = estimate_error_probs(plan)
    text = metrics.to_table()
    slope = metrics.slope
    if slope is not None:
        text += f"# slope_ln_avg_err_per_K\t{slope:.6e}\n"
    _emit(text, args.out)
    return 0


def cmd_paper_setup(args: argparse.Namespace) -> int:
    scenario, assignment = build_paper_setup(scale=args.scale)
    if args.out:
        save_scenario(scenario, args.out, assignment)
    else:
        sys.stdout.write(render_scenario(scenario, assignment))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantloc",
        description=(
            "Quantized-data target localization under data falsification: "
            "scenario validation, geometric attack detection, error-exponent "
            "bounds, and Monte Carlo sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, scenario_arg: bool = True) -> None:
        if scenario_arg:
            p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", default=None, help="write output to this file")

    p_validate = sub.add_parser("validate", help="check scenario assumptions")
    add_common(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    def add_detector_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delta", type=float, required=True, help="detection radius slack")
        p.add_argument(
            "--method",
            choices=METHODS,
            default="analytic",
            help="region test implementation",
        )
        p.add_argument(
            "--M",
            type=int,
            default=DEFAULT_M,
            help="circle discretization points (discretized method)",
        )

    p_detect = sub.add_parser("detect", help="run detection on one generated trial")
    add_common(p_detect)
    add_detector_flags(p_detect)
    p_detect.add_argument("--K", type=int, required=True, help="samples per sensor")
    p_detect.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_detect.set_defaults(func=cmd_detect)

    p_bounds = sub.add_parser("bounds", help="error exponents and bound tables")
    add_common(p_bounds)
    # the exponents do not depend on how the region is tested: no --method or --M
    p_bounds.add_argument("--delta", type=float, required=True, help="detection radius slack")
    p_bounds.add_argument(
        "--K-grid",
        type=_k_grid,
        default=(10_000, 100_000, 1_000_000),
        dest="K_grid",
        help="comma-separated K values for bound columns",
    )
    p_bounds.set_defaults(func=cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo error rates over a K grid")
    add_common(p_sweep)
    add_detector_flags(p_sweep)
    p_sweep.add_argument(
        "--K-grid", type=_k_grid, required=True, dest="K_grid",
        help="comma-separated K values",
    )
    p_sweep.add_argument("--trials", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_sweep.add_argument(
        "--threads", type=int, default=0, help="worker threads (0 = auto)"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_setup = sub.add_parser(
        "paper-setup", help="write the benchmark scenario at a chosen scale"
    )
    add_common(p_setup, scenario_arg=False)
    p_setup.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="group-size scale in (0, 1]; 1 gives 500 sensors",
    )
    p_setup.set_defaults(func=cmd_paper_setup)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (QuantLocError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
