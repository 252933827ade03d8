"""Command-line interface: exit codes, output shapes, file output."""

import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import quantloc
from quantloc import AttackAssignment, Mima, build_paper_setup, load_scenario, save_scenario
from quantloc.cli import _build_parser, main
from quantloc.detector import DEFAULT_M, METHODS, DetectorConfig


@pytest.fixture
def toy_file(toy_scenario, tmp_path):
    path = tmp_path / "toy.json"
    save_scenario(toy_scenario, path)
    return str(path)


@pytest.fixture
def attacked_file(toy_scenario, tmp_path):
    path = tmp_path / "toy_attacked.json"
    assignment = AttackAssignment(specs={1: Mima(0.0, 0.2)})
    save_scenario(toy_scenario, path, assignment)
    return str(path)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "validate" in capsys.readouterr().out


def test_missing_arguments_exit_two(capsys):
    assert main([]) == 2
    assert main(["detect"]) == 2
    assert main(["sweep", "x.json", "--delta", "5"]) == 2
    capsys.readouterr()


def test_bad_k_grid_exits_two(toy_file, capsys):
    code = main(["sweep", toy_file, "--delta", "5", "--K-grid", "10,abc"])
    assert code == 2
    assert "comma-separated integers" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert main(["validate", "/no/such/scenario.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["validate", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_runtime_error_exits_one(toy_file, capsys):
    code = main(["detect", toy_file, "--K", "100", "--delta", "-1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_scale_exits_one(capsys):
    assert main(["paper-setup", "--scale", "1.5"]) == 1
    capsys.readouterr()


def test_validate_clean_scenario(toy_file, capsys):
    assert main(["validate", toy_file]) == 0
    out = capsys.readouterr().out
    assert "sensors: 2 unsecure + 2 secure" in out
    assert "attacked: 0" in out
    assert "distance bounds: D_L=" in out
    assert out.rstrip().endswith("all assumptions satisfied")


def test_validate_reports_violations_but_exits_zero(tmp_path, capsys):
    path = tmp_path / "bench.json"
    assert main(["paper-setup", "--scale", "0.02", "--out", str(path)]) == 0
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "sensors: 10 unsecure + 2 secure" in out
    assert "attacked: 5" in out
    assert "VIOLATED" in out
    assert "guarantees weaken" in out


def test_paper_setup_stdout_parses(tmp_path, capsys):
    assert main(["paper-setup", "--scale", "0.02"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "echo.json"
    path.write_text(text)
    scenario, assignment = load_scenario(path)
    assert len(scenario.unsecure()) == 10
    assert len(assignment.attacked_ids()) == 5


def test_detect_table_shape(toy_file, capsys):
    code = main(["detect", toy_file, "--K", "2000", "--delta", "5", "--seed", "1"])
    assert code == 0
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    assert lines[0].startswith("sensor_id\tdecision")
    assert len(lines) == 3
    assert lines[1].startswith("1\t")
    assert lines[2].startswith("2\t")


@pytest.mark.parametrize(
    ("scale", "method"),
    [
        pytest.param("0.04", [], id="0.04"),
        pytest.param("1", [], id="1"),
        pytest.param("0.04", ["--method", "discretized", "--M", "200000"], id="0.04-discretized"),
        pytest.param("1", ["--method", "discretized", "--M", "200000"], id="1-discretized"),
        pytest.param(
            "0.04", ["--method", "discretized", "--M", "12800000"], id="0.04-discretized-M12800000"
        ),
    ],
)
def test_detect_matches_golden_table(scale, method, tmp_path):
    """The benchmark network's detection table, byte for byte.

    The golden files pin every verdict, radius and the table format; at
    this delta both scales flag some sensors and clear others.  The
    discretized tables pin the walk at M = 2e5 on both networks, and at
    M = 12.8e6 on the 1/25-scale one.
    """
    scenario = tmp_path / "paper.json"
    out = tmp_path / "detect.tsv"
    assert main(["paper-setup", "--scale", scale, "--out", str(scenario)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # delta is above the admissible limit
        code = main(
            ["detect", str(scenario), "--delta", "280", "--K", "10000",
             "--seed", "7", *method, "--out", str(out)]
        )
    assert code == 0
    suffix = ""
    if method:
        suffix = "_discretized" + ("" if method[-1] == "200000" else f"_M{method[-1]}")
    golden = Path(__file__).parent / "data" / f"detect_scale{scale}_seed7_K10000_delta280{suffix}.tsv"
    assert out.read_bytes() == golden.read_bytes()


def test_bounds_matches_golden_table(tmp_path):
    """The exponent tables of the full-scale and the 1/25-scale setups, byte
    for byte: lambda_min, the admissible delta, the three exponents and
    every sensor's bounds."""
    for scale in ("1", "0.04"):
        scenario = tmp_path / f"paper{scale}.json"
        out = tmp_path / f"bounds{scale}.tsv"
        assert main(["paper-setup", "--scale", scale, "--out", str(scenario)]) == 0
        code = main(
            ["bounds", str(scenario), "--delta", "280", "--K-grid", "20000,100000",
             "--out", str(out)]
        )
        assert code == 0
        golden = Path(__file__).parent / "data" / f"bounds_scale{scale}_delta280.tsv"
        assert out.read_bytes() == golden.read_bytes(), scale


def test_bounds_kappa_matches_golden_table(tmp_path):
    """The scenario file's kappa moves lambda_min and the admissible delta,
    byte for byte as the golden table has them."""
    scenario = tmp_path / "paper.json"
    out = tmp_path / "bounds.tsv"
    paper, assignment = build_paper_setup(scale=0.04)
    save_scenario(replace(paper, kappa=0.05), scenario, assignment)
    code = main(
        ["bounds", str(scenario), "--delta", "280", "--K-grid", "20000,100000",
         "--out", str(out)]
    )
    assert code == 0
    golden = Path(__file__).parent / "data" / "bounds_scale0.04_delta280_kappa0.05.tsv"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize(
    "grid, entry, sweep_error",
    [
        ("0", "k_grid[0] must be >= 1", "k_grid entries must be >= 1"),
        ("-5", "k_grid[0] must be >= 1", "k_grid entries must be >= 1"),
        ("100,0,200", "k_grid[1] must be >= 1", "k_grid entries must be >= 1"),
        # an entry past the float range names its field, in both commands
        (f"100,1{'0' * 400}", "k_grid[1] must be finite", "k_grid[1] must be finite"),
    ],
    ids=["0-k_grid[0]", "-5-k_grid[0]", "100,0,200-k_grid[1]", "1e400-k_grid[1]"],
)
def test_bounds_rejects_a_k_grid_entry_below_one(toy_file, grid, entry, sweep_error, capsys):
    assert main(["bounds", toy_file, "--delta", "5", f"--K-grid={grid}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert entry in captured.err
    # sweep rejects the same grid with the same exit code
    assert main(["sweep", toy_file, "--delta", "5", f"--K-grid={grid}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and sweep_error in captured.err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_matches_golden_table(threads, tmp_path):
    """The 1/25-scale sweep table, byte for byte and at either thread count:
    every count, rate, standard error, bound column and the fitted slope."""
    scenario = tmp_path / "paper.json"
    out = tmp_path / "sweep.tsv"
    assert main(["paper-setup", "--scale", "0.04", "--out", str(scenario)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # delta is above the admissible limit
        code = main(
            ["sweep", str(scenario), "--K-grid", "2000,4000", "--trials", "6",
             "--delta", "280", "--seed", "7", "--threads", threads, "--out", str(out)]
        )
    assert code == 0
    golden = (
        Path(__file__).parent / "data" / "sweep_scale0.04_seed7_K2000-4000_trials6_delta280.tsv"
    )
    assert out.read_bytes() == golden.read_bytes()


def test_flag_defaults_come_from_the_library():
    parser = _build_parser()
    args = parser.parse_args(["sweep", "x.json", "--delta", "5", "--K-grid", "10"])
    assert args.M == DEFAULT_M
    assert args.method == DetectorConfig(delta=5.0).method
    sweep = next(
        action.choices["sweep"] for action in parser._actions if action.dest == "command"
    )
    method = next(action for action in sweep._actions if action.dest == "method")
    assert tuple(method.choices) == METHODS


WITHOUT_SCIPY = """
import sys, warnings
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
sys.path.insert(0, sys.argv[1])
import quantloc
from quantloc.cli import main
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m])
assert not loaded, loaded
warnings.simplefilter("ignore")
scenario, out = sys.argv[2], sys.argv[3]
assert main(["paper-setup", "--scale", "0.04", "--out", scenario]) == 0
sys.exit(main(["detect", scenario, "--delta", "280", "--K", "10000", "--seed", "7", "--out", out]))
"""


def test_detect_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: with scipy unimportable, the
    golden table still comes out byte for byte."""
    src = str(Path(quantloc.__file__).resolve().parents[1])
    out = tmp_path / "detect.tsv"
    subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, src, str(tmp_path / "paper.json"), str(out)],
        check=True,
        timeout=120,
    )
    golden = Path(__file__).parent / "data" / "detect_scale0.04_seed7_K10000_delta280.tsv"
    assert out.read_bytes() == golden.read_bytes()


def test_detect_on_anchors_only_prints_the_header(toy_scenario, tmp_path, capsys):
    anchors = replace(toy_scenario, sensors=tuple(x for x in toy_scenario.sensors if x.secure))
    path = tmp_path / "anchors.json"
    save_scenario(anchors, path)
    assert main(["detect", str(path), "--K", "100", "--delta", "5"]) == 0
    assert capsys.readouterr().out == "sensor_id\tdecision\tD_hat\tclamped\tmethod\tdelta\n"


def test_detect_writes_out_file(toy_file, tmp_path, capsys):
    out = tmp_path / "report.tsv"
    code = main(
        ["detect", toy_file, "--K", "2000", "--delta", "5", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("sensor_id\tdecision")


def test_bounds_clean_scenario(toy_file, capsys):
    assert main(["bounds", toy_file, "--delta", "5"]) == 0
    out = capsys.readouterr().out
    for tag in ("# delta", "# kappa\t1", "# lambda_min", "# delta_admissible",
                "# eta_fa", "# eta_err"):
        assert tag in out
    assert "# eta_miss\tnan" in out
    assert "sensor_id\teta0" in out


def test_bounds_attacked_scenario_with_overrides(toy_scenario, tmp_path, capsys):
    """kappa comes from the scenario file; the K grid from the flag."""
    path = tmp_path / "toy_attacked.json"
    save_scenario(replace(toy_scenario, kappa=0.5), path, AttackAssignment({1: Mima(0.0, 0.2)}))
    code = main(["bounds", str(path), "--delta", "5", "--K-grid", "1000,10000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "# kappa\t0.5" in out
    assert "# eta_miss\tnan" not in out
    assert "fa_bound_K1000" in out and "fa_bound_K10000" in out


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("bounds", "--sigma-l", "0.4"),
        ("bounds", "--sigma-u", "0.4"),
        ("sweep", "--sigma-l", "0.4"),
        ("sweep", "--sigma-u", "0.4"),
        ("bounds", "--kappa", "0.05"),
        ("bounds", "--method", "discretized"),
        ("bounds", "--M", "5"),
    ],
    ids=[
        "bounds---sigma-l",
        "bounds---sigma-u",
        "sweep---sigma-l",
        "sweep---sigma-u",
        "bounds---kappa",
        "bounds---method",
        "bounds---M",
    ],
)
def test_the_bracket_weights_are_not_flags(command, flag, value, attacked_file, capsys):
    """The exponents' frequency bracket and kappa come from the scenario
    alone, and bounds takes no region-test flag: the exponents do not
    depend on how the region is tested."""
    args = [command, attacked_file, "--delta", "5", "--K-grid", "1000", flag, value]
    assert main(args) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_sweep_table_shape(attacked_file, capsys):
    code = main(
        ["sweep", attacked_file, "--delta", "5", "--K-grid", "200,400",
         "--trials", "5", "--threads", "1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    assert lines[0].startswith("K\tdelta\tfa_hat")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert [ln.split("\t")[0] for ln in body] == ["200", "400"]


def test_sweep_reports_slope_when_error_decays(toy_file, capsys):
    code = main(
        ["sweep", toy_file, "--delta", "2", "--K-grid", "500,2000,8000",
         "--trials", "60", "--threads", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "# slope_ln_avg_err_per_K\t" in out
    slope_line = [ln for ln in out.splitlines() if ln.startswith("# slope")][0]
    assert float(slope_line.split("\t")[1]) < 0
