"""The package's public names, pinned: adding or retiring an export is an
edit here, made on purpose and reviewed.  A retired name must also be gone
from the README and the demos, whose prose no other check reads."""

import re
import types
from pathlib import Path

import pytest

import quantloc

PUBLIC_NAMES = [
    "ATTACK_STREAM",
    "AdvisoryWarning",
    "AssumptionReport",
    "AssumptionWarning",
    "AttackAssignment",
    "AttackSpec",
    "DEFAULT_M",
    "DetectionReport",
    "DetectorConfig",
    "DistanceBounds",
    "DistanceEstimate",
    "DomainError",
    "EmpiricalFreq",
    "ExperimentPlan",
    "GaussianNoise",
    "HalfSpace",
    "InvalidScenario",
    "Metrics",
    "MetricsRow",
    "Mima",
    "MissingSensorData",
    "NOISE_STREAM",
    "NoAttack",
    "NoIntersection",
    "OracleReport",
    "ParseError",
    "Point",
    "PsiOffset",
    "QuantLocError",
    "QuantizedDataset",
    "RateReport",
    "Ring",
    "RoiDisc",
    "SCHEMA_VERSION",
    "ScenarioConfig",
    "SensorArrays",
    "SensorConstants",
    "SensorDecision",
    "SensorRates",
    "SensorSpec",
    "SpoofBias",
    "TangentDegenerate",
    "VariantMismatch",
    "__version__",
    "apply_attack",
    "attacked_distance",
    "bernoulli_kl",
    "build_paper_setup",
    "check_significant",
    "check_subtle",
    "circle_circle_intersection",
    "circle_meets_region_analytic",
    "circle_meets_region_discretized",
    "composite_exponents",
    "containment_oracle",
    "delta_admissible",
    "detect_all",
    "detect_from_probabilities",
    "distance",
    "estimate_error_probs",
    "generate_dataset",
    "lambda_min",
    "load_dataset",
    "load_scenario",
    "make_generator",
    "ndtr",
    "ndtri",
    "nmle_distance",
    "nmle_distances",
    "no_attacks",
    "parse_scenario",
    "phi_bound",
    "prob_zero",
    "quantize",
    "render_scenario",
    "roi_side",
    "sample_signal",
    "save_dataset",
    "save_scenario",
    "sweep_delta",
    "validate_assumptions",
]

# Retired exports whose work another name does: delta_admissible and the
# scenario's SensorConstants table take a scenario, not loose constants;
# GaussianNoise() is the standard normal; QuantizedDataset.freq counts a
# record's zeros, and EmpiricalFreq raises DomainError for an empty one; the
# table's frequency bracket sits at the midpoints of the gaps that
# ExponentParams used to weight; estimate_error_probs returns Metrics, whose
# slope is fitted from its rows; and SensorConstants holds, one column each,
# the probability bracket, the frequency bracket, Xi and the floor that
# rho_bounds, unsecure_rho_bounds, epsilon_bracket, xi_factor and lambda_j
# gave, with the density's extrema that density_sup took.  An attack spec's
# shift and psi check p themselves, as post_attack_prob and psi_of did, and
# ScenarioConfig.distance_bounds() computes what compute_distance_bounds did.
RETIRED = [
    "lambda_from",
    "delta_admissible_from",
    "xi_factor_from",
    "standard_gaussian",
    "empirical_freq",
    "EmptyData",
    "ExponentParams",
    "sweep_K",
    "rho_bounds",
    "unsecure_rho_bounds",
    "epsilon_bracket",
    "xi_factor",
    "lambda_j",
    "density_sup",
    "post_attack_prob",
    "psi_of",
    "compute_distance_bounds",
]

# Retired attributes of public classes: report.decisions[j] is one sensor's
# verdict, and SensorRates is a tuple of its four rates, so min(rates) is the
# least of them.
RETIRED_ATTRIBUTES = [
    ("DetectionReport", "decision_for"),
    ("SensorRates", "terms"),
    ("SensorRates", "minimum"),
]

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]


def _docs_naming(pattern: str) -> list[str]:
    return [doc.name for doc in DOCS if re.search(pattern, doc.read_text())]


def test_the_public_names_are_pinned():
    assert sorted(quantloc.__all__) == PUBLIC_NAMES
    assert len(set(quantloc.__all__)) == len(quantloc.__all__)
    for name in PUBLIC_NAMES:
        assert hasattr(quantloc, name), name


@pytest.mark.parametrize("name", RETIRED)
def test_a_retired_name_is_gone(name):
    assert not hasattr(quantloc, name)
    modules = [m for m in vars(quantloc).values() if isinstance(m, types.ModuleType)]
    assert modules and not any(hasattr(m, name) for m in modules)
    assert len(DOCS) > 1 and _docs_naming(rf"\b{name}\b") == []


@pytest.mark.parametrize("owner, name", RETIRED_ATTRIBUTES)
def test_a_retired_attribute_is_gone(owner, name):
    assert not hasattr(getattr(quantloc, owner), name)
    assert _docs_naming(rf"\.{name}\b") == []
