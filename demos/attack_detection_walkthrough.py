"""Walk through the geometric detection of a falsified bit stream.

A man-in-the-middle flips a sensor's bits before they reach the fusion
center, which biases the zero-bit frequency and therefore the distance
the center reconstructs.  The detector never inspects the bits
themselves: it checks whether each sensor's distance circle still passes
through the region pinned down by the two tamper-proof anchors.

Run:  python3 demos/attack_detection_walkthrough.py
"""

from dataclasses import replace

from quantloc import (
    AttackAssignment,
    DetectorConfig,
    GaussianNoise,
    Mima,
    Point,
    RoiDisc,
    ScenarioConfig,
    SensorSpec,
    attacked_distance,
    check_significant,
    check_subtle,
    delta_admissible,
    detect_all,
    detect_from_probabilities,
    generate_dataset,
    prob_zero,
)

# -- step 1: the network and the attacker ------------------------------------
# Same four-sensor layout as the localization walkthrough.  The attacker
# sits on sensor 1's uplink and flips one-bits to zero 30% of the time.

noise = GaussianNoise(0.0, 1.0)
scenario = ScenarioConfig(
    sensors=(
        SensorSpec(1, Point(-30.0, 0.0), 1.0, noise),
        SensorSpec(2, Point(30.0, 0.0), 1.0, noise),
        SensorSpec(3, Point(-100.0, 0.0), 1.0, noise, secure=True),
        SensorSpec(4, Point(100.0, 0.0), 1.0, noise, secure=True),
    ),
    roi=RoiDisc(Point(0.0, 100.0), 5.0),
    target=Point(0.0, 100.0),
    p0=1.0,
    d0=100.0,
    gamma=2.0,
    upsilon1=20.0,
    upsilon2=20.0,
    kappa=1.0,
)
attack = Mima(psi0=0.0, psi1=0.3)
assignment = AttackAssignment(specs={1: attack})

# -- step 2: what the flips do to the channel law -----------------------------
# The attack shifts the zero-bit probability by an offset that plays the
# role of a bias.  An offset above the floor kappa counts as
# "significant"; one that keeps the probability inside the ROI bracket
# is "subtle" (it cannot be caught by range checks alone).  The toy
# kappa of 1 is unreachable by construction, so we also test a floor a
# real deployment might use, on a copy of the scenario.

p_clean = prob_zero(scenario, 1)
p_tampered = attack.shift(p_clean)
offset = attack.psi(p_clean)
print(f"clean zero-bit probability:    {p_clean:.6f}")
print(f"tampered zero-bit probability: {p_tampered:.6f}  (offset {offset:+.6f})")
print(f"significant at kappa={scenario.kappa:g}:    {check_significant(scenario, 1, attack)}")
print(f"significant at kappa=0.1:  {check_significant(replace(scenario, kappa=0.1), 1, attack)}")
print(f"subtle inside the ROI bracket: {check_subtle(scenario, 1, attack)}")

d_clean = attacked_distance(scenario, 1, p_clean)
d_tampered = attacked_distance(scenario, 1, p_tampered)
print(f"reconstructed distance drifts: {d_clean:.4f} -> {d_tampered:.4f}")

# -- step 3: pick a detection radius ------------------------------------------
# The radius must absorb sampling noise without swallowing the drift the
# attack causes.  The scenario exposes the largest slack that still
# carries a guarantee; we stay just under it.

limit = delta_admissible(scenario)
cfg = DetectorConfig(delta=0.95 * limit)
print(f"\nadmissible slack {limit:.4f}, using delta = {cfg.delta:.4f}")

# -- step 4: the asymptotic verdict first -------------------------------------
# Feeding exact probabilities instead of data shows what the detector
# converges to: the tampered sensor's circle leaves the anchor region.

probs = {s.id: prob_zero(scenario, s.id) for s in scenario.sensors}
probs[1] = p_tampered
report = detect_from_probabilities(scenario, cfg, probs)
print("\nexact-probability feed:")
print(report.to_table())

# -- step 5: the same verdict from finite data --------------------------------
# One synthetic trial at K = 200000 samples per sensor.  The attacked
# sensor is flagged from the bits alone; the clean sensor is not.

data = generate_dataset(scenario, assignment, 200_000, base_seed=7, trial_index=0)
report = detect_all(scenario, cfg, data)
print("finite-sample run (K = 200000):")
print(report.to_table())
for anchor_id, estimate in report.secure_estimates:
    print(f"anchor {anchor_id} estimate: {float(estimate):.4f}")
