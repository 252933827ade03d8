"""Sweep the sample size and watch error rates chase their exponents.

Detection errors decay exponentially in the per-sensor sample count K.
This script computes the decay exponents for the four-sensor toy
network, runs a small Monte Carlo over a grid of K, and lines the
empirical rates up against the closed-form bounds.

Run:  python3 demos/error_exponents_sweep.py
"""

from quantloc import (
    AttackAssignment,
    DetectorConfig,
    ExperimentPlan,
    GaussianNoise,
    Mima,
    Point,
    RoiDisc,
    ScenarioConfig,
    SensorSpec,
    attacked_distance,
    composite_exponents,
    delta_admissible,
    estimate_error_probs,
    no_attacks,
    prob_zero,
    validate_assumptions,
)

# -- step 1: a network the guarantees actually cover ---------------------------
# The exponent bounds are only meaningful when the geometric assumptions
# hold, so we start by checking them.

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
report = validate_assumptions(scenario)
print(f"assumptions all satisfied: {report.all_satisfied}")

limit = delta_admissible(scenario)
cfg = DetectorConfig(delta=19.0)
print(f"admissible slack {limit:g}, using delta = {cfg.delta:g}")

# -- step 2: the exponents in closed form --------------------------------------
# Each sensor contributes a handful of tail rates; the slowest one sets
# the composite exponent, and the bound is a fixed count of exponential
# terms evaluated at K.

K_GRID = (130_000, 160_000, 190_000)
rates = composite_exponents(scenario, no_attacks(), cfg)
print("\nper-sensor rates and composite bounds:")
print(rates.to_table(K_GRID))
print(f"false-alarm exponent: {rates.fa_exponent:.6e}")
for k in K_GRID:
    print(f"  K={k}: fa_bound = {rates.fa_bound(k):.4f}"
          f"  (= 12 exp(-{rates.fa_exponent:.3e} * {k}))")

# -- step 3: clean network, empirical vs bound ---------------------------------
# Forty trials per K.  The detection radius dwarfs the sampling noise at
# these sample sizes, so the empirical false-alarm rate is flat zero
# while the bound is already below one and shrinking; the certificate
# holds with room to spare.

plan = ExperimentPlan(
    scenario=scenario,
    assignment=no_attacks(),
    detector=cfg,
    k_grid=K_GRID,
    trials=40,
    base_seed=11,
    threads=0,
)
clean = estimate_error_probs(plan)
print("clean-network sweep:")
print(clean.to_table())
for row in clean.rows:
    verdict = "<=" if row.fa_hat <= row.fa_bound else ">"
    print(f"  K={row.k}: fa_hat {row.fa_hat:.4f} {verdict} bound {row.fa_bound:.4f}")

# -- step 4: an attack past the flagging boundary -------------------------------
# Flipping one-bits to zero a third of the time drifts the reconstructed
# distance well past the point where the asymptotic verdict flips to
# "attacked", while the zero-bit probability stays inside the ROI
# bracket.  At small K sampling noise still masks the drift now and
# then, so both error kinds show up; they die off as K grows and the
# fitted slope of ln(avg_err) against K comes out negative.  The miss
# certificate formally covers attacks above the significance floor
# kappa, which this toy's kappa of 1 makes unreachable, but the
# displacement here is large enough that the empirical rates land under
# the bounds once K makes them nontrivial.

attack = Mima(psi0=0.0, psi1=0.33)
assignment = AttackAssignment(specs={1: attack})
p_clean = prob_zero(scenario, 1)
p_tampered = attack.shift(p_clean)
drift = attacked_distance(scenario, 1, p_tampered) - attacked_distance(scenario, 1, p_clean)
print(f"\nattack drifts the distance by {drift:.2f} against delta = {cfg.delta:g}")

edge_plan = ExperimentPlan(
    scenario=scenario,
    assignment=assignment,
    detector=cfg,
    k_grid=(500, 1_000, 2_000, 5_000, 200_000),
    trials=200,
    base_seed=11,
    threads=0,
)
edge = estimate_error_probs(edge_plan)
print("attacked-network sweep:")
print(edge.to_table())
if edge.slope is None:
    print("decay slope: undefined (no positive error rates to fit)")
else:
    print(f"fitted slope of ln(avg_err) per K: {edge.slope:.3e}")
for row in edge.rows:
    print(f"  K={row.k}: miss_hat {row.miss_hat:.4f} ({row.miss_count}/{row.trials} trials)")
last = edge.rows[-1]
print(f"at K={last.k}: miss_hat {last.miss_hat:.4f} <= miss_bound {last.miss_bound:.4f}"
      f" and fa_hat {last.fa_hat:.4f} <= fa_bound {last.fa_bound:.4f}")
