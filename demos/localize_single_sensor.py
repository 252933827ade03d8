"""Walk through one-bit localization for a single clean sensor.

A sensor never reports its measured power; it sends one thresholded bit
per sample.  The fusion center recovers the sensor-to-target distance
from nothing but the empirical frequency of zero bits.  This script
builds a four-sensor network, samples growing batches of bits for one
sensor, and watches the inverted estimate close in on the true range.

Run:  python3 demos/localize_single_sensor.py
"""

import math

from quantloc import (
    GaussianNoise,
    Point,
    QuantizedDataset,
    RoiDisc,
    ScenarioConfig,
    SensorSpec,
    nmle_distance,
    prob_zero,
    quantize,
    sample_signal,
)

# -- step 1: a small network ------------------------------------------------
# Two ordinary sensors on the x axis, two tamper-proof anchors farther out,
# and a target disc centered 100 units above the origin.

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

sensor_id = 1
true_distance = math.hypot(-30.0 - 0.0, 0.0 - 100.0)
print(f"sensor {sensor_id} true distance to target: {true_distance:.4f}")

# -- step 2: what the bit stream encodes -------------------------------------
# The zero-bit probability is a monotone function of distance, so knowing
# it pins the range down.  The ROI also brackets the reachable
# probabilities, which later clamps rounding at extreme frequencies.

p = prob_zero(scenario, sensor_id)
row = scenario.constants().row(sensor_id)
bounds = scenario.distance_bounds()
print(f"zero-bit probability at the target: {p:.6f}")
print(f"probability bracket from the ROI:   [{row.rho_l:.6f}, {row.rho_u:.6f}]")
print(f"distance bracket from the ROI:      [{bounds.d_lower:.3f}, {bounds.d_upper:.3f}]")

# -- step 3: sample, threshold, invert ---------------------------------------
# One long signal draw; prefixes of it give every smaller K, so the rows
# below show the same experiment at increasing sample sizes rather than
# independent reruns.

k_ladder = (100, 1_000, 10_000, 100_000, 1_000_000)
signal = sample_signal(scenario, sensor_id, k_ladder[-1], seed=(2026, 0))
bits = quantize(scenario, sensor_id, signal)


def zero_freq(j, record):
    """A record's zero-bit frequency, counted as the fusion center counts it."""
    return QuantizedDataset(bits={j: record}, k=record.size, rng_seed=2026).freq(j)


print("\n      K        xi_hat       D_hat    rel_error")
for k in k_ladder:
    freq = zero_freq(sensor_id, bits[:k])
    estimate = nmle_distance(scenario, sensor_id, freq)
    rel = abs(float(estimate) - true_distance) / true_distance
    flag = "  (clamped)" if estimate.clamped else ""
    print(f"{k:>9d}   {freq.xi:.6f}   {float(estimate):9.4f}   {rel:9.2e}{flag}")

# -- step 4: the anchors see the same target ---------------------------------
# The secure pair brackets the target from both sides; their estimates are
# what the attack detector will later trust as ground truth.

print()
for anchor_id in (3, 4):
    sig = sample_signal(scenario, anchor_id, k_ladder[-1], seed=(2026, 0))
    est = nmle_distance(
        scenario, anchor_id, zero_freq(anchor_id, quantize(scenario, anchor_id, sig))
    )
    true_d = math.hypot(
        scenario.sensor(anchor_id).position.x - scenario.target.x,
        scenario.sensor(anchor_id).position.y - scenario.target.y,
    )
    print(f"anchor {anchor_id}: D_hat = {float(est):9.4f}  (true {true_d:.4f})")
