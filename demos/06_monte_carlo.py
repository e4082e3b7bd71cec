"""Simulated experiment: finite samples of pointer readings.

Positions and momenta cannot be read off the same shot, so the four
quadrature combinations are sampled separately and recombined. Error
bars come from jackknife blocks; the sample count needed for a target
precision grows as the inverse fourth power of the coupling.

Run:  python3 demos/06_monte_carlo.py
"""

import math

from tsvfsim.meter import attach_meter, new_experiment, postselect, run_coupled
from tsvfsim.network import nested_mzi_preset
from tsvfsim.sampling import (
    ReadoutPlan,
    calibrate_cost_model,
    estimate_from_samples,
    required_samples,
    sample_readings,
)

g, sigma, n, seed = 0.3, 1.0, 100_000, 42

exp = attach_meter(new_experiment(nested_mzi_preset()), "B", 2, g, sigma)
exp = attach_meter(exp, "E", 3, g, sigma)
mixture = postselect(run_coupled(exp), "D2")


def batches():
    """One combination's readings at a time; the estimator takes each batch's
    moments and lets it go before the next one is drawn."""
    for k, quads in enumerate((("x", "x"), ("p", "p"), ("x", "p"), ("p", "x"))):
        batch = sample_readings(mixture, ReadoutPlan(quads, n, seed + k))
        print(f"combo {quads[0]}{quads[1]}: {n} readings, "
              f"{batch.acceptance_rate:.2f} block rows filled per candidate drawn")
        yield batch
        del batch


est = estimate_from_samples(batches())
se = math.hypot(*est.sequential_stderr)
print(f"\nsequential weak-value estimate: {est.sequential:.4f}")
print(f"propagated standard error:      {se:.4f}")
print("exact value at this coupling:    0.5 + small quadratic bias\n")

model = calibrate_cost_model(mixture, est.sequential, n=40_000, seed=7)
print(f"calibrated cost constant: {model.constant:.1f}")
print("samples needed per combo for 5% relative error:")
for gg in (0.5, 0.3, 0.2, 0.1):
    needed = required_samples(gg, gg, sigma, 0.05, model)
    print(f"  g = {gg:4.2f}: {needed:>12,}")
print("halving g multiplies the bill by sixteen.")
