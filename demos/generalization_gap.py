"""Measured generalization gaps stay under the bound, and both shrink.

Runs independent linear-regression trials: each draws a dataset, builds
the exact empirical quadratic, takes the SGD stationary Gaussian as the
posterior, and compares the true generalization gap against the
complexity term.  Then sweeps the sample size to show the bound's
1/sqrt(N) decay.
"""

import numpy as np

import oupac as op


def main():
    task = op.RegressionTask(
        true_weights=np.array([0.3, -0.2]),
        feature_cov=op.make_spd(np.eye(2)),
        noise_std=1.0,
    )
    dynamics = op.SgdDynamics(lr=0.1, batch_size=10, noise_factor=np.eye(2))
    prior = op.standard_gaussian(2)

    # the spec's N is both each trial's sample size and the bound's
    spec = op.SampleSpec(sample_size=100, delta=0.05)
    result = op.bound_validity_experiment(task, dynamics, spec, prior, trials=200, master_seed=1)
    print(f"bound validity, 200 trials at N={spec.sample_size}, delta={spec.delta}:")
    print(f"  violations   {result.violation_count} / 200")
    print(f"  gap    mean {result.gaps['mean']:+.4f}   max {result.gaps['max']:+.4f}")
    print(f"  bound  mean {result.bounds['mean']:.4f}   min {result.bounds['min']:.4f}")
    print(f"  note: {result.note}")

    print("\nbound decay with sample size (20 trials per size):")
    rows = op.scaling_experiment(
        task, [100, 400, 1600, 6400, 25600], dynamics, spec.delta, master_seed=2
    )
    print(f"{'N':>7} {'mean bound':>12} {'mean gap':>12} {'bound(4N)/bound(N)':>20}")
    for row in rows:
        ratio = "" if row["ratio_bound_4n"] is None else f"{row['ratio_bound_4n']:.3f}"
        print(f"{row['n']:>7} {row['mean_bound']:>12.5f} "
              f"{row['mean_gap']:>12.5f} {ratio:>20}")
    print("a ratio near 0.5 is the signature of 1/sqrt(N) decay")


if __name__ == "__main__":
    main()
