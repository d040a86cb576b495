"""Simulated SGD chains settle onto the predicted stationary covariance.

Runs a constant-rate SGD chain on a random quadratic loss and compares
the empirical covariance against two predictions: the exact discrete
stationary covariance (the Stein law, ``A X + X A - lr A X A = lr C``
for batch 1) and the continuous-time Lyapunov covariance, which the
discrete one approaches as the learning rate shrinks, with a relative
gap of about lr times a constant.
"""

import numpy as np

import oupac as op


def spd_square_root(entries):
    lam, vecs = np.linalg.eigh(entries)
    return (vecs * np.sqrt(lam)) @ vecs.T


def lyapunov_law(loss, dyn):
    """The continuous model's stationary covariance, the Stein law's small-rate limit."""
    return op.stationary_from_dynamics(loss.hessian, loss.minimizer, dyn.noise_cov,
                                       dyn.lr, dyn.batch_size).covariance.entries


def main():
    dim = 3
    hessian = op.random_spd(dim, 0.3, 1.0, seed=1)
    noise_cov = op.random_spd(dim, 0.5, 2.0, seed=2)
    noise_factor = spd_square_root(noise_cov.entries)
    loss = op.QuadraticLoss(hessian, np.zeros(dim))

    print("Stein vs Lyapunov covariance as the learning rate shrinks")
    print(f"{'lr':>6} {'spectral radius':>16} {'rel Frobenius gap':>18} {'gap / lr':>9}")
    for lr in (0.1, 0.05, 0.01, 1e-4, 1e-6, 1e-8):
        dyn = op.SgdDynamics(lr, 1, noise_factor)
        report = op.stability_check(loss, dyn)
        stein = op.stein_stationary_covariance(hessian, dyn.noise_cov, lr, 1).entries
        lyap = lyapunov_law(loss, dyn)
        gap = np.linalg.norm(stein - lyap, "fro") / np.linalg.norm(lyap, "fro")
        print(f"{lr:>6g} {report.spectral_radius:>16.10f} {gap:>18.4e} {gap / lr:>9.4f}")

    lr = 0.1
    dyn = op.SgdDynamics(lr, 1, noise_factor)
    steps = 500_000
    print(f"\nSimulating {steps} steps at lr={lr} ...")
    trajectory = op.simulate_chain(np.zeros(dim), loss, dyn, steps, stride=1, seed=3)
    estimate = op.estimate_stationary(trajectory, burn_in_records=steps // 10)

    stein = op.stein_stationary_covariance(hessian, dyn.noise_cov, lr, 1).entries
    empirical = estimate.covariance.entries
    rel = np.linalg.norm(empirical - stein, "fro") / np.linalg.norm(stein, "fro")
    print(f"empirical vs Stein covariance: {rel:.4%} relative Frobenius error")
    print("empirical diagonal:", np.round(np.diag(empirical), 5))
    print("Stein diagonal:    ", np.round(np.diag(stein), 5))

    lyap = lyapunov_law(loss, dyn)
    trace_pred = 0.5 * lr * np.trace(
        np.linalg.solve(hessian.entries, dyn.noise_cov.entries)
    )
    print(f"trace identity on the Lyapunov solution: tr(S) = {np.trace(lyap):.6f}  "
          f"(lr/batch) tr(C A^-1) / 2 = {trace_pred:.6f}")


if __name__ == "__main__":
    main()
