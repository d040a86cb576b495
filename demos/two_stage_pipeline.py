"""Two-stage simulation: pre-train, then fine-tune from the learned state.

Replica chains first settle around the pre-training minimizer, then the
fine-tuning chains start from the pre-trained stationary state and
transport to the shifted minimizer.  Pooled moments from the simulation
match the analytic stationary means of both stages, and the pooled
variances match the chain's exact stationary variance, the Stein
solution of the step map (lr / (2 - lr) = 0.02564 at lr = 0.05).  The
Lyapunov variance (lr / 2 = 0.025) is its small-rate limit.
"""

import numpy as np

import oupac as op


def main():
    hessian = op.make_spd(np.eye(2))
    pt_loss = op.QuadraticLoss(hessian, np.zeros(2))
    ft_loss = op.QuadraticLoss(hessian, np.array([1.0, 0.0]))
    dyn = op.SgdDynamics(lr=0.05, batch_size=1, noise_factor=np.eye(2))

    result = op.two_stage_run(
        pt_loss, dyn, ft_loss, dyn,
        pt_steps=60_000, ft_steps=120_000, replicas=6, stride=1,
        master_seed=42, init_mode="analytic_sample",
    )

    pt_analytic = op.stationary_from_dynamics(
        hessian, pt_loss.minimizer, dyn.noise_cov, dyn.lr, dyn.batch_size
    )
    ft_analytic = op.stationary_from_dynamics(
        hessian, ft_loss.minimizer, dyn.noise_cov, dyn.lr, dyn.batch_size
    )

    stein = op.stein_stationary_covariance(hessian, dyn.noise_cov, dyn.lr, dyn.batch_size)

    print("pre-training stage:")
    print(f"  pooled records   {result.pt_estimate.sample_count}")
    print(f"  pooled mean      {np.round(result.pt_estimate.mean, 4)}")
    print(f"  analytic mean    {pt_analytic.mean}")
    print(f"  pooled var diag  {np.round(np.diag(result.pt_estimate.covariance.entries), 5)}")
    print(f"  Stein var        {np.round(np.diag(stein.entries), 5)}  (exact chain law)")
    print(f"  Lyapunov var     {np.round(np.diag(pt_analytic.covariance.entries), 5)}"
          "  (small-rate limit)")

    print("\nfine-tuning stage (minimizer shifted to (1, 0)):")
    print(f"  pooled records   {result.ft_estimate.sample_count}")
    print(f"  pooled mean      {np.round(result.ft_estimate.mean, 4)}")
    print(f"  analytic mean    {ft_analytic.mean}")
    print(f"  pooled var diag  {np.round(np.diag(result.ft_estimate.covariance.entries), 5)}")
    print(f"  Stein var        {np.round(np.diag(stein.entries), 5)}  (exact chain law)")
    print(f"  Lyapunov var     {np.round(np.diag(ft_analytic.covariance.entries), 5)}"
          "  (small-rate limit)")

    shift = op.kl_divergence(ft_analytic, pt_analytic)
    print(f"\nKL between the two stationary measures: {shift:.4f}")
    print("which is half the domain discrepancy:",
          f"{op.discrepancy_d(op.DomainPair(pt_analytic.covariance, ft_analytic.covariance, ft_loss.minimizer)) / 2:.4f}")


if __name__ == "__main__":
    main()
