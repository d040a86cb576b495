"""Generalization bounds for the pre-train / fine-tune pipeline.

Evaluates both stages' complexity terms, shows how the domain
discrepancy drives the fine-tuning bound, compares the two discrepancy
measures on random domain pairs, and quantifies why the fine-tuning
stage dominates when it sees far less data.
"""

import numpy as np

import oupac as op


def main():
    # a pre-trained model whose stationary covariance is mildly spread, and a
    # fine-tuning stage that shifts the minimizer and reshapes the covariance;
    # the pre-trained covariance is also the fine-tuning prior
    pair = op.DomainPair(op.make_spd(np.diag([1.4, 0.8])), op.make_spd(np.diag([1.0, 1.2])),
                         np.array([0.8, -0.3]))
    spec_pt, spec_ft = op.SampleSpec(10**6, 0.05), op.SampleSpec(10**3, 0.05)

    pretrain = op.pretrain_bound(pair.sigma_pt, spec_pt)
    print("pre-training stage (N = 1e6):")
    print(f"  divergence term   = {pretrain.kl_term:.6f}")
    print(f"  complexity term   = {pretrain.complexity_term:.6f}")
    print(f"  flipped-sign term = {pretrain.paper_literal_kl:.6f}")

    finetune = op.finetune_bound(pair, spec_ft)
    print("\nfine-tuning stage (N = 1e3):")
    print(f"  discrepancy D       = {op.discrepancy_d(pair):.6f}")
    print(f"  discrepancy D-tilde = {op.discrepancy_d_tilde(pair):.6f}")
    print(f"  complexity term     = {finetune.complexity_term:.6f}")

    report = op.dominance_report(pair, spec_pt, spec_ft)
    print(f"\ndominance: fine-tuning term is {report.ratio:.1f}x the "
          "pre-training term")

    print("\nshift scaling: the discrepancy grows quadratically in the shift")
    for t in (0.5, 1.0, 2.0, 4.0):
        scaled = op.DomainPair(pair.sigma_pt, pair.sigma_ft, t * pair.shift)
        print(f"  |shift| x {t:>3}: D = {op.discrepancy_d(scaled):.4f}")

    print("\nordering survey (does D <= D-tilde?), 100 random pairs per dim:")
    for row in op.lemma2_survey(dims=range(1, 6), pairs_per_dim=100, seed=11):
        print(f"  dim {row['dim']}: holds {row['holds']:>3}/100   "
              f"min margin {row['min_margin']:+.3f}")
    print("  (it holds exactly when tr(R) det(R) >= d^-d, R = Spt^-1 Sft, so it fails "
          "for strongly contracted target covariances)")


if __name__ == "__main__":
    main()
