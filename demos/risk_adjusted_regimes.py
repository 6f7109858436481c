"""Map the regimes of the risk-adjusted (soft-penalty) objective.

Instead of hard outage budgets, the objective J(q, r) = q r
- lambda_cov * P[detection constraint violated] - lambda_rel * P[decoding
fails] prices both risks linearly.  Sweeping the covertness price lambda_cov
shows two regimes separated by a sharp transition: a cheap-risk regime where
the maximizer saturates and an expensive-risk regime where transmission shuts
off entirely.
"""

import numpy as np

from covertq import (
    GridSpec,
    ProtocolParams,
    RiskWeights,
    StochasticChannelSpec,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
    generate_sample_set,
    grid_maximize,
    heatmap_sweep,
)

K = 50_000
SEED = 1


def make_channel():
    # Short-frame channel: wider transmittance spread than the frontier demo,
    # so the shut-off price lands inside a modest sweep range.
    sigma = 0.07
    return StochasticChannelSpec(
        eta=TruncatedLognormalSpec(mu_ln=np.log(0.96) - 0.5 * sigma**2,
                                   sigma_ln=sigma),
        nb=TruncatedGaussianSpec(mu=0.01, sigma=0.005, upper=0.5),
    )


def main():
    samples = generate_sample_set(make_channel(), K=K, seed=SEED, workers=1)
    protocol = ProtocolParams(n=10**7, delta=0.05)
    grid = GridSpec(points_per_axis=201)

    free = grid_maximize(samples, RiskWeights(0.0, 0.0), protocol, grid)
    print(f"unpriced risk: strategy q={free.strategy.q}, r={free.strategy.r}, "
          f"J={free.j_value:.4f}")
    print()

    values = np.logspace(-2, 6, 17)
    # A one-weight sweep: the lambda_rel axis holds the single value 1.0.
    sweep = [row[0] for row in heatmap_sweep(samples, protocol, grid, values, [1.0])]
    print(f"{'lambda_cov':>11} {'q*':>8} {'r*':>8} {'J':>12} {'sparse?':>8}")
    for lam, best in zip(values, sweep):
        print(f"{lam:11.3e} {best.strategy.q:8.4f} {best.strategy.r:8.4f} "
              f"{best.j_value:12.6f} {str(best.outside_sparse_regime):>8}")

    on = [lam for lam, best in zip(values, sweep) if best.strategy.q > 0]
    if on and len(on) < len(values):
        print()
        print(f"transmission shuts off between lambda_cov = {max(on):.3e} "
              f"and {values[len(on)]:.3e}")


if __name__ == "__main__":
    main()
