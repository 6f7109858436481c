"""Trace the risk-constrained throughput frontier over a fading channel.

Draws a Monte Carlo ensemble of channel realizations, then sweeps the
symmetric outage budget eps_cov = eps_rel = eps.  At each point the optimal
strategy is the product of two marginal strict-outage quantiles, so the
frontier decomposes into a covertness-limited factor q_max and a
reliability-limited factor r_max.  Also reports the payload gained per decade
of admitted risk and the square-root law in the block length n.
"""

import numpy as np

from covertq import (
    ProtocolParams,
    StochasticChannelSpec,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
    decade_gains,
    frontier_sweep,
    generate_sample_set,
    n_scaling_sweep,
)

K = 200_000
SEED = 1


def make_channel():
    return StochasticChannelSpec(
        eta=TruncatedLognormalSpec(mu_ln=-0.0126, sigma_ln=0.05),
        nb=TruncatedGaussianSpec(mu=0.005, sigma=0.001, upper=0.5),
    )


def main():
    samples = generate_sample_set(make_channel(), K=K, seed=SEED, workers=1)
    protocol = ProtocolParams(n=10**7, delta=0.05)

    eps_grid = np.logspace(-5, -1, 13)
    frontier = frontier_sweep(samples, protocol, eps_grid)

    print(f"K={K} channel draws, n={protocol.n:.0e}, delta={protocol.delta}")
    print()
    print(f"{'eps':>9} {'q_max':>12} {'r_max':>9} {'payload n*t':>12} {'capped':>7}")
    for eps, rep in frontier:
        print(f"{eps:9.2e} {rep.q_max:12.4e} {rep.r_max:9.4f} "
              f"{rep.total_payload:12.3f} {str(rep.q_capped):>7}")

    print()
    print("payload gain per decade of symmetric risk:")
    for lo, hi, gain in decade_gains(samples, protocol):
        text = "infeasible" if gain is None else f"{gain:.3f}x"
        print(f"  eps {lo:.0e} -> {hi:.0e}: {text}")

    # Payload grows like sqrt(n): quadrupling n should double n * t_star.
    print()
    print("block-length scaling at eps = 0.01:")
    rows = n_scaling_sweep(samples, delta=0.05, eps=0.01,
                           n_grid=[10**6, 4 * 10**6, 16 * 10**6])
    base = rows[0][1]
    for n_val, payload in rows:
        print(f"  n={n_val:>9d}  payload={payload:10.3f}  "
              f"ratio to first = {payload / base:.4f}")


if __name__ == "__main__":
    main()
