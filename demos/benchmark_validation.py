"""Validate the Monte Carlo pipeline against the analytic benchmark channel.

For a constant-transmissivity channel with exponentially distributed thermal
occupation, the outage quantiles of both the covertness constant and the
achievable rate have closed forms.  This script crosses the two routes: the
closed forms evaluated directly, and the empirical quantile estimator run on
simulated draws of the same channel.
"""

import numpy as np

from covertq import (
    BenchmarkChannelSpec,
    ExponentialSpec,
    ProtocolParams,
    benchmark_qmax,
    benchmark_rmax,
    generate_sample_set,
    validate,
)

K = 200_000
SEED = 1


def main():
    channel = BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(10.0))
    protocol = ProtocolParams(n=10**7, delta=0.05)
    eps_list = [1e-3, 1e-2, 1e-1, 0.2, 0.5]

    print(f"benchmark channel: eta0={channel.eta0}, rate={channel.nb.rate}")
    print(f"K={K} draws, seed={SEED}, n={protocol.n:.0e}, delta={protocol.delta}")
    print()
    print(f"{'eps':>8} {'metric':>6} {'theory':>12} {'monte carlo':>12} {'rel err':>9}")
    samples = generate_sample_set(channel, K=K, seed=SEED, workers=1)
    for row in validate(samples, channel, protocol, eps_list):
        err = "-" if row.rel_error_percent is None else f"{row.rel_error_percent:.3f}%"
        print(f"{row.eps:8.3g} {row.metric:>6} {row.theory:12.6g} "
              f"{row.mc:12.6g} {err:>9}")

    # The closed forms alone, on a denser grid: tightening eps_cov starves
    # the pulse-occupancy ceiling while r_max decays toward zero.
    print()
    print(f"{'eps':>8} {'q_max':>12} {'r_max':>10}")
    for eps in np.logspace(-4, np.log10(0.5), 9):
        q = benchmark_qmax(channel, protocol, eps)
        r = benchmark_rmax(channel, eps)
        print(f"{eps:8.2g} {q:12.4e} {r:10.4f}")


if __name__ == "__main__":
    main()
