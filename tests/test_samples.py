"""Sample-set generation, digests, and the binary cache round trip."""

import gc
import hashlib
import importlib
import inspect
import os
import pkgutil
import re
import struct
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from covertq import (
    BenchmarkChannelSpec,
    ExponentialSpec,
    GridSpec,
    ProtocolParams,
    RiskBudgets,
    RiskWeights,
    SampleSet,
    Strategy,
    StochasticChannelSpec,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
    achievable_rate,
    channel_digest,
    covertness_constant,
    generate_sample_set,
    grid_maximize,
    heatmap_sweep,
    load_sample_set,
    objective,
    optimize,
    order_index,
    save_sample_set,
    strict_outage_quantile,
)
import covertq
from covertq import cli, samples
from covertq.samples import (
    SampleFileDigestError,
    SampleFileFormatError,
    SampleFileTruncatedError,
    SampleFileVersionError,
)
from covertq.distributions import (
    STREAM_CHUNK,
    _exponential_map,
    _gaussian_map,
    _lognormal_map,
    sample_exponential,
    sample_truncated_gaussian,
    sample_truncated_lognormal,
    stream_uniforms,
)
from covertq.physics import _depolarizing_into

from conftest import (
    make_baseline_spec,
    make_volatile_spec,
    peak_bytes,
    reference_achievable_rate,
    reference_covertness_constant,
    run_fresh,
)


def small_benchmark_spec():
    return BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(rate=10.0))


def ramp_set(K):
    # Strictly ascending values in [0, 1): legal for both arrays.
    values = np.arange(K) / K
    return SampleSet(ccov=values, rach=values.copy(), seed=1,
                     channel_digest=channel_digest(make_baseline_spec()))


# ---------------------------------------------------------------------------
# digests


def test_channel_digest_stability_and_distinctness():
    a = channel_digest(make_baseline_spec())
    assert a == channel_digest(make_baseline_spec())
    assert len(a) == 32
    other = StochasticChannelSpec(
        eta=TruncatedLognormalSpec(mu_ln=-0.013, sigma_ln=0.05),
        nb=TruncatedGaussianSpec(mu=0.005, sigma=0.001, upper=0.5),
    )
    assert channel_digest(other) != a
    assert channel_digest(small_benchmark_spec()) != a


def test_channel_digest_int_float_equivalence():
    # Specs coerce numerics to float, so 1 and 1.0 hash identically.
    a = BenchmarkChannelSpec(eta0=0.5, nb=ExponentialSpec(rate=10))
    b = BenchmarkChannelSpec(eta0=0.5, nb=ExponentialSpec(rate=10.0))
    assert channel_digest(a) == channel_digest(b)


def test_channel_digest_rejects_other_types():
    with pytest.raises(TypeError):
        channel_digest("not a spec")


def test_channel_digests_are_pinned():
    # Each kind's field order, pinned without the host: the reference CSV
    # hashes pin these too, but only where numpy dispatches X86_V4.
    default = cli.resolve_config(cli._parser().parse_args(["optimize"])).channel
    assert channel_digest(default).hex() == (
        "5f1ebc823432f51a561ab03b84b2e834be71894eb1142b5b541c7dfdba79845c")
    assert channel_digest(small_benchmark_spec()).hex() == (
        "84b0690bca8aef7f2172be99320ac254b231fa19ed66b48f04dae922f4916f81")
    with pytest.raises(TypeError, match="not a channel spec"):
        channel_digest(make_baseline_spec().eta)


# ---------------------------------------------------------------------------
# drawing realizations


def test_draw_stochastic_stream_layout():
    # Rows [40, 100) of a 100-row run: eta from stream position 40 and nb
    # from 140, the positions generate_sample_set passes.
    spec = make_baseline_spec()
    eta, nb = np.empty(60), np.empty(60)
    spec._draw(5, 40, 140, eta, nb)
    np.testing.assert_array_equal(
        eta, sample_truncated_lognormal(spec.eta, 60, 5, 40)
    )
    np.testing.assert_array_equal(
        nb, sample_truncated_gaussian(spec.nb, 60, 5, 140)
    )


def test_draw_benchmark_skips_eta_span():
    # eta is constant for the benchmark variant, but nb must occupy the same
    # stream positions as in the stochastic case.
    spec = small_benchmark_spec()
    eta, nb = np.empty(60), np.empty(60)
    spec._draw(5, 40, 140, eta, nb)
    assert eta.shape == (60,) and np.all(eta == 0.9)
    np.testing.assert_array_equal(
        nb, sample_exponential(spec.nb, 60, 5, 140)
    )


# ---------------------------------------------------------------------------
# generation


def test_generate_sorted_and_consistent_with_physics():
    spec = make_baseline_spec()
    s = generate_sample_set(spec, 500, seed=3)
    assert np.all(np.diff(s.ccov) >= 0.0)
    assert np.all(np.diff(s.rach) >= 0.0)
    eta = sample_truncated_lognormal(spec.eta, 500, 3, 0)
    nb = sample_truncated_gaussian(spec.nb, 500, 3, 500)
    np.testing.assert_array_equal(s.ccov, np.sort(covertness_constant(eta, nb)))
    np.testing.assert_array_equal(s.rach, np.sort(achievable_rate(eta, nb)))
    assert s.K == 500 and s.seed == 3
    assert s.channel_digest == channel_digest(spec)


def test_generate_k_one():
    s = generate_sample_set(small_benchmark_spec(), 1, seed=0)
    assert s.ccov.shape == (1,) and s.rach.shape == (1,)


@pytest.mark.parametrize("block", [STREAM_CHUNK, 2 * STREAM_CHUNK, 40_000, 1_000],
                         ids=["one-chunk", "two-chunks", "unaligned-40000", "unaligned-1000"])
@pytest.mark.parametrize("spec", [make_baseline_spec(), small_benchmark_spec()],
                         ids=["stochastic", "benchmark"])
def test_output_bytes_do_not_depend_on_the_block_size(spec, block, monkeypatch):
    # Blocks of any size, chunk-aligned or not, at one and two workers.
    K, seed = 3 * STREAM_CHUNK + 7, 11
    ref = generate_sample_set(spec, K, seed)
    monkeypatch.setattr(samples, "_BLOCK", block)
    for workers in (1, 2):
        s = generate_sample_set(spec, K, seed, workers=workers)
        assert s.ccov.tobytes() == ref.ccov.tobytes(), workers
        assert s.rach.tobytes() == ref.rach.tobytes(), workers


@pytest.mark.parametrize("spec", [make_baseline_spec(), small_benchmark_spec()],
                         ids=["stochastic", "benchmark"])
def test_blocked_generation_matches_whole_array(spec, monkeypatch):
    # Several blocks and a partial last one; the nb span starts mid-chunk,
    # so its blocks straddle stream chunks.  The reference draws all rows in
    # one span, reduces them with the whole-expression physics and sorts.
    # Eight workers ask for more threads than most machines have CPUs.
    K, seed = 3 * 2**16 + 12_345, 13
    eta, nb = np.empty(K), np.empty(K)
    spec._draw(seed, 0, K, eta, nb)
    ccov = np.sort(reference_covertness_constant(eta, nb))
    rach = np.sort(reference_achievable_rate(eta, nb))

    pool_sizes = []

    class RecordingPool(samples.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(samples, "ThreadPoolExecutor", RecordingPool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the block workers finely
    try:
        for workers in (1, 2, 3, 8):
            s = generate_sample_set(spec, K, seed, workers=workers)
            assert s.ccov.tobytes() == ccov.tobytes(), workers
            assert s.rach.tobytes() == rach.tobytes(), workers
    finally:
        sys.setswitchinterval(interval)
    n_blocks = -(-K // samples._BLOCK)
    threads = [min(w, samples._usable_cpus(), n_blocks) for w in (1, 2, 3, 8)]
    assert pool_sizes == [t for t in threads if t > 1]


@pytest.mark.parametrize("workers", [1, 2])
def test_generation_peak_memory_per_worker(workers):
    # Beyond the 16 * K bytes of the result, each worker holds its eta and
    # nb block buffers and one physics scratch array at a time: three block
    # arrays, under a bound of three and a half.  Several blocks and a
    # partial last one; the warm-up call keeps lazy imports out of the trace.
    K = 3 * 2**16 + 12_345
    spec = make_baseline_spec()
    generate_sample_set(spec, K, seed=1, workers=workers)
    peak, s = peak_bytes(lambda: generate_sample_set(spec, K, seed=1, workers=workers))
    assert s.K == K
    threads = min(workers, samples._usable_cpus())
    blocks = (peak - 16 * K) / (8 * samples._BLOCK)
    assert blocks < 3.5 * threads, blocks


@pytest.mark.parametrize("workers", [1, 2])
def test_tail_generation_peaks_no_higher_than_full(workers):
    # A tail set is selected in place in the two K-row arrays the blocks
    # fill, with one block of scratch for the rates: no other K-row array.
    # So it stays within the full path's bound, and at one worker, where the
    # peak does not depend on thread timing, within a kilobyte (a few
    # interpreter objects) of the full path's own peak.
    K = 3 * 2**16 + 12_345
    spec = make_baseline_spec()
    threads = min(workers, samples._usable_cpus())
    generate_sample_set(spec, K, seed=1, workers=workers)
    full_peak, _ = peak_bytes(lambda: generate_sample_set(spec, K, seed=1, workers=workers))
    for eps in (1e-3, 0.1, 0.5):
        generate_sample_set(spec, K, seed=1, workers=workers, eps_max=eps)
        peak, s = peak_bytes(
            lambda: generate_sample_set(spec, K, seed=1, workers=workers, eps_max=eps))
        assert s.K == K and len(s.ccov) < K
        blocks = (peak - 16 * K) / (8 * samples._BLOCK)
        assert blocks < 3.5 * threads, (eps, blocks)
        if threads == 1:
            assert peak <= full_peak + 1024, (eps, peak, full_peak)


def test_load_peak_memory_is_not_k_sized(tmp_path):
    # The payload is mapped, and the sortedness check reuses one piece's
    # comparison buffer (_CHECK_PAIRS bools): nothing of K rows is allocated.
    K = 2**20
    path = tmp_path / "s.cqcs"
    save_sample_set(ramp_set(K), path)
    load_sample_set(path)
    peak, s = peak_bytes(lambda: load_sample_set(path))
    assert s.K == K
    assert peak < 256 << 10, peak


def test_cache_round_trip_peak_memory_near_payload(tmp_path):
    K = 2**20
    path, copy = tmp_path / "s.cqcs", tmp_path / "copy.cqcs"
    save_sample_set(generate_sample_set(small_benchmark_spec(), K, seed=1), path)

    # The save goes to a second file: saving over the file a set is mapped
    # from is covered in a subprocess (see
    # test_mapped_set_survives_overwrite_of_its_file), where a regression to
    # in-place saves ends one test with SIGBUS instead of the whole run.
    def round_trip():
        t = load_sample_set(path)
        save_sample_set(t, copy)
        return t

    peak, t = peak_bytes(round_trip)
    assert peak < 1.25 * 16 * K, peak / (16 * K)
    for arr in (t.ccov, t.rach):
        assert arr.dtype == np.float64
        assert arr.flags.writeable and arr.flags.c_contiguous
    assert load_sample_set(copy).ccov.tobytes() == t.ccov.tobytes()


def test_load_checks_size_before_allocating(tmp_path):
    # A header declaring K = 2**40 on a bare 64-byte file is reported as
    # truncated without asking for the 16 TiB its arrays would need.
    path = tmp_path / "huge.cqcs"
    path.write_bytes(struct.pack("<4sIQQ32s8x", b"CQCS", 1, 2**40, 0, b"\0" * 32))

    def load():
        with pytest.raises(SampleFileTruncatedError):
            load_sample_set(path)

    peak, _ = peak_bytes(load)
    assert peak < 1 << 20


def test_generate_pool_bounded_by_cpu_count(monkeypatch):
    # A serial stand-in records the pool size and starts no thread.  The
    # cap is the CPUs the process may run on, not the machine's count.
    pool_sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(samples, "ThreadPoolExecutor", SerialPool)
    spec = make_baseline_spec()
    K = 2 * samples._BLOCK + 1  # three blocks, so a pool can start
    ref = generate_sample_set(spec, K, seed=7, workers=1)
    alt = generate_sample_set(spec, K, seed=7, workers=1_000_000)
    assert all(size <= samples._usable_cpus() for size in pool_sizes)
    assert np.array_equal(alt.ccov, ref.ccov)
    assert np.array_equal(alt.rach, ref.rach)

    pool_sizes.clear()
    monkeypatch.setattr(samples.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one = generate_sample_set(spec, K, seed=7, workers=2)
    assert pool_sizes == []
    assert one.ccov.tobytes() == ref.ccov.tobytes()
    assert one.rach.tobytes() == ref.rach.tobytes()


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    # A platform without sched_getaffinity caps threads at the machine's
    # CPU count, and the bytes stay those of one worker.
    spec = make_baseline_spec()
    K = 2 * samples._BLOCK + 1
    ref = generate_sample_set(spec, K, seed=7, workers=1)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert samples._usable_cpus() == (os.cpu_count() or 1)
    alt = generate_sample_set(spec, K, seed=7, workers=2)
    assert alt.ccov.tobytes() == ref.ccov.tobytes()
    assert alt.rach.tobytes() == ref.rach.tobytes()


def test_generate_degenerate_stochastic_collapses_to_point():
    spec = StochasticChannelSpec(
        eta=TruncatedLognormalSpec(mu_ln=np.log(0.9), sigma_ln=1e-9),
        nb=TruncatedGaussianSpec(mu=0.23026, sigma=1e-12, upper=0.5),
    )
    s = generate_sample_set(spec, 2000, seed=1)
    np.testing.assert_allclose(s.ccov, 7.0736, rtol=0, atol=1e-3)


def test_generate_validation():
    with pytest.raises(ValueError):
        generate_sample_set(small_benchmark_spec(), 0, seed=1)
    with pytest.raises(ValueError):
        generate_sample_set(small_benchmark_spec(), 10, seed=1, workers=0)
    with pytest.raises(TypeError):
        generate_sample_set(object(), 10, seed=1)
    with pytest.raises(ValueError, match="eps must lie in"):
        generate_sample_set(small_benchmark_spec(), 10, seed=1, eps_max=1.0)


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.zeros(3), np.zeros(2), seed=0, channel_digest=b"\0" * 32)
    with pytest.raises(ValueError):
        SampleSet(np.zeros(0), np.zeros(0), seed=0, channel_digest=b"\0" * 32)
    with pytest.raises(ValueError, match="K=2 draws cannot give 3 rows"):
        SampleSet(np.zeros(3), np.zeros(3), seed=0, channel_digest=b"\0" * 32, K=2)
    assert SampleSet(np.zeros(3), np.zeros(3), seed=0, channel_digest=b"\0" * 32).K == 3


# ---------------------------------------------------------------------------
# tail sets


def atom_heavy_spec():
    # Transmittance around 0.75, where the depolarizing probability crosses
    # the hashing bound's zero: about half the rates sit in the r_ach = 0
    # atom.
    return StochasticChannelSpec(
        eta=TruncatedLognormalSpec(mu_ln=float(np.log(0.75)), sigma_ln=0.1),
        nb=TruncatedGaussianSpec(mu=0.005, sigma=0.001, upper=0.5),
    )


def with_fields(spec, eta=None, nb=None):
    # The baseline law with some fields of its eta or nb law replaced.
    return StochasticChannelSpec(
        eta=TruncatedLognormalSpec(**{"mu_ln": spec.eta.mu_ln, "sigma_ln": spec.eta.sigma_ln,
                                      **(eta or {})}),
        nb=TruncatedGaussianSpec(**{"mu": spec.nb.mu, "sigma": spec.nb.sigma,
                                    "upper": spec.nb.upper, "lower": spec.nb.lower,
                                    **(nb or {})}),
    )


# Laws whose draws run against the screen's assumptions: nb falls as its
# uniform rises (the truncated Gaussian's mirrored branch, here with eta
# nearly fixed, so nb alone orders the rows), a noise floor that clips nb,
# and eta within 1e-9 of 1, where c_cov reaches +inf.
TAIL_LAWS = {
    "stochastic": make_baseline_spec(),
    "benchmark": small_benchmark_spec(),
    "atom-heavy": atom_heavy_spec(),
    "mirrored-fixed-eta": with_fields(make_baseline_spec(), eta={"sigma_ln": 1e-6},
                                      nb={"lower": 0.006}),
    "noise-floor": with_fields(make_baseline_spec(), nb={"lower": 0.004}),
    "eta-near-one": with_fields(make_baseline_spec(), eta={"mu_ln": -1e-9, "sigma_ln": 1e-9}),
}

# Sizes drawn at random in each regime: one block, several whole blocks,
# several with a partial last one, and a size where the tail screen runs.
_rng = np.random.default_rng(36)
TAIL_KS = {
    "one-block": int(_rng.integers(2, samples._BLOCK)),
    "whole-blocks": int(_rng.integers(2, 5)) * samples._BLOCK,
    "partial-last-block": int(_rng.integers(samples._BLOCK + 1, 4 * samples._BLOCK)),
    "one-draw": 1,
    "screened": int(_rng.integers(samples._SCREEN_MIN_K, 4 * samples._BLOCK)),
}


@pytest.mark.parametrize("K", TAIL_KS.values(), ids=TAIL_KS)
@pytest.mark.parametrize("spec", TAIL_LAWS.values(), ids=TAIL_LAWS)
def test_tail_set_is_the_full_sets_prefix(spec, K):
    # From a budget below 1/K (m = 1) up to 0.5, at one and two workers, the
    # tail holds the full set's first m entries of each array, bit for bit,
    # and keeps the full set's K, seed and digest.
    full = generate_sample_set(spec, K, seed=3)
    for eps in (0.5 / K, 1e-3, 0.1, 0.5):
        m = min(order_index(eps, K), K - 1) + 1
        for workers in (1, 2):
            t = generate_sample_set(spec, K, seed=3, workers=workers, eps_max=eps)
            assert (t.K, t.seed, t.channel_digest) == (K, 3, full.channel_digest)
            assert (len(t.ccov), len(t.rach)) == (m, m), (eps, workers)
            assert t.ccov.tobytes() == full.ccov[:m].tobytes(), (eps, workers)
            assert t.rach.tobytes() == full.rach[:m].tobytes(), (eps, workers)


def test_atom_heavy_channel_puts_about_half_the_rates_at_zero():
    s = generate_sample_set(atom_heavy_spec(), 20_000, seed=3)
    assert 0.4 < np.count_nonzero(s.rach == 0.0) / s.K < 0.6


@pytest.mark.parametrize("spec", [make_baseline_spec(), make_volatile_spec()],
                         ids=["baseline", "volatile"])
def test_screen_maps_few_rows_at_small_budgets(spec, monkeypatch):
    # At eps_max = 0.01 the screen runs and rates only the rows that can reach
    # either tail: under 10% of them on baseline and under 20% on volatile.  A
    # budget that would map most rows, a small K and the benchmark kind draw
    # and rate every row.
    K = 10**5
    full = generate_sample_set(spec, K, seed=1)
    rated = []
    monkeypatch.setattr(samples, "achievable_rate", lambda eta, nb, out: (
        rated.append(len(eta)), achievable_rate(eta, nb, out=out)))
    t = generate_sample_set(spec, K, seed=1, eps_max=0.01)
    m = len(t.ccov)
    assert t.ccov.tobytes() == full.ccov[:m].tobytes()
    assert t.rach.tobytes() == full.rach[:m].tobytes()
    assert sum(rated) < (0.1 if spec == make_baseline_spec() else 0.2) * K, sum(rated)
    for other, K_other, eps in ((spec, K, 0.5), (spec, samples._SCREEN_MIN_K - 1, 0.01),
                                (small_benchmark_spec(), K, 0.01)):
        rated.clear()
        generate_sample_set(other, K_other, seed=1, eps_max=eps)
        assert sum(rated) == K_other, (K_other, eps)


# The stochastic laws the tail tests draw, and the volatile channel.
CELL_LAWS = {**{name: spec for name, spec in TAIL_LAWS.items()
                if isinstance(spec, StochasticChannelSpec)},
             "volatile": make_volatile_spec()}


@pytest.mark.parametrize("spec", CELL_LAWS.values(), ids=CELL_LAWS)
def test_every_row_lies_inside_its_cells_bounds(spec):
    # The screen's premise: every row's c_cov and rate lie inside the bounds
    # _cell_bounds gives the cell of its two uniforms, so the rows of the
    # unmapped cells can reach neither tail.
    ccov_lo, ccov_hi, r_lo, r_hi = samples._cell_bounds(spec)
    K = 4 * samples._BLOCK + 123
    for seed in (1, 2, 3):
        u_eta, u_nb = stream_uniforms(seed, 0, K), stream_uniforms(seed, K, K)
        eta, nb = u_eta.copy(), u_nb.copy()
        spec._map(eta, nb)
        c, r = covertness_constant(eta, nb), achievable_rate(eta, nb)
        cell = samples._cells(u_eta, u_nb, np.empty(K), np.empty(K))
        for name, value, lo, hi in (("c_cov", c, ccov_lo, ccov_hi), ("rate", r, r_lo, r_hi)):
            outside = np.count_nonzero((value < lo[cell]) | (value > hi[cell]))
            assert outside == 0, (seed, name, outside)


def on_a_copy(draw_map, spec):
    # draw_map run in place on a copy of the uniforms u, written in out.
    def run(u, eta, nb, out):
        out[...] = u
        return draw_map(spec, out)
    return run


# Each inverse-CDF map and physics kernel a screened draw runs on gathered
# rows, as a function of the rows' uniforms u and draws (eta, nb) into out.
POSITION_KERNELS = {
    "lognormal": on_a_copy(_lognormal_map, make_baseline_spec().eta),
    "gaussian": on_a_copy(_gaussian_map, make_baseline_spec().nb),
    "gaussian-mirrored": on_a_copy(_gaussian_map, TruncatedGaussianSpec(
        mu=0.005, sigma=0.001, upper=0.5, lower=0.006)),
    "exponential": on_a_copy(_exponential_map, small_benchmark_spec().nb),
    "covertness_constant": lambda u, eta, nb, out: covertness_constant(eta, nb, out=out),
    "depolarizing": lambda u, eta, nb, out: _depolarizing_into(eta, nb, out),
    "achievable_rate": lambda u, eta, nb, out: achievable_rate(eta, nb, out=out),
}


@pytest.mark.parametrize("kernel", POSITION_KERNELS.values(), ids=POSITION_KERNELS)
def test_a_values_bits_do_not_depend_on_its_position(kernel):
    # The screen maps and reduces rows gathered out of their blocks, so each
    # row must get the bits it gets in its whole block: on gathered subsets
    # of odd lengths (every SIMD remainder) placed at odd offsets into a
    # buffer (every alignment), each value matches the whole block's.
    rng = np.random.default_rng(37)
    u = rng.random(samples._BLOCK)
    u[:3] = 0.0, 0.5, np.nextafter(1.0, 0.0)  # the ends of the stream's range
    eta, nb = np.empty_like(u), np.empty_like(u)
    make_volatile_spec()._map(eta, nb)
    whole = kernel(u, eta, nb, np.empty_like(u))
    buffer = np.empty(2 * samples._BLOCK)
    for length in (1, 3, 7, 15, 17, 31, 33, 63, 65, 1_001, 4_097):
        for offset in (0, 1, 3, 5, 7):
            rows = np.sort(rng.choice(len(u), length, replace=False))
            out = buffer[offset : offset + length]
            got = kernel(u[rows], eta[rows], nb[rows], out)
            assert got.tobytes() == whole[rows].tobytes(), (length, offset)


PUBLIC_NAMES = sorted("""
    BenchmarkChannelSpec ChannelSpec DECADE_BUDGETS ExponentialSpec GridMaximum GridSpec
    HeatmapResult InvariantError OptimumReport ProtocolParams REPORT_COLUMNS RiskBudgets
    RiskWeights SampleFileDigestError SampleFileError SampleFileFormatError
    SampleFileTruncatedError SampleFileVersionError SampleSet SensitivityPoint
    SingularSensitivityError StochasticChannelSpec Strategy TruncatedGaussianSpec
    TruncatedLognormalSpec ValidationRow achievable_rate benchmark_ccov_cdf
    benchmark_ccov_density benchmark_ccov_quantile benchmark_qmax benchmark_rmax
    channel_digest covertness_constant decade_gains depolarizing_probability foc_residual
    frontier_sweep generate_sample_set grid_maximize heatmap_sweep load_sample_set
    n_scaling_sweep objective optimize order_index sample_exponential
    sample_truncated_gaussian sample_truncated_lognormal save_sample_set
    sensitivities_symmetric sensitivity_formula sensitivity_stencil strict_cdf
    strict_outage_quantile surface_sweep validate""".split())
CONFIG_KEYS = [f"{section}.{key}" for section, names in (
    ("channel.stochastic", "mu_ln sigma_ln nb_mu nb_sigma nb_lower nb_upper"),
    ("channel.benchmark", "eta0 rate"),
    ("protocol", "n delta"),
    ("sampling", "k seed workers"),
    ("budgets", "eps_cov eps_rel"),
    ("frontier", "eps_min eps_max points"),
    ("surface", "eps_min eps_max points"),
    ("scaling", "eps n_values"),
    ("benchmark", "eps_list"),
    ("risk_adjusted", "grid_points mode axis fixed_other lambda_min lambda_max lambda_points "
                      "heatmap_min heatmap_max heatmap_points"),
    ("sensitivity", "eps_min eps_max points"),
) for key in names.split()] + ["output_dir"]


def test_the_screen_adds_no_option():
    # The screen is chosen inside generate_sample_set, so the options stay as
    # they were: its signature, the package's public names, the config keys
    # (each flag but the file flags names one), the file flags and the one
    # environment variable the package reads.
    assert str(inspect.signature(generate_sample_set)) == (
        "(spec: 'ChannelSpec', K: 'int', seed: 'int', workers: 'int' = 1, *, "
        "eps_max: 'float | None' = None) -> 'SampleSet'")
    modules = [importlib.import_module(m.name)
               for m in pkgutil.iter_modules(covertq.__path__, "covertq.")
               if m.name != "covertq.cli" and not m.name.rpartition(".")[2].startswith("_")]
    assert sorted(name for module in modules for name in module.__all__) == PUBLIC_NAMES

    def keys(table, prefix=""):
        return [key for name, value in table.items()
                for key in (keys(value, f"{prefix}{name}.") if isinstance(value, dict)
                            else [prefix + name])]

    assert keys(cli.DEFAULTS) == CONFIG_KEYS
    assert sorted(cli._FILE_FLAGS) == ["cache", "config", "csv", "out"]
    source = "".join(path.read_text() for path in Path(covertq.__file__).parent.glob("*.py"))
    assert re.findall(r"os\.environ\S*|getenv\S*", source) == [
        "os.environ.get(OUTPUT_DIR_ENV,"]
    assert cli.OUTPUT_DIR_ENV == "COVERTQ_OUTPUT_DIR"


_TAIL_PROTOCOL = ProtocolParams(n=10**7, delta=0.05)
# Readers that would reach past a tail of 11 of 1000 draws (eps_max = 0.01),
# each given the set and a path.
TAIL_REFUSALS = {
    "quantile-past-the-tail": lambda s, path: strict_outage_quantile(s.rach, 0.011, s.K),
    "optimize-past-the-tail": lambda s, path: optimize(s, _TAIL_PROTOCOL,
                                                       RiskBudgets(0.02, 0.01)),
    "heatmap_sweep": lambda s, path: heatmap_sweep(s, _TAIL_PROTOCOL, GridSpec(11),
                                                   [1.0], [1.0]),
    "grid_maximize": lambda s, path: grid_maximize(s, RiskWeights(1.0, 1.0),
                                                   _TAIL_PROTOCOL, GridSpec(11)),
    "objective": lambda s, path: objective(s, Strategy(0.5, 0.5), RiskWeights(1.0, 1.0),
                                           _TAIL_PROTOCOL),
    "save_sample_set": lambda s, path: save_sample_set(s, path),
}


@pytest.mark.parametrize("read", TAIL_REFUSALS.values(), ids=TAIL_REFUSALS)
def test_reading_past_a_tail_is_refused(tmp_path, read):
    # ValueError naming the tail, and a save leaves the file it names alone.
    s = generate_sample_set(make_baseline_spec(), 1000, seed=1, eps_max=0.01)
    path = tmp_path / "s.cqcs"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError, match="tail of 11 of 1000"):
        read(s, path)
    assert path.read_bytes() == b"kept"
    # The last order statistic the tail holds is still read.
    assert strict_outage_quantile(s.rach, 0.01, s.K) == s.rach[10]


# ---------------------------------------------------------------------------
# binary cache


def test_load_checks_expected_digest(tmp_path):
    s = generate_sample_set(make_baseline_spec(), 100, seed=9)
    path = tmp_path / "s.cqcs"
    save_sample_set(s, path)
    load_sample_set(path, expected_digest=s.channel_digest)
    with pytest.raises(SampleFileDigestError):
        load_sample_set(path, expected_digest=channel_digest(small_benchmark_spec()))


@pytest.mark.parametrize("fault", ["wrong-magic", "wrong-version", "truncated",
                                   "trailing-bytes", "unsorted"])
def test_load_rejects_a_corrupt_file(tmp_path, fault):
    s = generate_sample_set(make_baseline_spec(), 10, seed=1)
    if fault == "unsorted":
        s = SampleSet(ccov=s.ccov[::-1].copy(), rach=s.rach, seed=s.seed,
                      channel_digest=s.channel_digest)
    path = tmp_path / "s.cqcs"
    save_sample_set(s, path)
    raw = path.read_bytes()
    # Each fault's file contents, and the error their load raises.
    contents, error = {
        "wrong-magic": ([b"XXXX" + b"\0" * 100], SampleFileFormatError),
        "wrong-version": ([raw[:4] + struct.pack("<I", 99) + raw[8:]], SampleFileVersionError),
        "truncated": ([raw[:cut] for cut in (10, 64, len(raw) - 8)], SampleFileTruncatedError),
        "trailing-bytes": ([raw + b"\0"], SampleFileFormatError),
        "unsorted": ([raw], SampleFileFormatError),
    }[fault]
    for data in contents:
        path.write_bytes(data)
        with pytest.raises(error):
            load_sample_set(path)


@pytest.mark.parametrize("K, index", [(10, 4), (10, 9), (1, 0)],
                         ids=["interior", "top", "single"])
def test_load_rejects_nan(tmp_path, K, index):
    s = generate_sample_set(make_baseline_spec(), K, seed=1)
    s.ccov[index] = np.nan
    path = tmp_path / "s.cqcs"
    save_sample_set(s, path)
    with pytest.raises(SampleFileFormatError):
        load_sample_set(path)


# The sortedness check compares pairs in pieces of _CHECK_PAIRS pairs:
# piece m holds the pairs (i, i + 1) for i in [m * B, (m + 1) * B), so
# element m * B is the seam the two pieces share.  Three pieces at this K,
# the last one short.
B = samples._CHECK_PAIRS
K_PIECES = 2 * B + 5


def saved(tmp_path, s):
    path = tmp_path / "s.cqcs"
    save_sample_set(s, path)
    return path


@pytest.mark.parametrize("pair", [B - 2, B - 1, B, 2 * B - 1, 2 * B, K_PIECES - 2],
                         ids=["before-seam-1", "into-seam-1", "out-of-seam-1",
                              "into-seam-2", "out-of-seam-2", "last-pair"])
@pytest.mark.parametrize("name", ["ccov", "rach"])
def test_load_rejects_an_inversion_at_every_piece_seam(tmp_path, name, pair):
    s = ramp_set(K_PIECES)
    arr = getattr(s, name)
    arr[pair], arr[pair + 1] = arr[pair + 1], arr[pair]
    assert load_sample_set(saved(tmp_path, ramp_set(K_PIECES))).K == K_PIECES
    with pytest.raises(SampleFileFormatError, match=f"{name} array is not sorted"):
        load_sample_set(saved(tmp_path, s))


@pytest.mark.parametrize("index", [0, B - 1, B, 2 * B - 1, 2 * B, K_PIECES - 1],
                         ids=["first-of-piece-1", "last-of-piece-1", "first-of-piece-2",
                              "last-of-piece-2", "first-of-piece-3", "last-of-piece-3"])
def test_load_rejects_nan_at_each_end_of_a_piece(tmp_path, index):
    s = ramp_set(K_PIECES)
    s.rach[index] = np.nan
    with pytest.raises(SampleFileFormatError, match="rach array is not sorted or holds NaN"):
        load_sample_set(saved(tmp_path, s))


@pytest.mark.parametrize("K", [1, B + 1], ids=["one-row", "one-full-piece"])
def test_load_checks_one_row_and_one_full_piece(tmp_path, K):
    # K = 1 has no pair; K = B + 1 has exactly one full piece of pairs.
    assert load_sample_set(saved(tmp_path, ramp_set(K))).K == K
    for index in {0, K - 1}:
        s = ramp_set(K)
        s.ccov[index] = np.nan
        with pytest.raises(SampleFileFormatError, match="ccov array"):
            load_sample_set(saved(tmp_path, s))
    if K > 1:
        s = ramp_set(K)
        s.ccov[-2], s.ccov[-1] = s.ccov[-1], s.ccov[-2]
        with pytest.raises(SampleFileFormatError, match="ccov array"):
            load_sample_set(saved(tmp_path, s))


@pytest.mark.parametrize("name, index, value", [
    ("ccov", 0, -1.0), ("ccov", 0, -np.inf), ("rach", 0, -np.inf),
    ("rach", 0, -1e-300), ("rach", -1, 5.0), ("rach", -1, np.inf),
])
def test_load_rejects_values_outside_domain(tmp_path, name, index, value):
    # The arrays stay sorted, so only the domain check can reject them.
    s = generate_sample_set(make_baseline_spec(), 10, seed=1)
    getattr(s, name)[index] = value
    path = tmp_path / "s.cqcs"
    save_sample_set(s, path)
    with pytest.raises(SampleFileFormatError, match="outside their domain"):
        load_sample_set(path)


def test_load_accepts_domain_ends(tmp_path):
    # c_cov = 0 and +inf, r_ach = 0 and 1 are legal values.
    s = generate_sample_set(make_baseline_spec(), 10, seed=1)
    s.ccov[0], s.ccov[-1] = 0.0, np.inf
    s.rach[0], s.rach[-1] = 0.0, 1.0
    path = tmp_path / "s.cqcs"
    save_sample_set(s, path)
    t = load_sample_set(path)
    assert t.ccov.tobytes() == s.ccov.tobytes()
    assert t.rach.tobytes() == s.rach.tobytes()


# ---------------------------------------------------------------------------
# mapped loads and in-place-free saves


def test_mapped_set_survives_overwrite_of_its_file(tmp_path):
    # A is mapped from P.  Saving a shorter set B to P, then A itself back to
    # P, must leave every byte of A as it was: an in-place truncation would
    # end the read of A's tail with SIGBUS, an in-place rewrite would change
    # values already validated.
    script = (
        "import sys\n"
        "from covertq import (BenchmarkChannelSpec, ExponentialSpec,\n"
        "    generate_sample_set, load_sample_set, save_sample_set)\n"
        "path = sys.argv[1]\n"
        "spec = BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(rate=10.0))\n"
        "save_sample_set(generate_sample_set(spec, 3 * 2**16 + 5, seed=1), path)\n"
        "a = load_sample_set(path)\n"
        "before = a.ccov.tobytes() + a.rach.tobytes()\n"
        "b = generate_sample_set(spec, 1000, seed=2)\n"
        "save_sample_set(b, path)\n"
        "assert a.ccov.tobytes() + a.rach.tobytes() == before\n"
        "r = load_sample_set(path)\n"
        "assert (r.K, r.seed) == (1000, 2)\n"
        "assert r.ccov.tobytes() + r.rach.tobytes() == b.ccov.tobytes() + b.rach.tobytes()\n"
        "save_sample_set(a, path)\n"
        "assert a.ccov.tobytes() + a.rach.tobytes() == before\n"
        "r = load_sample_set(path)\n"
        "assert r.ccov.tobytes() + r.rach.tobytes() == before\n"
        "print('ok')\n"
    )
    assert run_fresh(script, tmp_path / "p.cqcs") == "ok\n"


def test_writes_into_loaded_set_stay_in_memory(tmp_path):
    path = tmp_path / "p.cqcs"
    save_sample_set(generate_sample_set(make_baseline_spec(), 1000, seed=3), path)
    digest = hashlib.sha256(path.read_bytes()).digest()
    s = load_sample_set(path)
    for arr in (s.ccov, s.rach):
        arr[0], arr[-1] = -1.0, np.nan
    for arr in (s.ccov, s.rach):
        assert arr[0] == -1.0 and np.isnan(arr[-1])
    assert hashlib.sha256(path.read_bytes()).digest() == digest
    # The mutated set still saves as the corrupt cache the CLI tests use.
    save_sample_set(s, tmp_path / "bad.cqcs")
    with pytest.raises(SampleFileFormatError):
        load_sample_set(tmp_path / "bad.cqcs")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_each_live_loaded_set_holds_at_most_one_descriptor(tmp_path):
    # The mapping keeps a duplicate of the file's descriptor for as long as
    # the set lives (the limit documented on load_sample_set); dropping the
    # sets must give every descriptor back.
    path = tmp_path / "p.cqcs"
    save_sample_set(generate_sample_set(small_benchmark_spec(), 100, seed=1), path)
    gc.collect()
    baseline = len(os.listdir("/proc/self/fd"))
    live = [load_sample_set(path) for _ in range(20)]
    assert len(os.listdir("/proc/self/fd")) <= baseline + 20
    del live
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == baseline


def test_save_unlinks_only_regular_files(tmp_path, monkeypatch):
    s = generate_sample_set(small_benchmark_spec(), 100, seed=1)
    target = tmp_path / "target.cqcs"
    save_sample_set(generate_sample_set(small_benchmark_spec(), 50, seed=2), target)
    link = tmp_path / "link.cqcs"
    link.symlink_to(target)
    save_sample_set(s, link)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert load_sample_set(link).ccov.tobytes() == s.ccov.tobytes()

    def refuse(path):
        raise AssertionError(f"unlinked {path}")

    # A device is written as it is, never unlinked (and the real unlink is
    # out of reach: tests may run as root).
    monkeypatch.setattr(os, "unlink", refuse)
    save_sample_set(s, os.devnull)


# ---------------------------------------------------------------------------
# the record of checked file versions

SETTLE_S = 0.05


@pytest.fixture
def order_checks(monkeypatch):
    # An empty record, a 50 ms settling window instead of 2 s, and a list
    # that grows by one entry per array the NaN/sortedness pass checks.
    calls = []
    ascending = samples._ascending
    monkeypatch.setattr(samples, "_checked", set())
    monkeypatch.setattr(samples, "_SETTLE_NS", int(SETTLE_S * 1e9))
    monkeypatch.setattr(samples, "_ascending",
                        lambda arr, scratch: calls.append(len(arr)) or ascending(arr, scratch))
    return calls


def settled(path):
    time.sleep(2 * SETTLE_S)
    return path


def settled_caches(tmp_path, n):
    # n caches of different K, each last changed before the window.
    paths = [tmp_path / f"s{i}.cqcs" for i in range(n)]
    for i, path in enumerate(paths):
        save_sample_set(ramp_set(10 + i), path)
    settled(tmp_path)
    return paths


def test_repeat_load_of_a_settled_cache_skips_the_order_check(tmp_path, order_checks):
    s = ramp_set(1000)
    path = settled(saved(tmp_path, s))
    first = load_sample_set(path)
    assert order_checks == [1000, 1000]
    for _ in range(3):
        again = load_sample_set(path)
        assert again.ccov.tobytes() + again.rach.tobytes() == s.ccov.tobytes() + s.rach.tobytes()
    assert order_checks == [1000, 1000]
    assert (again.K, again.seed, again.channel_digest) == (first.K, first.seed,
                                                           first.channel_digest)


def test_unsettled_cache_is_checked_on_every_load(tmp_path, order_checks, monkeypatch):
    # Last changed inside the window (an hour here), so never recorded.
    monkeypatch.setattr(samples, "_SETTLE_NS", 3600 * 10**9)
    path = saved(tmp_path, ramp_set(100))
    for _ in range(3):
        load_sample_set(path)
    assert order_checks == [100] * 6
    assert not samples._checked


def test_settling_window_is_two_seconds():
    assert samples._SETTLE_NS == 2 * 10**9


@pytest.mark.parametrize("fault, message", [("unsorted", "ccov array is not sorted"),
                                            ("outside-domain", "outside their domain")],
                         ids=["unsorted", "outside-domain"])
def test_failing_cache_is_never_recorded(tmp_path, capsys, order_checks, fault, message):
    # The domain check runs after the order check, so a sorted cache with a
    # bad end passes that pass and must still not be recorded.
    s = ramp_set(100)
    if fault == "unsorted":
        s.ccov[10], s.ccov[11] = s.ccov[11], s.ccov[10]
    else:
        s.rach[-1] = 5.0
    path = settled(saved(tmp_path, s))
    for _ in range(3):
        with pytest.raises(SampleFileFormatError, match=message):
            load_sample_set(path)
    assert not samples._checked
    checks = len(order_checks)
    for _ in range(3):
        rc = cli.main(["optimize", "--cache", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert message in capsys.readouterr().err
    assert len(order_checks) > checks and not samples._checked
    assert not (tmp_path / "o.csv").exists()


def test_cache_replaced_by_save_is_checked_again(tmp_path, order_checks):
    path = settled(saved(tmp_path, ramp_set(100)))
    load_sample_set(path)
    load_sample_set(path)
    assert order_checks == [100, 100]
    other = generate_sample_set(small_benchmark_spec(), 100, seed=2)
    save_sample_set(other, path)
    t = load_sample_set(path)
    assert order_checks == [100] * 4
    assert t.ccov.tobytes() + t.rach.tobytes() == other.ccov.tobytes() + other.rach.tobytes()


def test_in_place_rewrite_after_the_check_is_caught(tmp_path, order_checks):
    # A writer that reuses the inode and keeps the size: only the new
    # mtime and ctime, one timestamp tick after the recorded ones, tell the
    # versions apart.
    path = settled(saved(tmp_path, ramp_set(100)))
    load_sample_set(path)
    load_sample_set(path)
    assert order_checks == [100, 100]
    time.sleep(2 * SETTLE_S)
    with open(path, "r+b") as fh:
        fh.seek(samples._HEADER.size)
        fh.write(struct.pack("<d", 0.5))  # ccov[0] above ccov[1] = 0.01
    with pytest.raises(SampleFileFormatError, match="ccov array is not sorted"):
        load_sample_set(path)


def test_record_of_checked_versions_stays_within_its_bound(tmp_path, order_checks,
                                                          monkeypatch):
    monkeypatch.setattr(samples, "_CHECKED_VERSIONS", 3)
    paths = settled_caches(tmp_path, 7)
    sizes = []
    for path in paths:
        load_sample_set(path)
        sizes.append(len(samples._checked))
    assert sizes == [1, 2, 3, 1, 2, 3, 1]
    # The last version stays recorded and skips the check.
    checks = len(order_checks)
    load_sample_set(paths[-1])
    assert len(order_checks) == checks


def test_concurrent_loads_keep_the_record_within_its_bound(tmp_path, order_checks,
                                                           monkeypatch):
    # More threads than cores load six settled caches under a bound of two,
    # so versions are recorded and evicted all the time.
    sizes = []

    class Watched(set):
        def add(self, key):
            super().add(key)
            sizes.append(len(self))

    monkeypatch.setattr(samples, "_checked", Watched())
    monkeypatch.setattr(samples, "_CHECKED_VERSIONS", 2)
    paths = settled_caches(tmp_path, 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with samples.ThreadPoolExecutor(max_workers=8) as pool:
            ks = list(pool.map(lambda path: load_sample_set(path).K, paths * 200, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert ks == [10 + i for i in range(6)] * 200
    assert sizes and max(sizes) <= 2


# ---------------------------------------------------------------------------
# CSV export


def test_export_sample_csv(tmp_path):
    cache, path = tmp_path / "s.bin", tmp_path / "s.csv"
    assert cli.main(["sample", "--k", "50", "--seed", "2", "--out", str(cache),
                     "--csv", str(path)]) == 0
    s = load_sample_set(cache)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# seed=2 K=50 channel_digest={s.channel_digest.hex()}"
    assert lines[1] == "index,c_cov,r_ach"
    assert len(lines) == 2 + 50
    idx, ccov, rach = lines[2].split(",")
    assert int(idx) == 0
    assert float(ccov) == s.ccov[0]
    assert float(rach) == s.rach[0]
    # Row i pairs the i-th smallest of each array: the columns are the two
    # sorted arrays, not draws.
    table = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    np.testing.assert_array_equal(table[:, 0], np.arange(50))
    np.testing.assert_array_equal(table[:, 1], s.ccov)
    np.testing.assert_array_equal(table[:, 2], s.rach)
