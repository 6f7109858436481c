"""Sample-set generation, digests, and the binary cache round trip."""

import os
import struct

import numpy as np
import pytest

from covertq import (
    BenchmarkChannelSpec,
    ExponentialSpec,
    SampleSet,
    SeededStream,
    StochasticChannelSpec,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
    achievable_rate,
    channel_digest,
    covertness_constant,
    generate_sample_set,
    load_sample_set,
    save_sample_set,
)
from covertq import samples
from covertq.samples import (
    SampleFileDigestError,
    SampleFileFormatError,
    SampleFileTruncatedError,
    SampleFileVersionError,
    draw_realizations,
    export_sample_csv,
)
from covertq.distributions import (
    sample_exponential,
    sample_truncated_gaussian,
    sample_truncated_lognormal,
)

from conftest import make_baseline_spec


def small_benchmark_spec():
    return BenchmarkChannelSpec(eta0=0.9, nb=ExponentialSpec(rate=10.0))


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


# ---------------------------------------------------------------------------
# drawing realizations


def test_draw_realizations_stochastic_stream_layout():
    spec = make_baseline_spec()
    stream = SeededStream(5)
    eta, nb = draw_realizations(spec, 100, stream)
    assert stream.position == 200
    np.testing.assert_array_equal(
        eta, sample_truncated_lognormal(spec.eta, 100, SeededStream(5))
    )
    np.testing.assert_array_equal(
        nb, sample_truncated_gaussian(spec.nb, 100, SeededStream(5, position=100))
    )


def test_draw_realizations_benchmark_skips_eta_span():
    # eta is constant for the benchmark variant, but nb must occupy the same
    # stream positions as in the stochastic case.
    spec = small_benchmark_spec()
    stream = SeededStream(5)
    eta, nb = draw_realizations(spec, 100, stream)
    assert stream.position == 200
    assert np.all(eta == 0.9)
    np.testing.assert_array_equal(
        nb, sample_exponential(spec.nb, 100, SeededStream(5, position=100))
    )


# ---------------------------------------------------------------------------
# generation


def test_generate_sorted_and_consistent_with_physics():
    spec = make_baseline_spec()
    s = generate_sample_set(spec, 500, seed=3)
    assert np.all(np.diff(s.ccov) >= 0.0)
    assert np.all(np.diff(s.rach) >= 0.0)
    eta, nb = draw_realizations(spec, 500, SeededStream(3))
    np.testing.assert_array_equal(s.ccov, np.sort(covertness_constant(eta, nb)))
    np.testing.assert_array_equal(s.rach, np.sort(achievable_rate(eta, nb)))
    assert s.K == 500 and s.seed == 3
    assert s.channel_digest == channel_digest(spec)


def test_generate_k_one():
    s = generate_sample_set(small_benchmark_spec(), 1, seed=0)
    assert s.ccov.shape == (1,) and s.rach.shape == (1,)


def test_generate_worker_count_invariance():
    # K chosen to straddle a stream chunk boundary in the nb span.
    spec = make_baseline_spec()
    ref = generate_sample_set(spec, 40_001, seed=7, workers=1)
    for workers in (2, 3, 8):
        alt = generate_sample_set(spec, 40_001, seed=7, workers=workers)
        np.testing.assert_array_equal(ref.ccov, alt.ccov)
        np.testing.assert_array_equal(ref.rach, alt.rach)


def test_generate_pool_bounded_by_cpu_count(monkeypatch):
    # A serial stand-in records the pool size and starts no thread.
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
    ref = generate_sample_set(spec, 1000, seed=7, workers=1)
    alt = generate_sample_set(spec, 1000, seed=7, workers=1_000_000)
    assert all(size <= (os.cpu_count() or 1) for size in pool_sizes)
    assert np.array_equal(alt.ccov, ref.ccov)
    assert np.array_equal(alt.rach, ref.rach)


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


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.zeros(3), np.zeros(2), K=3, seed=0, channel_digest=b"\0" * 32)
    with pytest.raises(ValueError):
        SampleSet(np.zeros(0), np.zeros(0), K=0, seed=0, channel_digest=b"\0" * 32)


# ---------------------------------------------------------------------------
# binary cache


def test_save_load_round_trip(tmp_path):
    s = generate_sample_set(make_baseline_spec(), 1000, seed=9)
    path = tmp_path / "s.cqcs"
    save_sample_set(s, path)
    t = load_sample_set(path)
    assert t.K == s.K and t.seed == s.seed
    assert t.channel_digest == s.channel_digest
    assert t.ccov.tobytes() == s.ccov.tobytes()
    assert t.rach.tobytes() == s.rach.tobytes()


def test_load_checks_expected_digest(tmp_path):
    s = generate_sample_set(make_baseline_spec(), 100, seed=9)
    path = tmp_path / "s.cqcs"
    save_sample_set(s, path)
    load_sample_set(path, expected_digest=s.channel_digest)
    with pytest.raises(SampleFileDigestError):
        load_sample_set(path, expected_digest=channel_digest(small_benchmark_spec()))


def test_load_wrong_magic(tmp_path):
    path = tmp_path / "bad.cqcs"
    path.write_bytes(b"XXXX" + b"\0" * 100)
    with pytest.raises(SampleFileFormatError):
        load_sample_set(path)


def test_load_wrong_version(tmp_path):
    s = generate_sample_set(make_baseline_spec(), 10, seed=1)
    path = tmp_path / "s.cqcs"
    save_sample_set(s, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(SampleFileVersionError):
        load_sample_set(path)


def test_load_truncated(tmp_path):
    s = generate_sample_set(make_baseline_spec(), 10, seed=1)
    path = tmp_path / "s.cqcs"
    save_sample_set(s, path)
    raw = path.read_bytes()
    for cut in (10, 64, len(raw) - 8):
        path.write_bytes(raw[:cut])
        with pytest.raises(SampleFileTruncatedError):
            load_sample_set(path)


def test_load_trailing_bytes(tmp_path):
    s = generate_sample_set(make_baseline_spec(), 10, seed=1)
    path = tmp_path / "s.cqcs"
    save_sample_set(s, path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(SampleFileFormatError):
        load_sample_set(path)


def test_load_rejects_unsorted_arrays(tmp_path):
    s = generate_sample_set(make_baseline_spec(), 10, seed=1)
    shuffled = SampleSet(
        ccov=s.ccov[::-1].copy(),
        rach=s.rach,
        K=s.K,
        seed=s.seed,
        channel_digest=s.channel_digest,
    )
    path = tmp_path / "s.cqcs"
    save_sample_set(shuffled, path)
    with pytest.raises(SampleFileFormatError):
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


# ---------------------------------------------------------------------------
# CSV export


def test_export_sample_csv(tmp_path):
    s = generate_sample_set(make_baseline_spec(), 50, seed=2)
    path = tmp_path / "s.csv"
    export_sample_csv(s, path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# seed=2 K=50 channel_digest={s.channel_digest.hex()}"
    assert lines[1] == "index,c_cov,r_ach"
    assert len(lines) == 2 + 50
    idx, ccov, rach = lines[2].split(",")
    assert int(idx) == 0
    assert float(ccov) == s.ccov[0]
    assert float(rach) == s.rach[0]
