"""Monte Carlo sample sets: draw channel realizations once, reuse everywhere.

A SampleSet reduces K per-frame draws of (eta, nb) to the two arrays the
optimizers actually consume — covertness constants and achievable rates —
each sorted ascending so every later quantile query is O(1) index
arithmetic.  Sorting the two arrays independently is sound because all
downstream consumers use only the marginal laws of c_cov and R_ach; the
joint coupling never enters the optimization.

Generation is deterministic and thread-count independent: the uniform
stream is counter-addressed (see distributions), eta consumes positions
[0, K) and nb positions [K, 2K), and parallel workers fill disjoint index
ranges of the same virtual sequence.

Cache file layout (little endian), version 1:

    offset  0  magic  b"CQCS"
    offset  4  u32    format version
    offset  8  u64    K
    offset 16  u64    seed
    offset 24  32s    channel digest (SHA-256 of the canonical spec encoding)
    offset 56  8x     zero padding up to the 64-byte header
    offset 64  K f64  c_cov, sorted ascending (+inf encoded as IEEE +inf)
    ...        K f64  r_ach, sorted ascending
"""

from __future__ import annotations

import hashlib
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from .distributions import (
    ExponentialSpec,
    SeededStream,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
    sample_exponential,
    sample_truncated_gaussian,
    sample_truncated_lognormal,
)
from .physics import achievable_rate, covertness_constant

__all__ = [
    "StochasticChannelSpec",
    "BenchmarkChannelSpec",
    "ChannelSpec",
    "SampleSet",
    "SampleFileError",
    "SampleFileFormatError",
    "SampleFileVersionError",
    "SampleFileDigestError",
    "SampleFileTruncatedError",
    "channel_digest",
    "draw_realizations",
    "generate_sample_set",
    "save_sample_set",
    "load_sample_set",
    "export_sample_csv",
]

_MAGIC = b"CQCS"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQ32s8x")
assert _HEADER.size == 64


class SampleFileError(Exception):
    """Base class for sample-cache file problems."""


class SampleFileFormatError(SampleFileError):
    """Magic bytes or structural layout are wrong."""


class SampleFileVersionError(SampleFileError):
    """Header version is not one this code writes."""


class SampleFileDigestError(SampleFileError):
    """Stored channel digest does not match the expected one."""


class SampleFileTruncatedError(SampleFileError):
    """File ends before the declared arrays do."""


@dataclass(frozen=True)
class StochasticChannelSpec:
    """Joint law of independent (eta, nb) marginals."""

    eta: TruncatedLognormalSpec
    nb: TruncatedGaussianSpec


@dataclass(frozen=True)
class BenchmarkChannelSpec:
    """Fixed transmittance eta0 < 1 with exponential thermal noise."""

    eta0: float
    nb: ExponentialSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta0", float(self.eta0))
        if not 0 < self.eta0 < 1:
            raise ValueError(f"eta0 must lie in (0, 1), got {self.eta0}")


ChannelSpec = Union[StochasticChannelSpec, BenchmarkChannelSpec]


def channel_digest(spec: ChannelSpec) -> bytes:
    """SHA-256 over a canonical, bit-exact text encoding of the spec."""
    if isinstance(spec, StochasticChannelSpec):
        parts = [
            "stochastic",
            spec.eta.mu_ln.hex(),
            spec.eta.sigma_ln.hex(),
            spec.nb.mu.hex(),
            spec.nb.sigma.hex(),
            spec.nb.lower.hex(),
            spec.nb.upper.hex(),
        ]
    elif isinstance(spec, BenchmarkChannelSpec):
        parts = ["benchmark", spec.eta0.hex(), spec.nb.rate.hex()]
    else:
        raise TypeError(f"not a channel spec: {spec!r}")
    return hashlib.sha256("|".join(parts).encode("ascii")).digest()


@dataclass(frozen=True)
class SampleSet:
    """K channel realizations reduced to sorted marginal arrays."""

    ccov: np.ndarray
    rach: np.ndarray
    K: int
    seed: int
    channel_digest: bytes

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if len(self.ccov) != self.K or len(self.rach) != self.K:
            raise ValueError("arrays must both have length K")


def draw_realizations(spec: ChannelSpec, count: int, stream: SeededStream):
    """Draw (eta, nb) arrays for ``count`` frames, advancing the stream.

    The stream is consumed in a fixed order — the eta span first, then the
    nb span.  For the benchmark variant eta is constant and needs no draws,
    but the stream is advanced past the eta span anyway so that nb occupies
    the same positions under both variants.
    """
    if isinstance(spec, StochasticChannelSpec):
        eta = sample_truncated_lognormal(spec.eta, count, stream)
        nb = sample_truncated_gaussian(spec.nb, count, stream)
        return eta, nb
    if isinstance(spec, BenchmarkChannelSpec):
        stream.position += count
        nb = sample_exponential(spec.nb, count, stream)
        return np.full(count, spec.eta0), nb
    raise TypeError(f"not a channel spec: {spec!r}")


def _draw_span(spec: ChannelSpec, lo: int, hi: int, K: int, seed: int):
    # Draw output rows [lo, hi) of a K-row run: eta uniforms live at stream
    # positions [lo, hi) and nb uniforms at [K + lo, K + hi), matching what
    # draw_realizations(spec, K, SeededStream(seed)) consumes end to end.
    count = hi - lo
    if isinstance(spec, StochasticChannelSpec):
        eta = sample_truncated_lognormal(spec.eta, count, SeededStream(seed, lo))
        nb = sample_truncated_gaussian(spec.nb, count, SeededStream(seed, K + lo))
        return eta, nb
    nb = sample_exponential(spec.nb, count, SeededStream(seed, K + lo))
    return np.full(count, spec.eta0), nb


def generate_sample_set(
    spec: ChannelSpec, K: int, seed: int, workers: int = 1
) -> SampleSet:
    """Draw K realizations, reduce to (c_cov, r_ach), sort each ascending.

    Parameters
    ----------
    spec : ChannelSpec
        Law of (eta, nb) per frame.
    K : int
        Number of realizations, >= 1.
    seed : int
        64-bit stream seed; fully determines the output.
    workers : int
        Worker threads filling disjoint chunks, at most one per CPU.  The
        result is bit-identical for every worker count because chunk
        contents are position-addressed.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    digest = channel_digest(spec)  # validates the spec type up front
    workers = min(workers, os.cpu_count() or 1)

    ccov = np.empty(K)
    rach = np.empty(K)

    def fill(lo: int, hi: int) -> None:
        eta, nb = _draw_span(spec, lo, hi, K, seed)
        ccov[lo:hi] = covertness_constant(eta, nb)
        rach[lo:hi] = achievable_rate(eta, nb)

    if workers == 1:
        fill(0, K)
    else:
        step = max(1, -(-K // workers))
        bounds = [(lo, min(lo + step, K)) for lo in range(0, K, step)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: fill(*b), bounds))

    ccov.sort()
    rach.sort()
    return SampleSet(ccov=ccov, rach=rach, K=K, seed=seed, channel_digest=digest)


def save_sample_set(s: SampleSet, path) -> None:
    """Write the binary cache; round-trips bit-exactly through load."""
    header = _HEADER.pack(_MAGIC, _VERSION, s.K, s.seed, s.channel_digest)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(s.ccov, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(s.rach, dtype="<f8").tobytes())


def load_sample_set(path, expected_digest: bytes | None = None) -> SampleSet:
    """Read a cache written by save_sample_set.

    Raises a distinct error per failure mode: wrong magic, trailing bytes,
    an unsorted array or a NaN (format), unknown version, digest mismatch
    against ``expected_digest``, and short reads (truncation).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SampleFileTruncatedError(f"{path}: file shorter than the 64-byte header")
    magic, version, k, seed, digest = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise SampleFileFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise SampleFileVersionError(f"{path}: unsupported version {version}")
    expected_len = _HEADER.size + 2 * 8 * k
    if len(raw) < expected_len:
        raise SampleFileTruncatedError(
            f"{path}: expected {expected_len} bytes for K={k}, found {len(raw)}"
        )
    if len(raw) > expected_len:
        raise SampleFileFormatError(f"{path}: {len(raw) - expected_len} trailing bytes")
    if expected_digest is not None and digest != expected_digest:
        raise SampleFileDigestError(f"{path}: channel digest mismatch")
    ccov = np.frombuffer(raw, dtype="<f8", count=k, offset=_HEADER.size).copy()
    rach = np.frombuffer(raw, dtype="<f8", count=k, offset=_HEADER.size + 8 * k).copy()
    for name, arr in (("ccov", ccov), ("rach", rach)):
        # Any comparison with NaN is False, so this also rejects a NaN
        # anywhere but in a single-element array, checked on its own.
        if np.isnan(arr[:1]).any() or not np.all(arr[1:] >= arr[:-1]):
            raise SampleFileFormatError(f"{path}: {name} array is not sorted or holds NaN")
    return SampleSet(ccov=ccov, rach=rach, K=k, seed=seed, channel_digest=digest)


def export_sample_csv(s: SampleSet, path) -> None:
    """Plain-text inspection dump: index, c_cov, r_ach per row."""
    from ._csvio import write_csv

    rows = ((i, s.ccov[i], s.rach[i]) for i in range(s.K))
    write_csv(
        path,
        ["index", "c_cov", "r_ach"],
        rows,
        seed=s.seed,
        K=s.K,
        digest=s.channel_digest,
    )
