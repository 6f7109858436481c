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

Generation runs in fixed blocks of rows small enough for a core's L2 cache.
Each worker owns one pair of block buffers: for every block it takes, the
samplers draw its span of the stream into them in place, and the physics
kernels reduce it to (c_cov, r_ach) straight into the block's rows of the
two K-row output arrays, which are then sorted in place.  Peak memory is
therefore 16 bytes x K plus three block arrays per worker (its two buffers
and the one scratch array a physics call allocates), and a block reuses
memory instead of faulting in fresh pages.  The cache is written from those
arrays directly, and a load maps the file copy-on-write instead of reading
it: the loaded arrays are views of a private mapping, so a write into them
stays in memory and never reaches the file.  A load allocates nothing of K
rows: it checks sortedness one block of pairs at a time, in one reused
buffer.  A save replaces the file and never rewrites it in place, so a set
already mapped from it keeps the bytes it was validated on.

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
import mmap
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._csvio import unlink_regular_file
from .distributions import (
    STREAM_CHUNK,
    ExponentialSpec,
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
    "generate_sample_set",
    "save_sample_set",
    "load_sample_set",
]

_MAGIC = b"CQCS"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQ32s8x")
assert _HEADER.size == 64

# Rows per generation block.  Each block's draws and physics temporaries
# (a few arrays of _BLOCK doubles) stay in a core's L2 cache.  A multiple of
# STREAM_CHUNK so eta spans stay chunk-aligned; output does not depend on it.
_BLOCK = 2 * STREAM_CHUNK


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
    """K channel realizations reduced to sorted marginal arrays; K is their length."""

    ccov: np.ndarray
    rach: np.ndarray
    seed: int
    channel_digest: bytes

    def __post_init__(self) -> None:
        if len(self.ccov) == 0 or len(self.ccov) != len(self.rach):
            raise ValueError("arrays must be nonempty and of equal length")

    @property
    def K(self) -> int:
        return len(self.ccov)


def _workspace(spec: ChannelSpec, rows: int):
    # One worker's block buffers: eta and nb for up to ``rows`` rows.  The
    # benchmark channel's constant eta is written here, once per worker.
    if isinstance(spec, BenchmarkChannelSpec):
        return np.full(rows, spec.eta0), np.empty(rows)
    return np.empty(rows), np.empty(rows)


def _draw_span(spec: ChannelSpec, lo: int, hi: int, K: int, seed: int, eta, nb):
    # Draw output rows [lo, hi) of a K-row run into the first hi - lo rows
    # of a workspace's buffers and return those views: eta uniforms live at
    # stream positions [lo, hi) and nb uniforms at [K + lo, K + hi).  The
    # benchmark channel's constant eta draws nothing, but its nb keeps the
    # same positions, so both variants share one stream layout.
    count = hi - lo
    eta, nb = eta[:count], nb[:count]
    if isinstance(spec, StochasticChannelSpec):
        sample_truncated_lognormal(spec.eta, count, seed, lo, out=eta)
        sample_truncated_gaussian(spec.nb, count, seed, K + lo, out=nb)
    else:
        sample_exponential(spec.nb, count, seed, K + lo, out=nb)
    return eta, nb


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
        Worker threads pulling row blocks, at most one per CPU and one per
        block.  The result is bit-identical for every worker count because
        block contents are position-addressed.

    Peak memory is the 16 * K bytes of the result plus three block arrays
    per worker: its eta and nb buffers and one physics scratch array.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    digest = channel_digest(spec)  # validates the spec type up front
    blocks = range(0, K, _BLOCK)
    threads = min(workers, os.cpu_count() or 1, len(blocks))

    ccov = np.empty(K)
    rach = np.empty(K)
    pending = iter(blocks)

    def work(_) -> None:
        # One worker: its own block buffers, filled in place for each block
        # it takes from the shared iterator (next() on a range iterator is
        # atomic under the GIL).  The physics kernels write each block's
        # results straight into its rows of the two outputs.
        workspace = _workspace(spec, min(_BLOCK, K))
        for lo in pending:
            hi = min(lo + _BLOCK, K)
            eta, nb = _draw_span(spec, lo, hi, K, seed, *workspace)
            covertness_constant(eta, nb, out=ccov[lo:hi])
            achievable_rate(eta, nb, out=rach[lo:hi])

    if threads == 1:
        work(0)
        ccov.sort()
        rach.sort()
    else:
        # numpy's sort releases the GIL, so the two arrays sort in parallel.
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(threads)))
            list(pool.map(np.ndarray.sort, (ccov, rach)))
    return SampleSet(ccov=ccov, rach=rach, seed=seed, channel_digest=digest)


def save_sample_set(s: SampleSet, path) -> None:
    """Write the binary cache; round-trips bit-exactly through load.

    An existing regular file at ``path`` (symlinks resolved) is unlinked and
    a new one created, never truncated or rewritten in place: a loaded set
    may map the old file, and it keeps the old inode's bytes.  Truncating it
    would end the next read of such a set with SIGBUS.  Anything else, such
    as a device or a FIFO, is opened for writing as it is.
    """
    header = _HEADER.pack(_MAGIC, _VERSION, s.K, s.seed, s.channel_digest)
    unlink_regular_file(path)
    with open(path, "wb") as fh:
        fh.write(header)
        # A contiguous little-endian float64 array is written from its own
        # buffer; ascontiguousarray copies only when it is not one.
        fh.write(np.ascontiguousarray(s.ccov, dtype="<f8"))
        fh.write(np.ascontiguousarray(s.rach, dtype="<f8"))


def _ascending(arr: np.ndarray, scratch: np.ndarray) -> bool:
    # True when arr holds no NaN and never descends.  The pairs
    # (arr[i], arr[i + 1]) are compared in pieces of len(scratch) pairs, the
    # last pair of a piece sharing its second element with the first pair
    # of the next, so every pair is compared once; the first bad piece ends
    # the check.  Any comparison with NaN is False, so this also rejects a
    # NaN anywhere but in a single-element array, checked on its own.
    if np.isnan(arr[0]):
        return False
    last = len(arr) - 1
    for lo in range(0, last, len(scratch)):
        hi = min(lo + len(scratch), last)
        if not np.greater_equal(arr[lo + 1 : hi + 1], arr[lo:hi], out=scratch[: hi - lo]).all():
            return False
    return True


def load_sample_set(path, expected_digest: bytes | None = None) -> SampleSet:
    """Read a cache written by save_sample_set.

    Raises a distinct error per failure mode: wrong magic, K = 0, trailing
    bytes, an unsorted array, a NaN, a negative c_cov or an r_ach outside
    [0, 1] (format), unknown version, digest mismatch against
    ``expected_digest``, and a file shorter than its header declares, or
    one that changes size while it is loaded (truncation).
    The header and the file size are checked before anything is mapped.  The
    payload is then mapped copy-on-write, not read: ``ccov`` and ``rach`` are
    writable views of one private mapping that lives as long as they do, and
    writes into them never reach the file.  The NaN and sortedness check
    compares adjacent pairs in pieces of _BLOCK pairs, in one reused bool
    buffer, and stops at the first bad piece, so a load allocates nothing
    K-sized; a pair that straddles two pieces is compared like any other.
    The mapping holds a duplicate of the file descriptor until the set is
    garbage collected, so about ``ulimit -n`` live sets make the next open in
    the process fail with EMFILE.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise SampleFileTruncatedError(f"{path}: file shorter than the 64-byte header")
        magic, version, k, seed, digest = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise SampleFileFormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise SampleFileVersionError(f"{path}: unsupported version {version}")
        if k < 1:
            raise SampleFileFormatError(f"{path}: header declares K={k}, need K >= 1")
        size = os.fstat(fh.fileno()).st_size
        expected_len = _HEADER.size + 2 * 8 * k
        if size < expected_len:
            raise SampleFileTruncatedError(
                f"{path}: expected {expected_len} bytes for K={k}, found {size}"
            )
        if size > expected_len:
            raise SampleFileFormatError(f"{path}: {size - expected_len} trailing bytes")
        if expected_digest is not None and digest != expected_digest:
            raise SampleFileDigestError(f"{path}: channel digest mismatch")
        try:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        except ValueError:  # mmap refuses a file that is empty by now
            buf = b""
        # The size was checked above; a different mapped length means the
        # file changed size while it was being loaded.
        if len(buf) != expected_len:
            raise SampleFileTruncatedError(f"{path}: file changed size while loading K={k} rows")
    ccov = np.frombuffer(buf, "<f8", count=k, offset=_HEADER.size)
    rach = np.frombuffer(buf, "<f8", count=k, offset=_HEADER.size + 8 * k)
    scratch = np.empty(min(_BLOCK, k), dtype=bool)  # one piece's comparisons
    for name, arr in (("ccov", ccov), ("rach", rach)):
        if not _ascending(arr, scratch):
            raise SampleFileFormatError(f"{path}: {name} array is not sorted or holds NaN")
    # Sorted, so the ends bound every value: c_cov >= 0 (+inf is legal) and
    # r_ach in [0, 1].
    if ccov[0] < 0.0 or rach[0] < 0.0 or rach[-1] > 1.0:
        raise SampleFileFormatError(
            f"{path}: values outside their domain (c_cov from {float(ccov[0])}, "
            f"r_ach from {float(rach[0])} to {float(rach[-1])}; "
            f"need c_cov >= 0, 0 <= r_ach <= 1)"
        )
    return SampleSet(ccov=ccov, rach=rach, seed=seed, channel_digest=digest)
