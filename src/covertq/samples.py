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

Generation runs in blocks of one stream chunk (STREAM_CHUNK rows), so a
block's eta span is one PCG64 chunk and a worker's block working set (its
two buffers, one physics scratch array, the two output slices: five arrays
of 256 KiB) stays inside a core's 2 MiB L2 cache.  Each worker owns one
pair of block buffers.  For every block it takes, the channel spec fills
them in place (each kind's ``_draw``) from the stream positions that
generate_sample_set alone fixes, and the physics kernels reduce them to
(c_cov, r_ach) straight into the block's rows of the two K-row output
arrays, which are then sorted in place.  Peak memory is therefore 16 bytes
x K plus three block arrays per worker (its two buffers and the one scratch
array a physics call allocates), and a block reuses memory instead of
faulting in fresh pages.

A tail set holds only what a strict-outage quantile at budgets up to eps_max
reads: the m = order_index(eps_max, K) + 1 smallest values of each marginal,
sorted, bit for bit the full set's first m entries, while its K stays the
number of draws.  It is built from the same blocks, except that the second
array receives the depolarizing probability p of each row instead of its
rate; c_cov is partitioned in place and only its m smallest are sorted.  The
rate g(p) = max(0, 1 - H(p)) is non-increasing in p (dH/dp = 3/4 ln(a/b) > 0
for p < 1), so the m smallest rates come from the largest p: g runs on the
n = m + ceil(m/4) + 64 largest p only, in block-sized pieces, and the m
smallest of those are sorted.  Every step of g is an IEEE-exact numpy ufunc
or xlogy's scalar loop, so a row's rate does not depend on where the row
sits; np.power, whose vector kernel need not be, stays in p, computed in
the generation blocks as for a full set.  Computed g follows the exact one
to a few ulp, so a row left out, whose p is at most the least selected p0,
has a computed rate above g(p0) - _TAIL_SLACK (1e-12, about 1000 times that
gap).  The selection is kept when the m-th smallest rate r_m is 0 (no rate
is below 0) or r_m + _TAIL_SLACK < g(p0); otherwise g runs on every row.
The two arrays are views of the K-row arrays the blocks filled: a tail set
costs the same 16 x K bytes while it lives, and nothing is copied.  Readers
of the whole law (strict_cdf over a grid, the median, a cache save) refuse
a tail set, and a quantile past its tail raises ValueError.

The cache is written from a full set's arrays directly, and a load maps
the file copy-on-write instead of reading it: the loaded arrays are views
of a private mapping, so a write into them stays in memory and never
reaches the file.  A load allocates nothing of K rows: it
checks sortedness _CHECK_PAIRS pairs at a time, in one reused buffer.  A
save replaces the file and never rewrites it in place, so a set already
mapped from it keeps the bytes it was validated on.

Every load checks the header (magic, version, K >= 1), the exact file size,
the channel digest when one is expected, the mapped length and the domain
ends of both arrays.  The O(K) NaN and sortedness check runs once per file
version per process: a version whose payload passed is recorded under its
(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns) and its 64 header bytes,
and a later load of the same version skips that pass.  A version is recorded
only once its last change (the later of mtime and ctime) is more than
_SETTLE_NS (2 s, FAT's timestamp granularity, the coarsest common one) older
than a clock reading taken at the load's fstat, so any later write gives the
file a later ctime and a new key (git's "racily clean" rule).  The record is
cleared when it holds _CHECKED_VERSIONS keys.  Two writers escape it: one
that changes the bytes through a shared mapping without the file getting a
new ctime, and a network file system whose server clock runs more than the
window behind this host's.

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
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Union, get_args

import numpy as np

from ._csvio import unlink_regular_file
from .distributions import (
    STREAM_CHUNK,
    ExponentialSpec,
    _gaussian_tail_map,
    _lognormal_mass,
    TruncatedGaussianSpec,
    TruncatedLognormalSpec,
    sample_exponential,
    sample_truncated_gaussian,
    sample_truncated_lognormal,
)
from .physics import _depolarizing_into, _rate_into, achievable_rate, covertness_constant
from .quantiles import order_index

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

# Rows per generation block: one stream chunk, so each eta span is one
# PCG64 chunk and the five 256 KiB arrays a block touches (two buffers, one
# physics scratch, two output slices) fit a core's 2 MiB L2 cache.  Blocks
# of 2 * STREAM_CHUNK rows filled L2 and, in a process running one cold
# command after another, faulted in 743 fresh pages per command where these
# fault in none (BENCH_31.json).  Output does not depend on it.
_BLOCK = STREAM_CHUNK

# A tail set's rates are computed on the m + ceil(m/4) + _TAIL_EXTRA largest
# depolarizing probabilities, and the selection is kept when its m-th smallest
# rate lies more than _TAIL_SLACK below the rate of the least selected p (see
# the module docstring).
_TAIL_EXTRA = 64
_TAIL_SLACK = 1e-12

# Adjacent pairs per piece of a load's NaN and sortedness check, set apart
# from _BLOCK: a check in 16,384-pair pieces took 21.5 ms per K = 10^7 load
# against 18 ms in pieces of this size.
_CHECK_PAIRS = 1 << 16

# The record of checked cache file versions (see the module docstring).  The
# lock keeps concurrent loads from each passing the size test before either
# adds its key.
_checked = set()
_checked_lock = threading.Lock()
_CHECKED_VERSIONS = 256
_SETTLE_NS = 2_000_000_000


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

    def _digest_fields(self):
        return ("stochastic", self.eta.mu_ln, self.eta.sigma_ln, self.nb.mu,
                self.nb.sigma, self.nb.lower, self.nb.upper)

    def _check_mass(self) -> None:
        # The ValueError a draw would raise for a law with no representable mass.
        _lognormal_mass(self.eta)
        _gaussian_tail_map(self.nb)

    def _draw(self, seed, eta_at, nb_at, eta, nb) -> None:
        # Fill one block's buffers in place from stream positions eta_at, nb_at.
        sample_truncated_lognormal(self.eta, len(eta), seed, eta_at, out=eta)
        sample_truncated_gaussian(self.nb, len(nb), seed, nb_at, out=nb)


@dataclass(frozen=True)
class BenchmarkChannelSpec:
    """Fixed transmittance eta0 < 1 with exponential thermal noise."""

    eta0: float
    nb: ExponentialSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta0", float(self.eta0))
        if not 0 < self.eta0 < 1:
            raise ValueError(f"eta0 must lie in (0, 1), got {self.eta0}")

    def _digest_fields(self):
        return ("benchmark", self.eta0, self.nb.rate)

    def _check_mass(self) -> None:
        pass  # an exponential law has mass everywhere on [0, inf)

    def _draw(self, seed, eta_at, nb_at, eta, nb) -> None:
        # The constant eta draws nothing, so position eta_at goes unread; nb
        # keeps the stochastic kind's stream positions.
        eta.fill(self.eta0)
        sample_exponential(self.nb, len(nb), seed, nb_at, out=nb)


ChannelSpec = Union[StochasticChannelSpec, BenchmarkChannelSpec]


def channel_digest(spec: ChannelSpec) -> bytes:
    """SHA-256 over a canonical, bit-exact text encoding of the spec."""
    if not isinstance(spec, get_args(ChannelSpec)):
        raise TypeError(f"not a channel spec: {spec!r}")
    kind, *fields = spec._digest_fields()
    parts = [kind, *(field.hex() for field in fields)]
    return hashlib.sha256("|".join(parts).encode("ascii")).digest()


@dataclass(frozen=True)
class SampleSet:
    """K channel realizations reduced to sorted marginal arrays.

    K is the number of draws and defaults to the arrays' length.  A full
    set's arrays hold all K values; a tail set's hold the m < K smallest of
    each marginal (see generate_sample_set's eps_max).
    """

    ccov: np.ndarray
    rach: np.ndarray
    seed: int
    channel_digest: bytes
    K: int | None = None

    def __post_init__(self) -> None:
        if len(self.ccov) == 0 or len(self.ccov) != len(self.rach):
            raise ValueError("arrays must be nonempty and of equal length")
        if self.K is None:
            object.__setattr__(self, "K", len(self.ccov))
        elif self.K < len(self.ccov):
            raise ValueError(f"K={self.K} draws cannot give {len(self.ccov)} rows")

    def require_full(self, reader: str) -> None:
        """ValueError naming the tail unless the arrays hold all K draws."""
        if len(self.ccov) < self.K:
            raise ValueError(f"{reader} reads the whole law, but this set is a tail "
                             f"of {len(self.ccov)} of {self.K} draws")


def _usable_cpus() -> int:
    # The CPUs this process may run on (a taskset or cpuset can allow fewer
    # than the machine has), where the platform reports them.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sorted(a: np.ndarray) -> np.ndarray:
    a.sort()
    return a


def _smallest(a: np.ndarray, m: int) -> np.ndarray:
    # The m smallest values of a, sorted, as the view a[:m]; a is reordered.
    a.partition(m - 1)
    head = a[:m]
    head.sort()
    return head


def _rates_in_place(p: np.ndarray) -> None:
    # Depolarizing probabilities p overwritten with their rates, one
    # block-sized piece (and one block of scratch) at a time.
    scratch = np.empty(min(_BLOCK, len(p)))
    for lo in range(0, len(p), _BLOCK):
        piece = p[lo : lo + _BLOCK]
        _rate_into(piece, scratch[: len(piece)])


def _smallest_rates(p: np.ndarray, m: int) -> np.ndarray:
    # The m smallest rates of the depolarizing probabilities p, sorted, as a
    # view of p, which is overwritten (see the module docstring).
    cut = max(len(p) - (m + -(-m // 4) + _TAIL_EXTRA), 0)
    if cut:
        p.partition(cut)  # p[cut:] holds the largest p, p[cut] the least of them
    _rates_in_place(p[cut:])
    floor = float(p[cut])  # if cut > 0, the rate at the least selected p
    head = _smallest(p[cut:], m)
    r_m = float(head[-1])
    if cut and not (r_m == 0.0 or r_m + _TAIL_SLACK < floor):
        _rates_in_place(p[:cut])
        head = _smallest(p, m)
    return head


def generate_sample_set(
    spec: ChannelSpec, K: int, seed: int, workers: int = 1, *, eps_max: float | None = None
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
        Worker threads pulling row blocks, at most one per CPU this process
        may run on and one per block.  The result is bit-identical for
        every worker count because block contents are position-addressed.
    eps_max : float, optional
        The largest budget the set will be queried at, in [0, 1).  Given, the
        result is a tail set: its arrays hold only the m = order_index(eps_max,
        K) + 1 smallest values of each marginal (at most K), equal to the full
        set's first m entries, and its K is still the number of draws.

    Peak memory is the 16 * K bytes of the two arrays plus three block arrays
    per worker: its eta and nb buffers and one physics scratch array.  A tail
    set's arrays are views of those two, which live as long as it does.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    digest = channel_digest(spec)  # validates the spec type up front
    tail = eps_max is not None
    m = min(order_index(eps_max, K), K - 1) + 1 if tail else K
    blocks = range(0, K, _BLOCK)
    threads = min(workers, _usable_cpus(), len(blocks))

    ccov = np.empty(K)
    rach = np.empty(K)
    pending = iter(blocks)

    def work(_) -> None:
        # One worker's block buffers, filled by the spec for each block taken
        # from the shared iterator (next() on a range iterator is atomic under
        # the GIL).  The stream layout is fixed here and nowhere else.  The
        # physics kernels write each block's results into its output rows: a
        # tail set's second array takes the depolarizing probability.
        eta_buf, nb_buf = np.empty(min(_BLOCK, K)), np.empty(min(_BLOCK, K))
        for lo in pending:
            hi = min(lo + _BLOCK, K)
            eta, nb = eta_buf[: hi - lo], nb_buf[: hi - lo]
            spec._draw(seed, lo, K + lo, eta, nb)
            covertness_constant(eta, nb, out=ccov[lo:hi])
            if tail:
                _depolarizing_into(eta, nb, rach[lo:hi])
            else:
                achievable_rate(eta, nb, out=rach[lo:hi])

    if tail:
        finish = (lambda: _smallest(ccov, m), lambda: _smallest_rates(rach, m))
    else:
        finish = (lambda: _sorted(ccov), lambda: _sorted(rach))
    if threads == 1:
        work(0)
        ccov_out, rach_out = (f() for f in finish)
    else:
        # numpy's sort and partition release the GIL, so the two arrays are
        # finished in parallel.
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(threads)))
            ccov_out, rach_out = pool.map(lambda f: f(), finish)
    return SampleSet(ccov=ccov_out, rach=rach_out, seed=seed, channel_digest=digest, K=K)


def save_sample_set(s: SampleSet, path) -> None:
    """Write the binary cache; round-trips bit-exactly through load.

    An existing regular file at ``path`` (symlinks resolved) is unlinked and
    a new one created, never truncated or rewritten in place: a loaded set
    may map the old file, and it keeps the old inode's bytes.  Truncating it
    would end the next read of such a set with SIGBUS.  Anything else, such
    as a device or a FIFO, is opened for writing as it is.  A tail set is
    refused with ValueError before anything is touched.
    """
    s.require_full("save_sample_set")
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
    compares adjacent pairs in pieces of _CHECK_PAIRS pairs, in one reused
    bool buffer, and stops at the first bad piece, so a load allocates
    nothing K-sized; a pair that straddles two pieces is compared like any
    other.
    The header, size, digest, mapped-length and domain checks run on every
    load.  The NaN and sortedness check runs on the first load of each file
    version in the process; a version that passed every check and whose last
    change is more than 2 s old is recorded (see the module docstring), and
    a repeat load of it skips the check.  A writer that changes the bytes
    through a shared mapping without a new ctime, or a network file system
    whose server clock lags this host's by more than 2 s, can go unseen.
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
        now = time.time_ns()
        st = os.fstat(fh.fileno())
        size = st.st_size
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
    # One file version: a later write changes the size, mtime or ctime.
    key = (st.st_dev, st.st_ino, size, st.st_mtime_ns, st.st_ctime_ns, head)
    checked = key in _checked
    if not checked:
        scratch = np.empty(min(_CHECK_PAIRS, k), dtype=bool)  # one piece's comparisons
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
    if not checked and max(st.st_mtime_ns, st.st_ctime_ns) < now - _SETTLE_NS:
        with _checked_lock:
            if len(_checked) >= _CHECKED_VERSIONS:
                _checked.clear()
            _checked.add(key)
    return SampleSet(ccov=ccov, rach=rach, seed=seed, channel_digest=digest)
