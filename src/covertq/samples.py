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
_blocks alone fixes, and the physics kernels reduce them to (c_cov, r_ach)
straight into the block's rows of the two K-row output arrays, which are
then sorted in place.  Peak memory is therefore 16 bytes x K plus three
block arrays per worker (its two buffers and the one scratch array a
physics call allocates), and a block reuses memory instead of faulting in
fresh pages.

A tail set holds only what a strict-outage quantile at budgets up to eps_max
reads: the m = order_index(eps_max, K) + 1 smallest values of each marginal,
sorted, bit for bit the full set's first m entries, while its K stays the
number of draws.  Each array is partitioned in place and only its m smallest
are sorted.

The stochastic kind screens its tail before it maps anything, from K =
_SCREEN_MIN_K (one block) and for m up to K/4; the benchmark kind, whose
inverse CDF is a single log1p, smaller K and larger budgets draw every row
as a full set does.  A first pass over the blocks draws both uniforms of
every row into the row's place in the two K-row arrays and counts the rows
in each cell of a 64 x 64 grid over (u_eta, u_nb), in one counter array.
Each draw is monotone in its uniform: eta falls as u_eta rises, and nb rises
with u_nb except in the truncated Gaussian's mirrored branch (lower above
the mean), where it falls.  So a cell's draws lie between the draws at its
edges, taken whichever way they run.  c_cov rises in eta and nb, the
depolarizing probability p falls in eta and rises in nb, and the rate g(p) =
max(0, 1 - H(p)) falls in p (dH/dp = 3/4 ln(a/b) > 0 for p < 1), so a cell's
c_cov and rate lie between their values at two of its corners.  The edge
draws come from the same in-place maps with ndtri's result moved outward by
2^-40 (1 + |z|), and are then widened by a relative 2^-40, the p bounds by
an absolute 2^-40 and the rates at those p by an absolute 2^-40 again: some
thousand times the few-ulp errors of ndtri (its branch seams included), exp,
power and log, the steps that are not correctly rounded (every other step
is, and so keeps the order of its inputs).  The cell counts give the least
c_cov bound tau and the least rate bound rho under each of which at least m
rows lie.  A second pass maps and rates only the rows of cells whose c_cov
can reach tau or whose rate can reach rho (about 5.5% of them on the
reference channel at eps_max = 0.01, 15.5% at 0.1), moves them to the front
of the two arrays and selects the m smallest of each.  Those rows hold the m
smallest c_cov and the m smallest rates, so the result is bit for bit the
same.

The screen maps and reduces rows gathered out of their blocks, so it needs
each value's bits not to depend on where its row sits in an array.  ndtri
and xlogy run scalar loops, the arithmetic ufuncs are correctly rounded, and
np.exp and np.power, which are not, run SIMD kernels whose lanes do not
depend on an array's length or alignment:
tests/test_samples.py::test_a_values_bits_do_not_depend_on_its_position
checks every map and kernel on gathered rows of odd lengths at odd offsets
against their whole block, on the host it runs on.

A tail set's two arrays are views of the K-row arrays the blocks filled:
while it lives it holds their 16 x K bytes, whichever path built it, and
nothing is copied.  Readers of the whole law (strict_cdf over a grid, the
median, a cache save) refuse a tail set, and a quantile past its tail raises
ValueError.

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

import functools
import hashlib
import mmap
import os
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Union, get_args

import numpy as np

from . import _special, distributions
from ._csvio import unlink_regular_file
from .distributions import (
    STREAM_CHUNK,
    ExponentialSpec,
    _gaussian_map,
    _gaussian_tail_map,
    _lognormal_map,
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

# The tail screen (see the module docstring).  Cells per uniform axis: a
# power of two, so a row's cell floor(u * N) is exact.  The screen runs on at
# least _SCREEN_MIN_K draws and a tail of at most _SCREEN_MAX_SHARE of them.
# Against the full draw plus select (baseline, one worker, 30 pairs;
# BENCH_39.json) it lost every pair at eps 0.01 and K = 10^4 (1.04 against
# 0.87 ms), and won every pair at 2 * 10^4 (1.61 against 1.86) and at one
# block (K = 32,768: 1.98 against 2.83).  At K = 10^5 it also won every pair
# at eps 0.3 (36% of rows rated; 9.2 against 11.5 ms) and at eps 0.5 (55%;
# 10.9 against 11.6), so the share cut leaves margin.  Each cell bound's
# normal quantiles and draws are widened by a relative _SCREEN_MARGIN, and
# its p and rate bounds by an absolute one: about 1e-12, some thousand times
# the few-ulp errors of ndtri, exp, power and log.
_SCREEN_CELLS = 64
_SCREEN_MIN_K = _BLOCK
_SCREEN_MAX_SHARE = 0.25
_SCREEN_MARGIN = 2.0**-40

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

    def _map(self, eta, nb, ndtri=None) -> None:
        # The uniforms in eta and nb mapped in place to the draws _draw makes
        # of them, bit for bit; ndtri as in distributions._lognormal_map.
        _lognormal_map(self.eta, eta, ndtri)
        _gaussian_map(self.nb, nb, ndtri)


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

    # No tail screen, so a tail draw maps and rates every row.  At K = 10^5
    # and eps 0.01 the draw (one log1p per row) is about a seventh of its
    # time and the rate about half, and it took 5.3 ms against 4.7 for the
    # baseline's screened draw (BENCH_39.json).
    _map = None

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


def _smallest(a: np.ndarray, m: int) -> np.ndarray:
    # The m smallest values of a, sorted, as the view a[:m]; a is reordered.
    # When m is len(a), a is sorted whole, without a partition.
    if m < len(a):
        a.partition(m - 1)
    head = a[:m]
    head.sort()
    return head


def _blocks(K: int, threads: int, pool, visit) -> None:
    # visit(rows, eta_at, nb_at, eta, nb) for every generation block: rows
    # is its slice of the K output rows, eta_at and nb_at the stream
    # positions of its eta and nb uniforms, and eta and nb one worker's two
    # block buffers cut to its length.  The stream layout is fixed here and
    # nowhere else.  Each of the threads workers (on pool, or inline when
    # pool is None) takes blocks from a shared iterator; next() on a range
    # iterator is atomic under the GIL.
    pending = iter(range(0, K, _BLOCK))

    def work(_) -> None:
        eta_buf, nb_buf = np.empty(min(_BLOCK, K)), np.empty(min(_BLOCK, K))
        for lo in pending:
            hi = min(lo + _BLOCK, K)
            visit(slice(lo, hi), lo, K + lo, eta_buf[: hi - lo], nb_buf[: hi - lo])

    if pool is None:
        work(0)
    else:
        list(pool.map(work, range(threads)))


def _both(pool, first, second) -> tuple:
    # first() and second(), on the pool when there is one: numpy's sort and
    # partition release the GIL, so the two arrays are finished in parallel.
    if pool is None:
        return first(), second()
    return tuple(pool.map(lambda f: f(), (first, second)))


def _cells(u_eta: np.ndarray, u_nb: np.ndarray, eta: np.ndarray, nb: np.ndarray):
    # Each row's cell index i * N + j, i = floor(u_eta * N) and j = floor(u_nb
    # * N), as an intp view of the float buffer nb, with eta as scratch.
    # Every step is exact: u * N only shifts the exponent, and the rest are
    # integers below N * N.
    n = _SCREEN_CELLS
    np.multiply(u_eta, n, out=eta)
    np.floor(eta, out=eta)
    np.multiply(eta, n, out=eta)
    np.multiply(u_nb, n, out=nb)
    np.floor(nb, out=nb)
    np.add(eta, nb, out=eta)
    cell = nb.view(np.intp)
    cell[...] = eta
    return cell


def _widened_ndtri(sign: float, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    # ndtri(q) moved by sign * _SCREEN_MARGIN * (1 + |ndtri(q)|); infinities
    # stay as they are.
    z = _special.ndtri(q, out=out)
    step = _SCREEN_MARGIN * (1.0 + np.abs(z))
    step[np.isinf(z)] = 0.0
    z += sign * step
    return z


def _cell_bounds(spec: StochasticChannelSpec):
    # Bounds (ccov_lo, ccov_hi, r_lo, r_hi), flat arrays indexed as _cells
    # numbers the cells, on the c_cov and rate of every row whose uniforms
    # fall in a cell (see the module docstring).
    n, margin = _SCREEN_CELLS, _SCREEN_MARGIN
    ends = []
    for sign in (-1.0, 1.0):
        eta, nb = np.arange(n + 1) / n, np.arange(n + 1) / n
        spec._map(eta, nb, ndtri=functools.partial(_widened_ndtri, sign))
        ends.append((eta, nb))

    def cell_range(a, b):
        # Each draw is monotone in its uniform, so its value in a cell lies
        # between its values at the cell's two edges, whichever way it runs.
        v = np.stack([a[:-1], a[1:], b[:-1], b[1:]])
        return v.min(axis=0) * (1.0 - margin), v.max(axis=0) * (1.0 + margin)

    def rate(eta, nb, shift):
        # The rate at the depolarizing probability of (eta, nb) moved by shift.
        p = _depolarizing_into(eta, nb, np.empty((n, n))) + shift
        return _rate_into(np.clip(p, 0.0, 1.0, out=p), np.empty((n, n))).ravel()

    eta_lo, eta_hi = cell_range(ends[0][0], ends[1][0])
    nb_lo, nb_hi = cell_range(ends[0][1], ends[1][1])
    # eta stays at most 1, as the map's minimum keeps it.  c_cov rises in eta
    # and nb; p falls in eta and rises in nb, and the rate falls in p.
    eta_lo, eta_hi = eta_lo[:, None], np.minimum(eta_hi, 1.0)[:, None]
    return (covertness_constant(eta_lo, nb_lo).ravel(), covertness_constant(eta_hi, nb_hi).ravel(),
            rate(eta_lo, nb_hi, margin) - margin, rate(eta_hi, nb_lo, -margin) + margin)


def _reach(bound: np.ndarray, counts: np.ndarray, m: int) -> float:
    # The least cell bound b such that the cells whose bound is at most b hold
    # at least m rows; inf when all the rows are fewer than m.
    order = np.argsort(bound)
    i = int(np.searchsorted(np.cumsum(counts[order]), m))
    return float(bound[order[i]]) if i < len(order) else np.inf


def _screened(spec, K, seed, m, ccov, rach, threads, pool) -> int:
    # A screened tail draw (see the module docstring) in the K-row arrays ccov
    # and rach: the (c_cov, r_ach) of the rows of every cell that can reach
    # either tail, moved to the front of the two arrays.  Returns their count.
    n = _SCREEN_CELLS
    counts = np.zeros(n * n, dtype=np.intp)
    lock = threading.Lock()

    def draw(rows, eta_at, nb_at, eta, nb) -> None:
        # The block's uniforms, kept in its output rows, and its cell counts.
        # stream_uniforms is read on distributions, the call site
        # perfbench/spans.py traces, as the samplers read it.
        u_eta = distributions.stream_uniforms(seed, eta_at, len(eta), out=ccov[rows])
        u_nb = distributions.stream_uniforms(seed, nb_at, len(nb), out=rach[rows])
        found = np.bincount(_cells(u_eta, u_nb, eta, nb), minlength=n * n)
        with lock:
            np.add(counts, found, out=counts)

    _blocks(K, threads, pool, draw)
    ccov_lo, ccov_hi, r_lo, r_hi = _cell_bounds(spec)
    # At least m rows have a c_cov of at most tau and a rate of at most rho,
    # so every row of the m smallest of either lies in a mapped cell.
    mapped = (ccov_lo <= _reach(ccov_hi, counts, m)) | (r_lo <= _reach(r_hi, counts, m))
    kept = {}

    def fill(rows, eta_at, nb_at, eta, nb) -> None:
        # The block's rows in mapped cells, drawn from their uniforms and
        # reduced at the front of its output rows.
        u_eta, u_nb = ccov[rows], rach[rows]
        keep = np.flatnonzero(mapped[_cells(u_eta, u_nb, eta, nb)])
        count = kept[rows.start] = len(keep)
        eta, nb = eta[:count], nb[:count]
        np.take(u_eta, keep, out=eta, mode="clip")
        np.take(u_nb, keep, out=nb, mode="clip")
        del keep  # before the physics scratch is allocated
        spec._map(eta, nb)
        covertness_constant(eta, nb, out=u_eta[:count])
        achievable_rate(eta, nb, out=u_nb[:count])

    _blocks(K, threads, pool, fill)
    total = 0
    for lo, count in sorted(kept.items()):  # the mapped rows, moved to the front
        ccov[total : total + count] = ccov[lo : lo + count]
        rach[total : total + count] = rach[lo : lo + count]
        total += count
    return total


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
        set's first m entries, and its K is still the number of draws.  For
        the stochastic kind, K >= _SCREEN_MIN_K and m <= K/4, the tail is
        screened: only the rows whose cell can reach either tail are mapped
        through the inverse CDFs and the physics (see the module docstring).
        Any other tail draws every row, as a full set does, and sorts only
        the m smallest of each array.

    Peak memory is the 16 * K bytes of the two arrays plus three block arrays
    per worker: its eta and nb buffers and one physics scratch array.  A
    screened draw's second pass holds, beside the two buffers, a cell mask of
    an eighth of a block, then the gather indices or the physics scratch of
    the block's mapped rows.  A tail set's arrays are views of the two K-row
    arrays, so a live tail set holds all 16 * K bytes.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    digest = channel_digest(spec)  # validates the spec type up front
    m = K if eps_max is None else min(order_index(eps_max, K), K - 1) + 1
    screen = spec._map is not None and K >= _SCREEN_MIN_K and m <= _SCREEN_MAX_SHARE * K
    threads = min(workers, _usable_cpus(), -(-K // _BLOCK))
    ccov = np.empty(K)
    rach = np.empty(K)

    def fill(rows, eta_at, nb_at, eta, nb) -> None:
        # The physics kernels write each block's results into its output rows.
        spec._draw(seed, eta_at, nb_at, eta, nb)
        covertness_constant(eta, nb, out=ccov[rows])
        achievable_rate(eta, nb, out=rach[rows])

    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        if screen:
            drawn = _screened(spec, K, seed, m, ccov, rach, threads, pool)
        else:
            _blocks(K, threads, pool, fill)
            drawn = K
        out = _both(pool, lambda: _smallest(ccov[:drawn], m), lambda: _smallest(rach[:drawn], m))
    return SampleSet(ccov=out[0], rach=out[1], seed=seed, channel_digest=digest, K=K)


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
