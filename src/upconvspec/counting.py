"""Photon-counting statistics: rates, Poisson draws, detectability.

Stream contract: scan point i draws from its own stream, the PCG64 stream
that numpy seeds from SeedSequence(seed, spawn_key=(i,)).  Point i's counts
therefore depend only on the seed, i and its own mean, never on how many
points precede it or on the order of evaluation.  The streams are built
here rather than by numpy's objects: the SeedSequence entropy mixing
(O'Neill's seed_seq_fe hashmix/mix, as numpy implements it) is done once
per seed for the seed's own words and then in one uint32 numpy pass for
every point's spawn word.  There is one stream type, _Lanes: many PCG64
streams (128-bit LCG, XSL-RR output) held as uint64 arrays, the 128-bit
state in 64-bit halves, and stepped together.  rng_from_path gives a
single lane.  numpy's SeedSequence/PCG64/Generator are the test oracle:
raw outputs and random() of every lane must agree with them bit for bit.

There is one Poisson sampler, sample_poisson, with one draw per lane.  It
is implemented here, so that draws are bit-reproducible across numpy
versions from a documented algorithm pair:

* 0 < mean < 30: sequential search on the CDF by inversion of one uniform;
* mean >= 30: transformed rejection with squeeze (PTRS, Hoermann 1993,
  "The transformed rejection method for generating Poisson random
  variables"), which needs ~1.1 uniforms per draw at any mean.

Both run on all their lanes at once and give the counts a scalar sampler
gives lane by lane (tests/poisson_oracle.py): numpy's + - * /, sqrt, abs
and floor round as Python's do, while exp, which numpy need not round as
libm does, runs per lane on Python floats.  PTRS's log test runs on arrays
(np.log, and a Stirling series for lgamma); a lane whose two sides it
cannot tell apart within a guard band far wider than their rounding
takes the test on Python floats, with libm's log and lgamma.
"""
from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError
from .units import photon_energy_j, dbm_to_watts

_PTRS_SWITCH = 30.0
# PTRS's array log test leaves a lane to the scalar one when its two sides
# are within this share of their terms' magnitudes (see _ptrs_lanes)
_PTRS_GUARD = 1e-9
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_MAX_MEAN = 2.0 ** 62

# SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128
# the multiplier's 64-bit halves and the low half's 32-bit limbs, for _Lanes
_M_HI = np.uint64(_PCG_MULT >> 64)
_M_LO = np.uint64(_PCG_MULT & _MASK64)
_M_LO0 = np.uint64(_PCG_MULT & _MASK32)
_M_LO1 = np.uint64((_PCG_MULT >> 32) & _MASK32)
_LOW32 = np.uint64(_MASK32)


def validate_seed(seed):
    """A seed or spawn-key entry as an int; DomainError unless one >= 0."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def _words(n):
    """Little-endian uint32 words of a nonnegative int; [0] for zero."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


# hashmix and mix work on Python ints and on uint32 arrays alike: the mask
# is exact for ints and a no-op for arrays, which wrap on their own.
def _hashmix(value, hash_const, mult=_MULT_A):
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _seed_pool(seed, spawned):
    """SeedSequence pool after the seed's own entropy, and the hash constant.

    A spawned sequence pads the seed's words with zeros to the pool size.
    """
    words = _words(seed)
    if spawned:
        words += [0] * (_POOL_SIZE - len(words))
    hc = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        v, hc = _hashmix(words[i] if i < len(words) else 0, hc)
        pool.append(v)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], h)
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, hc = _hashmix(w, hc)
            pool[dst] = _mix(pool[dst], h)
    return pool, hc


class _Lanes:
    """Many PCG64 streams held as uint64 arrays and stepped together.

    Lane j's 128-bit state is (hi[j] << 64) | lo[j] and its increment
    (inc_hi[j] << 64) | inc_lo[j].  Each random_raw/random call steps every
    lane once and gives what numpy's PCG64 gives on that lane's state.
    """

    __slots__ = ("hi", "lo", "inc_hi", "inc_lo")

    def __init__(self, hi, lo, inc_hi, inc_lo):
        self.hi, self.lo, self.inc_hi, self.inc_lo = hi, lo, inc_hi, inc_lo

    @classmethod
    def seeded(cls, state_hi, state_lo, seq_hi, seq_lo):
        """pcg_setseq_128_srandom_r: inc = 2 initseq + 1, state = step(inc + initstate)."""
        inc_hi = (seq_hi << 1) | (seq_lo >> 63)
        inc_lo = (seq_lo << 1) | 1
        lo = inc_lo + state_lo
        lanes = cls(inc_hi + state_hi + (lo < state_lo), lo, inc_hi, inc_lo)
        lanes._step()
        return lanes

    def _step(self):
        # state * M + inc mod 2**128 on 64-bit halves: the high half is the
        # high 64 bits of lo * M_lo (from 32-bit limbs, which cannot
        # overflow) plus the cross terms and inc_hi, plus the carry of the
        # low half's increment add.
        lo = self.lo
        a0, a1 = lo & _LOW32, lo >> 32
        p01, p10 = a0 * _M_LO1, a1 * _M_LO0
        mid = ((a0 * _M_LO0) >> 32) + (p01 & _LOW32) + (p10 & _LOW32)
        hi = (a1 * _M_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
              + self.hi * _M_LO + lo * _M_HI + self.inc_hi)
        lo = lo * _M_LO + self.inc_lo
        self.hi = hi + (lo < self.inc_lo)
        self.lo = lo

    def random_raw(self):
        """Next 64-bit output of every lane, as PCG64.random_raw."""
        self._step()
        x = self.hi ^ self.lo
        rot = self.hi >> 58
        # (64 - rot) & 63 keeps a rot of 0 from shifting by 64
        return (x >> rot) | (x << ((64 - rot) & 63))

    def random(self):
        """Uniform double in [0, 1) per lane, as Generator.random."""
        return (self.random_raw() >> 11) * 2.0 ** -53

    def take(self, index):
        """The lanes picked by an index or boolean mask, in that order."""
        return _Lanes(self.hi[index], self.lo[index],
                      self.inc_hi[index], self.inc_lo[index])


def _streams(seed, key_words, n):
    """Lanes of SeedSequence(seed, spawn_key) for n spawn keys at once.

    key_words lists the keys' uint32 words in order, each a scalar or an
    array over the n keys; no words means the unspawned root sequence.
    """
    pool, hc = _seed_pool(validate_seed(seed), spawned=bool(key_words))
    pool = [np.full(n, p, dtype=np.uint32) for p in pool]
    for w in key_words:
        w = np.full(n, w, dtype=np.uint32)
        for dst in range(_POOL_SIZE):
            h, hc = _hashmix(w, hc)
            pool[dst] = _mix(pool[dst], h)
    # generate_state(4, np.uint64): eight words, paired little-endian into
    # initstate (hi, lo) and initseq (hi, lo)
    hc = _INIT_B
    half = []
    for k in range(2 * _POOL_SIZE):
        v, hc = _hashmix(pool[k % _POOL_SIZE], hc, _MULT_B)
        half.append(v.astype(np.uint64))
    return _Lanes.seeded(*(half[2 * j] | (half[2 * j + 1] << 32) for j in range(4)))


def rng_from_path(seed, path=()):
    """One lane for a root seed plus an integer spawn path.

    Bit-identical to PCG64(SeedSequence(seed, spawn_key=path)).  (seed,
    (i,)) and (seed, (j,)) are statistically independent streams for
    i != j; the empty path is the root stream itself.
    """
    words = [w for p in path for w in _words(validate_seed(p))]
    return _streams(seed, words, 1)


def _inversion_lanes(means, lanes):
    """One inversion draw per lane (every 0 < mean < 30), all lanes at once.

    Each lane takes one uniform u and walks its CDF from p = exp(-mean),
    p *= mean / k and cdf += p, until u <= cdf.  The walk is * / + only, so
    it rounds as on Python floats; exp comes from libm, lane by lane.  The
    10-sigma cap only guards against a stall when u lands on accumulated
    rounding error.
    """
    u = lanes.random()
    p = np.array([math.exp(-mu) for mu in means.tolist()])
    cdf = p.copy()
    cap = (means + 10.0 * np.sqrt(means) + 20.0).astype(np.int64)
    k = np.zeros(means.size, dtype=np.int64)
    out = np.empty(means.size, dtype=np.int64)
    where = np.arange(means.size)
    while where.size:
        done = (u <= cdf) | (k >= cap)
        out[where[done]] = k[done]
        left = ~done
        where, means, u, p, cdf, cap, k = (
            x[left] for x in (where, means, u, p, cdf, cap, k))
        k += 1
        p *= means / k
        cdf += p
    return out


def _ptrs_log_accept(k, us, v, mean, a, b, inv_alpha):
    """PTRS's final acceptance test, on Python floats.

    math.log and math.lgamma are libm's; numpy's log need not give the same
    bits, so _ptrs_lanes leaves to this test every lane whose array test
    could round the other way.
    """
    return (math.log(v * inv_alpha / (a / (us * us) + b))
            <= k * math.log(mean) - mean - math.lgamma(k + 1.0))


def _lgamma_stirling(z):
    """lgamma(z) for arrays of z >= 10: Stirling's series through its z**-7
    term, which leaves a truncation error below 1 / (1188 z**9), under 1e-12
    at z = 10."""
    r = 1.0 / z
    r2 = r * r
    series = r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)))
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + series


def _ptrs_lanes(means, lanes):
    """One PTRS draw per lane (every mean >= 30), all lanes in rounds.

    Each round every open lane takes a (u, v) pair from its stream.  The
    constants, the squeeze and the cheap rejections are + - * /, sqrt, abs
    and floor, which numpy rounds as Python does.  The lanes they leave
    undecided take the log test on arrays, with np.log and, for k + 1 >= 10,
    _lgamma_stirling: both sides of the test are off the scalar test's by
    far less than _PTRS_GUARD of their terms' magnitudes.  A lane with
    k + 1 < 10, or with the two sides within that guard band of each other,
    takes the scalar test, _ptrs_log_accept.  So every lane decides as the
    scalar test does.
    """
    out = np.empty(means.size, dtype=np.int64)
    b = 0.931 + 2.53 * np.sqrt(means)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    where = np.arange(means.size)
    while where.size:
        u = lanes.random() - 0.5
        v = lanes.random()
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + means + 0.43)
        accept = (us >= 0.07) & (v <= v_r)
        test = np.flatnonzero(~accept & (k >= 0) & ((us >= 0.013) | (v <= us)))
        kt, ust, mt = k[test], us[test], means[test]
        lhs = np.log(v[test] * inv_alpha[test] / (a[test] / (ust * ust) + b[test]))
        k_log_mean = kt * np.log(mt)
        lgamma = _lgamma_stirling(kt + 1.0)
        rhs = k_log_mean - mt - lgamma
        guard = _PTRS_GUARD * (np.abs(k_log_mean) + mt + np.abs(lgamma) + np.abs(lhs) + 1.0)
        sure = (kt >= 9.0) & (np.abs(rhs - lhs) > guard)
        accept[test[sure]] = lhs[sure] <= rhs[sure]
        close = test[~sure]
        accept[close] = [_ptrs_log_accept(*args) for args in zip(
            *(x[close].tolist() for x in (k, us, v, means, a, b, inv_alpha)))]
        out[where[accept]] = k[accept]
        left = ~accept
        where, means, a, b, inv_alpha, v_r = (
            x[left] for x in (where, means, a, b, inv_alpha, v_r))
        lanes = lanes.take(left)
    return out


def _checked_means(mean):
    # counts are int64, and a float count cast past 2**63 wraps silently;
    # a mean of at most 2**62 keeps every count below that
    m = np.asarray(mean, dtype=float)
    if np.any(m < 0) or not np.all(m <= _MAX_MEAN):
        raise DomainError("Poisson mean must be finite, nonnegative and at most 2**62")
    return m


def sample_poisson(means, lanes):
    """One Poisson draw per lane of a _Lanes, as an int64 array.

    means is one mean for every lane or one per lane.  The means, and that
    they fit the lanes, are checked before any lane steps.  A zero mean
    takes no draw, a mean below 30 draws by inversion and a larger one by
    PTRS.  The draws step copies of the lanes, never the lanes passed in:
    the same lanes give the same draws.
    """
    m = _checked_means(means)
    n = lanes.lo.size
    try:
        m = np.broadcast_to(m, (n,))
    except ValueError:
        raise DomainError(
            f"Poisson means of shape {m.shape} do not fit {n} lanes") from None
    counts = np.zeros(n, dtype=np.int64)
    ptrs = m >= _PTRS_SWITCH
    for draw, pick in ((_inversion_lanes, (m > 0) & ~ptrs), (_ptrs_lanes, ptrs)):
        if pick.any():
            counts[pick] = draw(m[pick], lanes.take(pick))
    return counts


def poisson_counts(means, seed):
    """One Poisson count per point, point i drawn from rng_from_path(seed, (i,)).

    The means are checked before any stream is seeded.  Every point's stream
    is then seeded in one pass, as a lane of a _Lanes, and sample_poisson
    draws all the points' counts at once.
    """
    m = _checked_means(means)
    if m.ndim != 1:
        raise DomainError("poisson_counts takes a 1-D array of means")
    # spawn keys below 2**32 are one uint32 word each
    return sample_poisson(m, _streams(seed, [np.arange(m.size, dtype=np.uint32)], m.size))


def photon_rate(power_dbm, wavelength_nm):
    """Photon flux [1/s] of a CW beam quoted in dBm at a wavelength."""
    return dbm_to_watts(power_dbm) / photon_energy_j(wavelength_nm)


_DETECTION_Z = 5.0  # a line is detected at a Poisson z-score of 5 or more


@dataclass(frozen=True)
class DetectabilityReport:
    detected: bool
    z_score: float
    found_nm: float
    expected_nm: float
    position_error_nm: float
    window_cps: float
    background_cps: float


def detectability(scan_nm, rate_cps, dwell_s, truth_nm, resolution_nm,
                  background_cps=None):
    """Is a line at truth_nm detected in a scan of measured rates?

    Boxcar-sums the counts in a window of one resolution width around each
    scan point, finds the maximum-excess window, and tests its Poisson
    z-score against the background estimate (given, or the scan median).
    Detection requires z >= 5 AND the window center within two resolution
    widths of the true line.
    """
    lam = np.asarray(scan_nm, dtype=float)
    rate = np.asarray(rate_cps, dtype=float)
    if lam.shape != rate.shape or lam.ndim != 1 or lam.size < 3:
        raise DomainError("scan axis and rates must be matching 1-D arrays")
    if not (np.all(np.isfinite(lam)) and np.all(np.diff(lam) > 0)):
        raise DomainError("scan axis must be finite and strictly increasing")
    if not np.all(np.isfinite(rate)):
        raise DomainError("rates must be finite")
    if not (math.isfinite(resolution_nm) and resolution_nm > 0
            and math.isfinite(dwell_s) and dwell_s > 0):
        raise DomainError("need finite, positive resolution and dwell")
    step = float(np.median(np.diff(lam)))
    bg = float(np.median(rate)) if background_cps is None else float(background_cps)
    # z divides by sqrt(bg): a zero or invalid background makes any window a line
    if not (math.isfinite(bg) and bg > 0):
        raise DomainError(
            f"background must be finite and > 0, got {bg} cps"
            + (" from the scan median; pass background_cps for a scan that"
               " reads mostly zero counts" if background_cps is None else ""))

    half = max(1, int(round(resolution_nm / step / 2.0)))
    counts = rate * dwell_s
    kernel = np.ones(2 * half + 1)
    window_counts = np.convolve(counts, kernel, mode="same")
    n_bins = np.convolve(np.ones_like(counts), kernel, mode="same")
    bg_counts = bg * dwell_s * n_bins
    # z for the excess over background, Poisson sigma = sqrt(expected bg)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (window_counts - bg_counts) / np.sqrt(np.maximum(bg_counts, 1e-300))
    i = int(np.argmax(z))
    found = float(lam[i])
    err = abs(found - truth_nm)
    detected = bool(z[i] >= _DETECTION_Z and err <= 2.0 * resolution_nm)
    return DetectabilityReport(
        detected=detected, z_score=float(z[i]), found_nm=found,
        expected_nm=float(truth_nm), position_error_nm=err,
        window_cps=float(window_counts[i] / (n_bins[i] * dwell_s)),
        background_cps=bg,
    )
