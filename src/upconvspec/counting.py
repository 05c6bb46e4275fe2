"""Photon-counting statistics: rates, Poisson draws, detectability.

The Poisson sampler is implemented here rather than taken from numpy's
Generator so that draws are bit-reproducible across numpy versions from a
documented algorithm pair:

* mean < 30: sequential search on the CDF by inversion of one uniform;
* mean >= 30: transformed rejection with squeeze (PTRS, Hoermann 1993,
  "The transformed rejection method for generating Poisson random
  variables"), which needs ~1.1 uniforms per draw at any mean.

Reproducibility contract: every scan point gets its own child stream via
numpy SeedSequence spawn keys, so point i's counts do not depend on how many
points precede it or on the order of evaluation.
"""
from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError
from .units import photon_energy_j, dbm_to_watts

_PTRS_SWITCH = 30.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def rng_from_path(seed, path=()):
    """Generator for a root seed plus an integer spawn path.

    (seed, (i,)) and (seed, (j,)) are statistically independent streams for
    i != j; the empty path is the root stream itself.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def _log_factorial(k):
    return math.lgamma(k + 1.0)


def _poisson_inversion(mean, rng):
    """Sequential-search inversion; exact, O(mean) per draw."""
    u = rng.random()
    p = math.exp(-mean)
    cdf = p
    k = 0
    # mean < 30 keeps the loop short; the 10-sigma cap only guards against
    # floating-point stall when u lands on accumulated rounding error.
    cap = int(mean + 10.0 * math.sqrt(mean) + 20.0)
    while u > cdf and k < cap:
        k += 1
        p *= mean / k
        cdf += p
    return k


def _poisson_ptrs(mean, rng):
    """Transformed rejection with squeeze (PTRS); ~1.1 uniforms per draw."""
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        log_mean = math.log(mean)
        if (math.log(v * inv_alpha / (a / (us * us) + b))
                <= k * log_mean - mean - _log_factorial(k)):
            return int(k)


def sample_poisson(mean, rng, size=None):
    """Poisson draws with the documented inversion/PTRS algorithm pair."""
    m = np.asarray(mean, dtype=float)
    if np.any(m < 0) or not np.all(np.isfinite(m)):
        raise DomainError("Poisson mean must be finite and nonnegative")
    if size is None and m.ndim == 0:
        mu = float(m)
        if mu == 0.0:
            return 0
        if mu < _PTRS_SWITCH:
            return _poisson_inversion(mu, rng)
        return _poisson_ptrs(mu, rng)
    shape = (m.shape if size is None else
             ((size,) if np.ndim(size) == 0 else tuple(size)))
    means = np.broadcast_to(m, shape).ravel()
    out = np.empty(means.size, dtype=np.int64)
    for i, mu in enumerate(means):
        if mu == 0.0:
            out[i] = 0
        elif mu < _PTRS_SWITCH:
            out[i] = _poisson_inversion(float(mu), rng)
        else:
            out[i] = _poisson_ptrs(float(mu), rng)
    return out.reshape(shape)


def photon_rate(power_dbm, wavelength_nm):
    """Photon flux [1/s] of a CW beam quoted in dBm at a wavelength."""
    return dbm_to_watts(power_dbm) / photon_energy_j(wavelength_nm)


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
                  background_cps=None, z_threshold=5.0):
    """Is a line at truth_nm detected in a scan of measured rates?

    Boxcar-sums the counts in a window of one resolution width around each
    scan point, finds the maximum-excess window, and tests its Poisson
    z-score against the background estimate (given, or the scan median).
    Detection requires z >= z_threshold AND the window center within two
    resolution widths of the true line.
    """
    lam = np.asarray(scan_nm, dtype=float)
    rate = np.asarray(rate_cps, dtype=float)
    if lam.shape != rate.shape or lam.ndim != 1 or lam.size < 3:
        raise DomainError("scan axis and rates must be matching 1-D arrays")
    if resolution_nm <= 0 or dwell_s <= 0:
        raise DomainError("need positive resolution and dwell")
    step = float(np.median(np.diff(lam)))
    if step <= 0:
        raise DomainError("scan axis must be increasing")
    bg = float(np.median(rate)) if background_cps is None else float(background_cps)

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
    detected = bool(z[i] >= z_threshold and err <= 2.0 * resolution_nm)
    return DetectabilityReport(
        detected=detected, z_score=float(z[i]), found_nm=found,
        expected_nm=float(truth_nm), position_error_nm=err,
        window_cps=float(window_counts[i] / (n_bins[i] * dwell_s)),
        background_cps=bg,
    )
