"""Spectrum recovery from raw scans: Richardson-Lucy deconvolution.

The raw scan is the input spectrum blurred by the instrument response
(QPM acceptance x VBG line) and sitting on a pump-induced count pedestal.
Richardson-Lucy is the natural inverse here: multiplicative, nonnegative,
and the fixed point of Poisson maximum likelihood, which is exactly the
noise the counter produces.  Iterations stop on the discrepancy principle
-- when the Pearson chi^2 per point falls to its statistical expectation --
so noise is not amplified into ringing.  RL works on the kernel's sparse
band, so an iteration costs its nonzeros, not the dense matrix's cells.
"""
from dataclasses import dataclass

import numpy as np

from .errors import BackgroundError, DomainError, UnrecoverableBandError
from .spectra import Spectrum

_CLIP_SIGMA = 3.5
_MIN_BASELINE_POINTS = 5
_GRID_REL_TOL = 1e-6  # scan/kernel pump grids must agree to this x the step
_CENTER_TOL_NM = 1e-9  # scan/kernel VBG setpoints must agree to this


def estimate_background(result, noise_model=None):
    """Baseline count rate [cps] from a scan's off-band points.

    Iterative sigma clip on the per-point rates: alternate between the mean
    of the kept set and a Poisson width sqrt(mean/dwell), dropping points
    more than 3.5 sigma away, until the kept set stabilizes.  Signal peaks
    are clipped from above; a two-sided clip at 3.5 sigma is bias-free at
    the precision the Poisson standard error allows.  A sampled scan is
    read from its counts, an unsampled one from its expected rates.  Falls
    back to the noise model's rate if the scan has no usable baseline
    (raises BackgroundError without one).
    """
    if result.sampled:
        rates = np.asarray(result.sampled_counts, dtype=float) / result.dwell_s
    else:
        rates = np.asarray(result.expected_rate_cps, dtype=float)
    if rates.size < _MIN_BASELINE_POINTS:
        raise BackgroundError(
            f"scan has {rates.size} points; need at least {_MIN_BASELINE_POINTS}"
        )

    def _fallback(reason):
        if noise_model is not None:
            return float(noise_model.rate(result.pump_power_mw))
        raise BackgroundError(reason + " and no noise model was supplied")

    keep = np.ones(rates.size, dtype=bool)
    mu = float(np.median(rates))
    for _ in range(50):
        if mu < 0:
            mu = 0.0
        sigma = np.sqrt(max(mu / result.dwell_s, 1e-12))
        new = np.abs(rates - mu) <= _CLIP_SIGMA * sigma
        if not np.any(new):
            return _fallback("sigma clip emptied the scan (no flat baseline)")
        new_mu = float(np.mean(rates[new]))
        if np.array_equal(new, keep) and abs(new_mu - mu) < 1e-12:
            break
        keep, mu = new, new_mu

    n_kept = int(np.count_nonzero(keep))
    if n_kept < max(_MIN_BASELINE_POINTS, rates.size // 10):
        return _fallback(
            f"only {n_kept} of {rates.size} points form a flat baseline; "
            "scan looks saturated by signal"
        )
    # Baseline sanity: kept counts should be Poisson-flat (Fano near 1).
    counts = rates[keep] * result.dwell_s
    mean_c = float(np.mean(counts))
    if mean_c > 0 and n_kept > 10:
        fano = float(np.var(counts)) / mean_c
        if fano > 5.0:
            return _fallback(
                f"baseline variance is {fano:.1f}x Poisson; no flat floor found"
            )
    return max(mu, 0.0)


@dataclass(frozen=True)
class DeconvolutionResult:
    estimate: Spectrum
    iterations_used: int
    residual_norm: float          # Pearson chi^2 per point at the last iterate
    stop_reason: str              # discrepancy_reached | max_iterations | stagnation
    background_cps: float


def deconvolve(raw, kernel, max_iters=500, discrepancy_target=1.0,
               background_cps=None, noise_model=None, support_nm=None):
    """Richardson-Lucy estimate of the input spectral density [W/nm].

    raw/kernel must belong together: the same pump grid (to 1e-6 of a pump
    step), pump power (to a relative 1e-12) and VBG setpoints (to 1e-9 nm,
    which also tells a fixed-VBG kernel from a tracked scan).  A sampled
    scan is read from its counts, an unsampled one from its expected rates,
    the same rule estimate_background follows.  Background (model, explicit
    value, or estimated off-band baseline) is subtracted first, clamped at
    zero.  Iterations run on the kernel's band (ResponseKernel.band) until
    the Pearson discrepancy chi^2/N drops to discrepancy_target (use 0 for
    noiseless rate data), the update stagnates, or max_iters.  The estimate
    is supported on the kernel columns inside support_nm (default: the
    scan's mapped signal range); columns with no band entry inside the
    support make those bands unrecoverable and raise UnrecoverableBandError.
    """
    for name, value in (("background_cps", background_cps),
                        ("discrepancy_target", discrepancy_target)):
        if value is not None and not (np.isfinite(value) and value >= 0):
            raise DomainError(f"{name} must be finite and nonnegative, got {value}")
    if raw.sampled:
        d = np.asarray(raw.sampled_counts, dtype=float)
    else:
        d = np.asarray(raw.expected_rate_cps, dtype=float) * raw.dwell_s
    if d.size < 3:
        raise DomainError("scan shorter than 3 points cannot be deconvolved")
    pump = kernel.pump_grid_nm
    if d.size != pump.size:
        raise DomainError("scan length does not match the kernel's pump grid")
    off = float(np.max(np.abs(np.asarray(raw.pump_grid_nm, dtype=float) - pump)))
    if off > _GRID_REL_TOL * float(np.median(np.abs(np.diff(pump)))):
        raise DomainError(
            f"scan pump grid is off the kernel's by up to {off:.6g} nm; "
            "use the kernel built for this scan"
        )
    if np.any(d < 0):
        raise DomainError("negative counts in scan")
    if not np.isclose(raw.pump_power_mw, kernel.pump_power_mw, rtol=1e-12, atol=0.0):
        raise DomainError(
            f"scan pump power {raw.pump_power_mw} mW differs from the kernel's "
            f"{kernel.pump_power_mw} mW; use the kernel built for this scan"
        )
    center_off = float(np.max(np.abs(np.asarray(raw.vbg_centers_nm, dtype=float)
                                      - kernel.vbg_centers_nm)))
    if not center_off <= _CENTER_TOL_NM:
        raise DomainError(
            f"scan VBG setpoints are off the {kernel.vbg_tracking}-VBG kernel's by up "
            f"to {center_off:.6g} nm; use the kernel built for this scan"
        )
    if max_iters < 1:
        raise DomainError("max_iters must be at least 1")

    if background_cps is None:
        background_cps = estimate_background(raw, noise_model=noise_model)
    bg_counts = background_cps * raw.dwell_s
    d_sig = np.maximum(d - bg_counts, 0.0)

    grid = kernel.signal_grid_nm
    if support_nm is None:
        lo = float(np.min(kernel.mapped_signal_nm))
        hi = float(np.max(kernel.mapped_signal_nm))
    else:
        lo, hi = float(support_nm[0]), float(support_nm[1])
        if not lo < hi:
            raise DomainError("support_nm must be an ascending (lo, hi) pair")
    in_support = (grid >= lo) & (grid <= hi)
    if not np.any(in_support):
        raise DomainError("requested support contains no signal-grid points")

    # Forward operator: density [W/nm] -> expected signal counts per point.
    weights = np.gradient(grid)
    m = kernel.band.copy()
    m.data *= (weights * raw.dwell_s)[m.indices]
    col_sum = np.asarray(m.sum(axis=0)).ravel()
    dead = in_support & (col_sum <= 0.0)
    if np.any(dead):
        bands = []
        idx = np.flatnonzero(dead)
        start = idx[0]
        prev = idx[0]
        for k in idx[1:]:
            if k != prev + 1:
                bands.append((float(grid[start]), float(grid[prev])))
                start = k
            prev = k
        bands.append((float(grid[start]), float(grid[prev])))
        raise UnrecoverableBandError(bands)

    active = np.flatnonzero(in_support)
    m_act = m[:, active]
    m_act_t = m_act.T.tocsr()
    norm = col_sum[active]  # > 0 by the dead-column check

    total = float(d_sig.sum())
    if total == 0.0:
        est = np.zeros(grid.size)
        return DeconvolutionResult(
            estimate=Spectrum(grid, est, unit="w_per_nm"),
            iterations_used=0, residual_norm=_pearson(d, background_cps, raw, m, est),
            stop_reason="discrepancy_reached", background_cps=float(background_cps),
        )

    x = np.full(active.size, total / norm.sum())
    stop_reason = "max_iterations"
    iters = 0
    model = m_act @ x
    for iters in range(1, max_iters + 1):
        ratio = np.where(model > 0, d_sig / np.where(model > 0, model, 1.0), 0.0)
        x_new = x * (m_act_t @ ratio) / norm
        step = np.linalg.norm(x_new - x)
        x = x_new
        # Pearson discrepancy on the raw counts against the full model
        # (signal + pedestal): at the Poisson noise level this sits at ~1.
        # The signal part is also the next iteration's model.
        model = m_act @ x
        full = model + bg_counts
        chi2 = float(np.mean((d - full) ** 2 / np.maximum(full, 1.0)))
        if chi2 <= discrepancy_target:
            stop_reason = "discrepancy_reached"
            break
        if step <= 1e-9 * max(np.linalg.norm(x), 1e-300):
            stop_reason = "stagnation"
            break

    est = np.zeros(grid.size)
    est[active] = x
    return DeconvolutionResult(
        estimate=Spectrum(grid, est, unit="w_per_nm"),
        iterations_used=iters,
        residual_norm=_pearson(d, background_cps, raw, m, est),
        stop_reason=stop_reason,
        background_cps=float(background_cps),
    )


def _pearson(d, background_cps, raw, m, est):
    model = m @ est + background_cps * raw.dwell_s
    return float(np.mean((d - model) ** 2 / np.maximum(model, 1.0)))
