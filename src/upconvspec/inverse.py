"""Spectrum recovery from raw scans: Richardson-Lucy deconvolution.

The raw scan is the input spectrum blurred by the instrument response
(QPM acceptance x VBG line) and sitting on a pump-induced count pedestal.
Richardson-Lucy is the natural inverse here: multiplicative, nonnegative,
and the fixed point of Poisson maximum likelihood, which is exactly the
noise the counter produces.  Iterations stop on the discrepancy principle
-- when the Pearson chi^2 per point falls to its statistical expectation --
so noise is not amplified into ringing.

Plain RL converges too slowly to get there on line sources, so each RL
step starts from an extrapolated point (Biggs & Andrews, Appl. Opt. 36,
1766, 1997), taken in log space so that it stays positive and a zero stays
zero.  Entries that fall below 1e-16 x the largest (or below the smallest
normal double) are set to zero after every step: RL cannot regrow them, and
left alone they go subnormal and make every later step several times
slower.  RL runs on count rates with the kernel's dwell-free operator
(ResponseKernel.rl_operator, built once per kernel), so a call builds
nothing.  Every product runs on the operator's dense blocks of consecutive
band rows, two per iteration: one back product, and one forward product of
both the new iterate and the next step's start.  Nothing here loads SciPy.
"""
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BackgroundError, DomainError
from .spectra import Spectrum
from .spectrometer import check_plan_fits

_CLIP_SIGMA = 3.5
_MIN_BASELINE_POINTS = 5
_FLUSH_REL = 1e-16  # RL entries below this x the largest are set to zero
_TINY = np.finfo(float).tiny  # ... as is anything below the smallest normal


def _median(values):
    """np.median of a nonempty 1-D array, without the numpy.ma import that
    np.median makes on its first call."""
    s = np.sort(values)
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2)


def estimate_background(result, noise_model=None):
    """Baseline count rate [cps] from a scan's off-band points.

    Iterative sigma clip on the per-point rates: alternate between the mean
    of the kept set and a Poisson width sqrt(mean/dwell), dropping points
    more than 3.5 sigma away, until the kept set stabilizes.  Signal peaks
    are clipped from above; a two-sided clip at 3.5 sigma is bias-free at
    the precision the Poisson standard error allows.  The rates are the
    scan's observed ones (ScanResult.observed).  Falls back to the noise
    model's rate if the scan has no usable baseline (raises BackgroundError
    without one).
    """
    _, rates = result.observed()
    dwell = result.plan.dwell_s
    if rates.size < _MIN_BASELINE_POINTS:
        raise BackgroundError(
            f"scan has {rates.size} points; need at least {_MIN_BASELINE_POINTS}"
        )

    def _fallback(reason):
        if noise_model is not None:
            return float(noise_model.rate(result.plan.pump_power_mw))
        raise BackgroundError(reason + " and no noise model was supplied")

    keep = np.ones(rates.size, dtype=bool)
    mu = _median(rates)
    for _ in range(50):
        if mu < 0:
            mu = 0.0
        sigma = np.sqrt(max(mu / dwell, 1e-12))
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
    counts = rates[keep] * dwell
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
               background_cps=None, noise_model=None):
    """Richardson-Lucy estimate of the input spectral density [W/nm].

    raw/kernel must belong together exactly: the kernel must be built for
    the scan's plan (check_plan_fits: pump grid, power, tracking mode), and
    the scan's VBG setpoints and mapped signal wavelengths must be the
    kernel's, bit for bit, which a kernel built from another config fails.
    The scan is read from its observed counts (ScanResult.observed), as
    estimate_background reads it.  Background (model, explicit value, or
    estimated off-band baseline) is subtracted first, clamped at zero.
    Iterations run on the signal rates (counts / dwell) with the kernel's
    cached operator (ResponseKernel.rl_operator),
    until the Pearson discrepancy chi^2/N on the counts, model x dwell +
    background, drops to discrepancy_target (use 0 for noiseless rate
    data), the update stagnates (|x_k - x_k-1| <= 1e-9 |x_k|), or max_iters.

    Each iteration is one RL step from y = x_k (x_k / x_k-1)^alpha.  With
    g_k = x_k+1 - y_k, alpha = g_k.g_k-1 / g_k-1.g_k-1 clipped to [0, 1];
    it is 0 for the first two steps and after any step that raised chi^2.
    A step from y keeps the flux sum(M x) equal to the data's, as plain RL
    does.  Entries below max(1e-16 max(x), smallest normal double) are
    flushed to zero, and stay zero.  Once x_k+1 and g_k+1 are known, so are
    the next alpha, unless chi^2 rose, and the next start y: one forward
    product of both gives their models, and chi^2 comes from x_k+1's.  If
    chi^2 rose, y and its model are dropped and the next step starts from
    x_k+1.

    When no count stands above the background, the estimate is zero, RL's
    fixed point, after no iteration: the stop reason is discrepancy_reached
    if the background alone meets discrepancy_target, else stagnation.

    The estimate is supported on the kernel columns inside the scan's mapped
    signal range; columns with no band entry there make those bands
    unrecoverable and raise UnrecoverableBandError (from rl_operator).
    """
    scalars = {"discrepancy_target": discrepancy_target}
    if background_cps is not None:  # None: estimated from the scan
        scalars["background_cps"] = background_cps
    for name, value in scalars.items():
        if not (isinstance(value, numbers.Real) and np.isfinite(value) and value >= 0):
            raise DomainError(f"{name} must be finite and nonnegative, got {value}")
    if (isinstance(max_iters, bool) or not isinstance(max_iters, numbers.Integral)
            or max_iters < 1):
        raise DomainError(f"max_iters must be an integer of at least 1, got {max_iters}")
    d, _ = raw.observed()
    if d.size < 3:
        raise DomainError("scan shorter than 3 points cannot be deconvolved")
    if np.any(d < 0):
        raise DomainError("negative counts in scan")
    check_plan_fits(raw.plan, kernel, "scan")
    if d.size != kernel.pump_grid_nm.size:
        raise DomainError("scan length does not match the kernel's pump grid")
    for what, ours, theirs in (
            ("VBG setpoints", raw.vbg_centers_nm, kernel.vbg_centers_nm),
            ("mapped signal wavelengths", raw.signal_nm_mapped, kernel.mapped_signal_nm)):
        if np.shape(ours) != theirs.shape:
            raise DomainError(f"scan has {np.size(ours)} {what}, the kernel {theirs.size}; "
                              "use the kernel built for this scan")
        if not np.array_equal(ours, theirs):
            off = float(np.max(np.abs(ours - theirs)))
            raise DomainError(
                f"scan {what} are off the {kernel.vbg_tracking}-VBG kernel's by up "
                f"to {off:.6g} nm; use the kernel built for this scan"
            )

    if background_cps is None:
        background_cps = estimate_background(raw, noise_model=noise_model)
    dwell = raw.plan.dwell_s
    bg_counts = background_cps * dwell
    rates = np.maximum(d - bg_counts, 0.0) / dwell
    op = kernel.rl_operator
    support, norm = op.support, op.norm
    fwd, back = op.forward, op.back
    grid = kernel.signal_grid_nm

    def discrepancy(model):
        # Pearson chi^2 per point on the raw counts against the full model
        # (signal + pedestal): at the Poisson noise level this sits at ~1.
        full = model * dwell + bg_counts
        resid = d - full
        return float(resid @ (resid / np.maximum(full, 1.0))) / d.size

    est = np.zeros(grid.size)
    total = float(rates.sum())
    if total == 0.0:  # zero is RL's fixed point: no step can move it
        chi2 = discrepancy(np.zeros(d.size))
        return DeconvolutionResult(
            estimate=Spectrum(grid, est), iterations_used=0, residual_norm=chi2,
            stop_reason="discrepancy_reached" if chi2 <= discrepancy_target else "stagnation",
            background_cps=float(background_cps),
        )

    x = np.full(support.size, total / norm.sum())
    y, model_y = x, fwd(x)
    g_prev, gg_prev = None, 0.0
    chi2_prev = np.inf
    stop_reason = "max_iterations"
    iters = 0
    for iters in range(1, max_iters + 1):
        ratio = np.divide(rates, model_y, out=np.zeros(rates.size), where=model_y > 0.0)
        xy = np.empty((2, x.size))  # x_new, and the next step's start if it extrapolates
        x_new = np.multiply(y, back(ratio), out=xy[0])
        x_new /= norm
        flushed = x_new < max(_FLUSH_REL * x_new.max(initial=0.0), _TINY)
        np.putmask(x_new, flushed, 0.0)
        g = x_new - y
        np.putmask(g, flushed, 0.0)
        dx = x_new - x
        gg = float(g @ g)
        # The next step's alpha, as if chi^2 did not rise, so that its start
        # y and x_new share one forward product.
        alpha = min(max(float(g @ g_prev) / gg_prev, 0.0), 1.0) if gg_prev > 0.0 else 0.0
        if alpha > 0.0:
            # Log-space extrapolation along the last step: y stays positive
            # wherever x_new is, and a zero stays zero.  Where x_new > 0, x is
            # at least _TINY, so the maximum changes no divisor there; it only
            # turns 0 / 0 into 0 / _TINY.
            y = np.divide(x_new, np.maximum(x, _TINY), out=xy[1])
            y **= alpha
            y *= x_new
            model, model_y = fwd(xy)
        else:
            y = x_new
            model = model_y = fwd(x_new)
        chi2 = discrepancy(model)
        if chi2 > chi2_prev:  # restart from x_new
            y, model_y = x_new, model
        x, g_prev, gg_prev, chi2_prev = x_new, g, gg, chi2
        if chi2 <= discrepancy_target:
            stop_reason = "discrepancy_reached"
            break
        if dx @ dx <= 1e-18 * (x @ x):  # |dx| <= 1e-9 |x|
            stop_reason = "stagnation"
            break

    est[support] = x
    return DeconvolutionResult(
        estimate=Spectrum(grid, est),
        iterations_used=iters,
        residual_norm=chi2,
        stop_reason=stop_reason,
        background_cps=float(background_cps),
    )
