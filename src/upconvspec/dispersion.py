"""Refractive index, quasi-phase matching and pump tuning for a PPLN waveguide.

Sum-frequency generation of a ~1.5 um signal with a ~1.9 um pump in a
periodically poled lithium niobate waveguide, first-order QPM:

    dk = 2*pi * ( n(l_sfg)/l_sfg - n_eff(l_s)/l_s - n(l_p)/l_p - 1/Lambda )

with all wavelengths in um and dk in rad/um.  The bulk extraordinary index
comes from a temperature-dependent Sellmeier equation; the guided modes are
accounted for by a low-order polynomial correction to the effective index.
Because a correction applied identically to all three waves cancels out of dk
(energy conservation: 1/l_sfg = 1/l_s + 1/l_p), the net modal correction is
lumped onto the signal-band index, where the calibration anchors live.
"""
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CalibrationError, DomainError, TuningError

TWO_PI = 2.0 * np.pi

# |dk| below this counts as phase matched [rad/um]
DK_TOLERANCE_PER_UM = 1e-9

# sinc^2(x) = 1/2 at x = +-HALF_MAX_ARG
HALF_MAX_ARG = 1.39155737825151

# default coarse search window for phase-matched roots [nm]; generous margins
# around the 1532.9-1570.9 nm design band, inside which dk is single-rooted
SIGNAL_SEARCH_NM = (1450.0, 1650.0)
PUMP_SEARCH_NM = (1820.0, 2080.0)
_COARSE_STEP_NM = 1.0


@dataclass(frozen=True)
class SellmeierMedium:
    """Temperature-dependent Sellmeier coefficients, n^2 form with two poles.

    n^2 = a1 + b1 f + (a2 + b2 f)/(l^2 - (a3 + b3 f)^2)
              + (a4 + b4 f)/(l^2 - a5^2) - a6 l^2,
    f = (T - t_ref)*(T + t_offset), l in um, T in deg C.
    """

    a: tuple  # (a1..a6)
    b: tuple  # (b1..b4)
    name: str = "custom"
    t_ref_c: float = 24.5
    t_offset_c: float = 570.82
    valid_um: tuple = (0.4, 5.0)
    valid_temp_c: tuple = (0.0, 250.0)

    def __post_init__(self):
        if len(self.a) != 6 or len(self.b) != 4:
            raise DomainError("SellmeierMedium needs 6 'a' and 4 'b' coefficients")


# Congruent LiNbO3, extraordinary axis: Jundt, Opt. Lett. 22, 1553 (1997).
CONGRUENT_LN_E = SellmeierMedium(
    name="congruent LiNbO3 n_e (Jundt 1997)",
    a=(5.35583, 0.100473, 0.20692, 100.0, 11.34927, 1.5334e-2),
    b=(4.629e-7, 3.862e-8, -0.89e-8, 2.657e-5),
)


@dataclass(frozen=True)
class WaveguideSpec:
    """PPLN waveguide geometry, operating temperature and tuning correction.

    dispersion_correction holds ascending polynomial coefficients (c0, c1, ...)
    of a dimensionless effective-index offset evaluated at wavelength in um.
    It is applied to the signal-band index inside qpm_mismatch (see module
    docstring) and is normally produced by calibrate_operating_point.
    """

    length_mm: float = 52.0
    qpm_period_um: float = 19.6
    temperature_c: float = 56.0
    dispersion_correction: tuple = ()
    medium: SellmeierMedium = field(default=CONGRUENT_LN_E)

    def __post_init__(self):
        if self.length_mm <= 0:
            raise DomainError("waveguide length must be positive")
        if self.qpm_period_um <= 0:
            raise DomainError("QPM period must be positive")
        lo, hi = self.medium.valid_temp_c
        if not (lo <= self.temperature_c <= hi):
            raise DomainError(
                f"temperature {self.temperature_c} C outside the medium's "
                f"validity window [{lo}, {hi}] C"
            )


def _index(lam_um, temperature_c, correction, medium):
    """Sellmeier index at lam [um] plus the correction polynomial (skipped
    when there is none), without the validity checks."""
    a1, a2, a3, a4, a5, a6 = medium.a
    b1, b2, b3, b4 = medium.b
    f = (temperature_c - medium.t_ref_c) * (temperature_c + medium.t_offset_c)
    l2 = lam_um ** 2
    n2 = (a1 + b1 * f
          + (a2 + b2 * f) / (l2 - (a3 + b3 * f) ** 2)
          + (a4 + b4 * f) / (l2 - a5 ** 2)
          - a6 * l2)
    n = np.sqrt(n2)
    if len(correction):
        n = n + np.polynomial.polynomial.polyval(lam_um, correction)
    return n


def _check_window(lam_um, temperature_c, medium):
    """Raise DomainError outside the medium's wavelength or temperature window."""
    lo, hi = medium.valid_um
    if np.any(lam_um < lo) or np.any(lam_um > hi):
        raise DomainError(
            f"wavelength outside Sellmeier validity window [{lo}, {hi}] um "
            f"for {medium.name}"
        )
    tlo, thi = medium.valid_temp_c
    if not (tlo <= temperature_c <= thi):
        raise DomainError(
            f"temperature {temperature_c} C outside validity window [{tlo}, {thi}] C"
        )


def refractive_index(wavelength_nm, temperature_c, correction=(), medium=CONGRUENT_LN_E):
    """Extraordinary refractive index at wavelength [nm] and temperature [C].

    Checks the wavelength and temperature against the medium's validity
    windows, then evaluates the Sellmeier equation plus the correction
    polynomial (skipped when there is none).  The tuning-map bisection calls
    the unchecked evaluator directly: its points lie between coarse-scan
    nodes that were checked here.

    Parameters
    ----------
    wavelength_nm : float or ndarray
        Vacuum wavelength in nm; must lie inside the medium's validity window.
    temperature_c : float
        Crystal temperature in deg C.
    correction : sequence of float, optional
        Ascending polynomial coefficients of an additive effective-index
        offset, evaluated at the wavelength in um.
    medium : SellmeierMedium

    Returns
    -------
    float or ndarray
    """
    lam_um = np.asarray(wavelength_nm, dtype=float) * 1e-3
    _check_window(lam_um, temperature_c, medium)
    n = _index(lam_um, temperature_c, correction, medium)
    return float(n) if np.ndim(wavelength_nm) == 0 else n


def sfg_wavelength(signal_nm, pump_nm):
    """Sum-frequency wavelength [nm]: 1/l_sfg = 1/l_s + 1/l_p."""
    s = np.asarray(signal_nm, dtype=float)
    p = np.asarray(pump_nm, dtype=float)
    if np.any(s <= 0) or np.any(p <= 0):
        raise DomainError("wavelengths must be positive")
    out = s * p / (s + p)
    if np.ndim(signal_nm) == 0 and np.ndim(pump_nm) == 0:
        return float(out)
    return out


def qpm_mismatch(signal_nm, pump_nm, wg):
    """First-order QPM wavevector mismatch dk [rad/um].

    The waveguide's dispersion_correction polynomial is applied to the
    signal-band index only (net modal correction, see module docstring);
    pump and SFG waves use the bulk Sellmeier index.  All three waves are
    checked against the medium's validity windows, then dk is evaluated by
    the same unchecked formula the tuning-map bisection uses.
    """
    s = np.asarray(signal_nm, dtype=float)
    p = np.asarray(pump_nm, dtype=float)
    f_nm = sfg_wavelength(s, p)
    for lam_nm in (f_nm, s, p):
        _check_window(np.asarray(lam_nm) * 1e-3, wg.temperature_c, wg.medium)
    dk = _mismatch_against(p, wg, "signal")(s)
    if np.ndim(signal_nm) == 0 and np.ndim(pump_nm) == 0:
        return float(dk)
    return dk


def _mismatch_against(known, wg, solve_for):
    """dk(x) [rad/um] for the unknown wavelengths x [nm] against the known
    ones (pump for solve_for="signal", signal for "pump"), broadcast.

    The one dk formula: qpm_mismatch is its checks plus this.  The known
    wave's index term is computed once, and nothing is checked: the
    bisection only evaluates points between coarse-scan nodes that
    qpm_mismatch checked, and the SFG wavelength is monotone between them.
    """
    k_um = known * 1e-3
    correction = wg.dispersion_correction if solve_for == "pump" else ()
    known_term = _index(k_um, wg.temperature_c, correction, wg.medium) / k_um
    inv_period = 1.0 / wg.qpm_period_um

    def dk(x):
        x_um = x * 1e-3
        f_um = (x * known / (x + known)) * 1e-3
        a = _index(f_um, wg.temperature_c, (), wg.medium) / f_um
        if solve_for == "signal":
            b = _index(x_um, wg.temperature_c, wg.dispersion_correction, wg.medium) / x_um
            c = known_term
        else:
            b = known_term
            c = _index(x_um, wg.temperature_c, (), wg.medium) / x_um
        return TWO_PI * (a - b - c - inv_period)

    return dk


def efficiency_factor(delta_k_per_um, length_mm):
    """Normalized conversion lineshape sinc^2(dk*L/2), peak 1 at dk = 0."""
    x = np.asarray(delta_k_per_um, dtype=float) * (length_mm * 1e3) / 2.0
    out = np.sinc(x / np.pi) ** 2
    return float(out) if np.ndim(delta_k_per_um) == 0 else out


def _bisect_roots(f, lo, hi, iterations=80):
    """Vectorized bisection; elementwise, f must change sign on [lo, hi]
    or vanish at lo.

    The state (lo, hi, f(lo)) is a function of itself alone, so once a step
    leaves every lo and hi bit for bit as it was, each later step repeats
    it.  The loop stops there, returning the bits all `iterations` steps
    would give.  A 1 nm bracket near 1550 nm reaches adjacent floats after
    about 42 halvings; `iterations` is only a cap.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        take_lo = flo * fmid <= 0.0
        new_hi = np.where(take_lo, mid, hi)
        new_lo = np.where(take_lo, lo, mid)
        if _same_bits(new_lo, lo) and _same_bits(new_hi, hi):
            break
        hi, lo = new_hi, new_lo
        flo = np.where(take_lo, flo, fmid)
    return 0.5 * (lo + hi)


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _solve_matched(known_nm, wg, solve_for, window_nm, guess_nm=None, bracket_nm=20.0):
    """Root-find dk = 0 over the unknown wavelength axis (vectorized).

    solve_for: "signal" (known = pump) or "pump" (known = signal).
    """
    known = np.atleast_1d(np.asarray(known_nm, dtype=float))

    if guess_nm is not None:
        grid = np.linspace(guess_nm - bracket_nm, guess_nm + bracket_nm, 81)
    else:
        grid = np.arange(window_nm[0], window_nm[1] + _COARSE_STEP_NM, _COARSE_STEP_NM)

    # coarse scan: locate the sign change for every known-wavelength point
    if solve_for == "signal":
        dk_grid = qpm_mismatch(grid[None, :], known[:, None], wg)
    else:
        dk_grid = qpm_mismatch(known[:, None], grid[None, :], wg)
    # A root exactly on a grid node (a designed period puts one on the guess)
    # counts once, as that node; a sign flip between nonzero nodes counts as
    # one root inside its interval.
    on_node = dk_grid == 0.0
    sign_flip = dk_grid[:, :-1] * dk_grid[:, 1:] < 0.0
    n_roots = on_node.sum(axis=1) + sign_flip.sum(axis=1)
    if np.any(n_roots == 0):
        bad = known[n_roots == 0]
        raise TuningError(
            f"no phase-matched {solve_for} in [{grid[0]:.1f}, {grid[-1]:.1f}] nm "
            f"for {bad[:3].tolist()} nm (period {wg.qpm_period_um} um, "
            f"{wg.temperature_c} C)"
        )
    if np.any(n_roots > 1):
        bad = known[n_roots > 1]
        raise TuningError(
            f"ambiguous phase matching: {int(n_roots.max())} roots inside "
            f"[{grid[0]:.1f}, {grid[-1]:.1f}] nm for {bad[:3].tolist()} nm; "
            "pass a guess with a tighter bracket"
        )
    at_node = on_node.any(axis=1)
    node = grid[np.argmax(on_node, axis=1)]
    idx = np.argmax(sign_flip, axis=1)
    lo = np.where(at_node, node, grid[idx])
    hi = np.where(at_node, node, grid[idx + 1])

    root = _bisect_roots(_mismatch_against(known, wg, solve_for), lo, hi)
    if solve_for == "signal":
        resid = np.abs(qpm_mismatch(root, known, wg))
    else:
        resid = np.abs(qpm_mismatch(known, root, wg))
    if np.any(resid > DK_TOLERANCE_PER_UM):
        raise TuningError(
            f"bisection failed to reach |dk| < {DK_TOLERANCE_PER_UM} rad/um "
            f"(worst {resid.max():.3e})"
        )
    return root


def phase_matched_signal(pump_nm, wg, guess_nm=None, bracket_nm=20.0):
    """Signal wavelength [nm] phase matched to the given pump wavelength(s).

    Scans a coarse grid over the design signal band (or guess +- bracket) for
    the sign change of dk, then bisects to |dk| < 1e-9 rad/um.  Raises
    TuningError when no root or more than one root lies in the window.
    """
    root = _solve_matched(pump_nm, wg, "signal", SIGNAL_SEARCH_NM, guess_nm, bracket_nm)
    return float(root[0]) if np.ndim(pump_nm) == 0 else root


def phase_matched_pump(signal_nm, wg, guess_nm=None, bracket_nm=20.0):
    """Pump wavelength [nm] phase matched to the given signal wavelength(s)."""
    root = _solve_matched(signal_nm, wg, "pump", PUMP_SEARCH_NM, guess_nm, bracket_nm)
    return float(root[0]) if np.ndim(signal_nm) == 0 else root


@dataclass(frozen=True)
class BandwidthReport:
    """Acceptance bandwidth of the QPM lineshape around one operating point.

    The FWHM of sinc^2(dk(l_s)*L/2) scanned over the signal wavelength at
    fixed pump, quoted both on the signal axis and mapped onto the SFG axis
    (the two bands differ by the factor (l_sfg/l_s)^2 ~ 0.31, which matters
    when comparing against filters that live in the SFG band).
    """

    signal_nm: float
    pump_nm: float
    sfg_nm: float
    signal_band_fwhm_nm: float
    sfg_band_fwhm_nm: float


def acceptance_bandwidth(wg, pump_nm, guess_nm=None):
    """FWHM of the conversion lineshape vs signal wavelength at fixed pump."""
    center = phase_matched_signal(pump_nm, wg, guess_nm=guess_nm)
    target = 2.0 * HALF_MAX_ARG / (wg.length_mm * 1e3)  # |dk| at half max

    def excess(x_nm):
        return np.abs(qpm_mismatch(x_nm, pump_nm, wg)) - target

    crossings = []
    for direction in (-1.0, +1.0):
        step = 0.05
        outer = center + direction * step
        # grow the bracket until |dk| exceeds the half-max level
        for _ in range(60):
            if excess(outer) > 0:
                break
            step *= 2.0
            outer = center + direction * step
        else:
            raise TuningError("half-maximum crossing not found near the tuning peak")
        lo, hi = (outer, center) if direction < 0 else (center, outer)
        crossings.append(float(_bisect_roots(lambda x: excess(x), np.array([lo]),
                                             np.array([hi]))[0]))
    lo_nm, hi_nm = sorted(crossings)
    sfg_lo = sfg_wavelength(lo_nm, float(pump_nm))
    sfg_hi = sfg_wavelength(hi_nm, float(pump_nm))
    return BandwidthReport(
        signal_nm=center,
        pump_nm=float(pump_nm),
        sfg_nm=sfg_wavelength(center, float(pump_nm)),
        signal_band_fwhm_nm=hi_nm - lo_nm,
        sfg_band_fwhm_nm=abs(sfg_hi - sfg_lo),
    )


def calibrate_operating_point(wg, anchors):
    """Fit the dispersion-correction polynomial from (pump, signal) anchors.

    Each anchor pair is forced to exact phase matching: the polynomial value
    at the anchor's signal wavelength must equal the bulk dk residual there,
    which is a linear (Vandermonde) system in the coefficients.  Degree is
    number-of-anchors - 1, capped at 2; with more than three anchors the
    quadratic is fit by least squares and anchors are no longer met exactly.

    A single anchor fits a constant signal-index offset (degree 0).  That
    offset keeps the bulk Sellmeier tuning slope: 33.3 nm of signal across a
    1920-1980 nm pump scan, against 38.0 nm for the default three anchors, so
    the resulting map is exact only at the anchor.

    Returns a new WaveguideSpec carrying the fitted coefficients.
    """
    anchors = [(float(p), float(s)) for p, s in anchors]
    if len(anchors) == 0:
        raise CalibrationError("at least one (pump, signal) anchor is required")
    pumps = np.array([p for p, _ in anchors])
    signals = np.array([s for _, s in anchors])
    if len(np.unique(signals)) != len(signals):
        raise CalibrationError("duplicate anchor signal wavelengths make the fit singular")

    bulk = replace(wg, dispersion_correction=())
    # residual of the bulk model; the correction must satisfy p(l_s)/l_s = r
    r = qpm_mismatch(signals, pumps, bulk) / TWO_PI
    s_um = signals * 1e-3
    rhs = r * s_um
    degree = min(len(anchors) - 1, 2)
    vand = np.vander(s_um, degree + 1, increasing=True)
    if len(anchors) <= 3:
        try:
            coefs = np.linalg.solve(vand, rhs)
        except np.linalg.LinAlgError as exc:
            raise CalibrationError(f"anchor system is singular: {exc}") from exc
    else:
        coefs, *_ = np.linalg.lstsq(vand, rhs, rcond=None)

    calibrated = replace(wg, dispersion_correction=tuple(float(c) for c in coefs))
    if len(anchors) <= 3:
        resid = np.abs(qpm_mismatch(signals, pumps, calibrated))
        if np.any(resid > DK_TOLERANCE_PER_UM):
            raise CalibrationError(
                f"anchors not phase matched after fit (worst |dk| {resid.max():.3e})"
            )
    return calibrated


def design_qpm_period(signal_nm, pump_nm, wg):
    """Poling period [um] that phase matches the given pair at wg temperature.

    Uses the waveguide's current dispersion correction; at a calibration
    anchor this returns the calibrated instrument's own period.
    """
    f_nm = sfg_wavelength(signal_nm, pump_nm)
    n_f = refractive_index(f_nm, wg.temperature_c, medium=wg.medium)
    n_s = refractive_index(signal_nm, wg.temperature_c,
                           correction=wg.dispersion_correction, medium=wg.medium)
    n_p = refractive_index(pump_nm, wg.temperature_c, medium=wg.medium)
    inv = (n_f / (f_nm * 1e-3) - n_s / (signal_nm * 1e-3) - n_p / (pump_nm * 1e-3))
    if inv <= 0:
        raise TuningError(
            "first-order QPM impossible: bulk mismatch has the wrong sign "
            f"for ({signal_nm} nm, {pump_nm} nm) at {wg.temperature_c} C"
        )
    period = 1.0 / inv
    if not (5.0 < period < 50.0):
        raise TuningError(
            f"required poling period {period:.3f} um outside the practical "
            "5-50 um fabrication range"
        )
    return float(period)
