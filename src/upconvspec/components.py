"""Post-waveguide optical filter chain: fixed filters and the tunable VBG.

The chain isolates the upconverted (~860 nm) light from pump harmonics and
parasitic upconversion: a short-pass edge filter, a band-pass filter, an
angle-tunable volume Bragg grating (VBG) used as the narrow spectral gate,
plus flat broadband losses (dichroics, WDM ports, coupling).  Transmission
models are simple analytic lineshapes; absolute throughput is deliberately
left to the lumped end-to-end efficiency calibration (see conversion module),
so only the spectral *shape* of the chain matters downstream.

The erf edges (edge filters, top-hat lineshapes) are 0.5 erfc(-u), not
0.5 (1 + erf(u)): the latter cancels in the tail, 0.4 % off at u = -5.5,
while erfc keeps its relative accuracy there.  erfc is libm's, so building
a kernel loads no SciPy.  Saturated arguments take the exact limit without
calling it; the default short-pass edge sits there on every kernel cell,
and a kernel build applies an edge saturated over a whole chunk of cells
as one scalar (flat_transmission).
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite

LN2_4 = 4.0 * np.log(2.0)

_ERFC_TWO = 6.0         # x <= -6: erfc(x) rounds to 2
_ERFC_ZERO = 27.3       # x >= 27.3: erfc(x) is below the smallest subnormal


def erfc(x):
    """Complementary error function 1 - erf(x), elementwise: libm's erfc.

    Saturated arguments take the exact limit without calling libm:
    erfc = 2 for x <= -6 and 0 for x >= 27.3.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.where(flat < 0.0, 2.0, 0.0)
    # NaN compares false, so it lands in work and comes out NaN
    work = ~((flat <= -_ERFC_TWO) | (flat >= _ERFC_ZERO))
    if work.any():
        xw = flat[work]
        out[work] = np.fromiter(map(math.erfc, xw.tolist()), float, xw.size)
    return out.reshape(x.shape)[()]


@dataclass(frozen=True)
class FilterElement:
    """One fixed filter in the chain.

    kind: "band_pass" | "short_pass" | "long_pass" | "broadband_loss"
    Band-pass filters use a gaussian or an erf-edged top-hat lineshape of
    width fwhm_nm around center_nm.  Edge filters roll off over
    edge_width_nm (erf transition scale) at edge_nm, and so do a top-hat's
    two edges; it must be positive for either.  Broadband loss is a
    wavelength-independent transmission equal to peak.
    """

    kind: str
    center_nm: float = 0.0
    edge_nm: float = 0.0
    fwhm_nm: float = 0.0
    peak: float = 1.0
    edge_width_nm: float = 1.0
    lineshape: str = "gaussian"
    label: str = ""

    def __post_init__(self):
        check_finite("filter", self, "center_nm", "edge_nm", "fwhm_nm", "edge_width_nm")
        if self.kind not in ("band_pass", "short_pass", "long_pass", "broadband_loss"):
            raise DomainError(f"unknown filter kind {self.kind!r}")
        if not (0.0 <= self.peak <= 1.0):
            raise DomainError(f"filter peak transmission {self.peak} outside [0, 1]")
        if self.kind == "band_pass":
            if self.center_nm <= 0 or self.fwhm_nm <= 0:
                raise DomainError("band_pass needs positive center_nm and fwhm_nm")
            if self.lineshape not in ("gaussian", "top_hat"):
                raise DomainError(f"unknown band_pass lineshape {self.lineshape!r}")
            if self.lineshape == "top_hat" and self.edge_width_nm <= 0:
                raise DomainError("top_hat band_pass needs a positive edge_width_nm")
        if self.kind in ("short_pass", "long_pass"):
            if self.edge_nm <= 0 or self.edge_width_nm <= 0:
                raise DomainError("edge filters need positive edge_nm and edge_width_nm")


@dataclass(frozen=True)
class VbgState:
    """Angle-tunable volume Bragg grating used as the narrow SFG-band gate.

    Reflection line modeled as a gaussian of the stated FWHM by default;
    "top_hat" switches to the band-pass filters' erf-edged flat top, with
    edge scale FWHM/10 and the same half-height points, for sensitivity
    checks -- the published numbers give only FWHM and peak, not a shape.
    The grating carries no setpoint of its own: a scan's tracking schedule
    decides where it is tuned at each point.
    """

    fwhm_nm: float = 0.05
    peak_reflectance: float = 0.95
    tuning_range_nm: tuple = (850.0, 880.0)
    lineshape: str = "gaussian"

    def __post_init__(self):
        if np.shape(self.tuning_range_nm) != (2,):
            raise DomainError(f"VBG tuning_range_nm must be two numbers (lo, hi), "
                              f"got {self.tuning_range_nm!r}")
        lo, hi = self.tuning_range_nm
        check_finite("VBG", self, "tuning_range_nm", "fwhm_nm")
        if not (lo < hi):
            raise DomainError("VBG tuning range must be ordered (lo, hi)")
        if self.fwhm_nm <= 0:
            raise DomainError("VBG fwhm_nm must be positive")
        if not (0.0 < self.peak_reflectance <= 1.0):
            raise DomainError("VBG peak reflectance must be in (0, 1]")
        if self.lineshape not in ("gaussian", "top_hat"):
            raise DomainError(f"unknown VBG lineshape {self.lineshape!r}")


def gaussian_band(wavelength_nm, center_nm, fwhm_nm, peak=1.0):
    """Gaussian transmission lineshape with the given FWHM, maximum = peak."""
    x = (np.asarray(wavelength_nm, dtype=float) - center_nm) / fwhm_nm
    return peak * np.exp(-LN2_4 * x ** 2)


def _line(lam, center_nm, fwhm_nm, peak, lineshape, edge_nm):
    """peak x a line of the given FWHM around center_nm: a gaussian, or a
    flat top with erfc edges of scale edge_nm (half height at +-FWHM/2)."""
    if lineshape == "gaussian":
        return gaussian_band(lam, center_nm, fwhm_nm, peak)
    half = fwhm_nm / 2.0
    rise = 0.5 * erfc(((center_nm - half) - lam) / edge_nm)
    fall = 0.5 * erfc((lam - (center_nm + half)) / edge_nm)
    return peak * rise * fall


def transmission(element, wavelength_nm):
    """Power transmission of one FilterElement at wavelength(s) [nm]."""
    lam = np.asarray(wavelength_nm, dtype=float)
    if element.kind == "broadband_loss":
        out = np.full_like(lam, element.peak)
    elif element.kind == "band_pass":
        out = _line(lam, element.center_nm, element.fwhm_nm, element.peak,
                    element.lineshape, element.edge_width_nm)
    else:  # short_pass, long_pass
        out = element.peak * 0.5 * erfc(_edge_arg(element, lam))
    return float(out) if np.ndim(wavelength_nm) == 0 else out


def _edge_arg(element, lam):
    """An edge filter's erfc argument at lam [nm], monotone in lam."""
    if element.kind == "short_pass":
        return (lam - element.edge_nm) / element.edge_width_nm
    return (element.edge_nm - lam) / element.edge_width_nm


def flat_transmission(element, lo_nm, hi_nm):
    """The one transmission element has at every wavelength in [lo_nm,
    hi_nm], or None where it varies there.

    A broadband loss is flat everywhere.  An edge filter is flat where its
    erfc argument is saturated (see erfc) at both ends on one side: the
    argument is monotone in the wavelength, so every wavelength between
    takes the same exact limit, and the value has transmission's bits.
    """
    if element.kind == "broadband_loss":
        return element.peak
    if element.kind in ("short_pass", "long_pass"):
        u = (_edge_arg(element, lo_nm), _edge_arg(element, hi_nm))
        if all(x <= -_ERFC_TWO for x in u):
            return element.peak * 0.5 * 2.0
        if all(x >= _ERFC_ZERO for x in u):
            return element.peak * 0.5 * 0.0
    return None


def vbg_half_extent_nm(vbg):
    """Distance [nm] from the setpoint beyond which the VBG line is negligible.

    Past it the reflection is below 1e-19 of its peak: 4 FWHM for the
    gaussian (2**-64), and for the top-hat FWHM/2 plus 7 of its FWHM/10
    edge scales (erfc(7)/2 ~ 2e-23).
    """
    if vbg.lineshape == "gaussian":
        return 4.0 * vbg.fwhm_nm
    return 0.5 * vbg.fwhm_nm + 7.0 * (vbg.fwhm_nm / 10.0)


def vbg_transmission(vbg, wavelength_nm, center_nm):
    """Reflection-path transmission of the VBG: its line at peak_reflectance.

    center_nm is the grating's setpoint, a scalar or an array broadcasting
    against wavelength_nm (one setpoint per scan point, as a tracking
    schedule gives); every setpoint must lie inside the tuning range.
    """
    lo, hi = vbg.tuning_range_nm
    c_arr = np.asarray(center_nm, dtype=float)
    if np.any(c_arr < lo) or np.any(c_arr > hi):
        bad = c_arr if c_arr.ndim == 0 else c_arr[(c_arr < lo) | (c_arr > hi)][0]
        raise DomainError(
            f"VBG center {float(bad):.3f} nm outside the tuning range [{lo}, {hi}] nm"
        )
    out = _line(np.asarray(wavelength_nm, dtype=float), c_arr, vbg.fwhm_nm,
                vbg.peak_reflectance, vbg.lineshape, vbg.fwhm_nm / 10.0)
    return float(out) if np.ndim(wavelength_nm) == 0 and c_arr.ndim == 0 else out
