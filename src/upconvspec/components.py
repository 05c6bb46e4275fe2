"""Post-waveguide optical filter chain: fixed filters and the tunable VBG.

The chain isolates the upconverted (~860 nm) light from pump harmonics and
parasitic upconversion: a short-pass edge filter, a band-pass filter, an
angle-tunable volume Bragg grating (VBG) used as the narrow spectral gate,
plus flat broadband losses (dichroics, WDM ports, coupling).  Transmission
models are simple analytic lineshapes; absolute throughput is deliberately
left to the lumped end-to-end efficiency calibration (see conversion module),
so only the spectral *shape* of the chain matters downstream.

The erf edges (edge filters, top-hat lineshapes) use this module's own
vectorised erfc, so building a kernel loads no SciPy.  A top-hat edge is
0.5 erfc(-u), not 0.5 (1 + erf(u)): the latter cancels in the tail, 0.4 %
off at u = -5.5, while erfc keeps its relative accuracy there.  erfc for
|x| > 0.46875 is W. J. Cody's rational Chebyshev approximation (Math. Comp.
23, 631, 1969), with exp(-x^2) split as Cody does so the tail keeps its
relative accuracy down to underflow; for |x| <= 0.46875 it is 1 - erf(x),
with erf(x) cephes's x T(x^2)/U(x^2), the form SciPy evaluates there.
Saturated arguments take the exact limit without evaluating anything; the
default short-pass edge sits there on every kernel cell.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite

LN2_4 = 4.0 * np.log(2.0)

# Coefficients, highest degree first.  |x| <= 0.46875: erf(x) = x T(x^2) / U(x^2),
# cephes's form, which SciPy evaluates there too.  Cody's erfc for |y| > 0.46875:
# erfc(y) = exp(-y^2) R2(y) up to y = 4 and exp(-y^2) (1/sqrt(pi) - z R3(z)) / y
# beyond, with z = 1/y^2.
_ERF_TU = ((9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
            7.00332514112805075473e3, 5.55923013010394962768e4),
           (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
            4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4))
_R2 = ((2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
        6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
        1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
       (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
        1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
        3.43936767414372164e3, 1.23033935480374942e3))
_R3 = ((1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
        1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
       (1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
        6.05183413124413191e-2, 2.33520497626869185e-3))
_SQRT_1_PI = 5.6418958354775628695e-1
_ERFC_DIRECT = 0.46875  # erfc is 1 - erf up to here and Cody's beyond
_ERFC_TWO = 6.0         # x <= -6: erfc(x) rounds to 2
_ERFC_ZERO = 27.3       # x >= 27.3: erfc(x) is below the smallest subnormal


def _horner(coeffs, t):
    acc = coeffs[0] * t
    for c in coeffs[1:-1]:
        acc += c
        acc *= t
    acc += coeffs[-1]
    return acc


def _rational(coeffs, t):
    num, den = coeffs
    return _horner(num, t) / _horner(den, t)


def _erfc_abs(y):
    """erfc(y) for y > 0.46875 (NaN passes through), Cody's outer intervals.

    exp(-y^2) is split as exp(-q^2) exp(-(y - q)(y + q)) with q = y cut to
    sixteenths, so the tail keeps its relative accuracy where y^2 is large.
    """
    out = np.empty_like(y)
    mid = y <= 4.0
    out[mid] = _rational(_R2, y[mid])
    tail = ~mid
    yt = y[tail]
    z = 1.0 / (yt * yt)
    out[tail] = (_SQRT_1_PI - z * _rational(_R3, z)) / yt
    q = np.trunc(y * 16.0) / 16.0
    return np.exp(-q * q) * np.exp(-(y - q) * (y + q)) * out


def erfc(x):
    """Complementary error function 1 - erf(x), elementwise, keeping its
    relative accuracy down to the underflow limit.

    Saturated arguments take the exact limit without evaluating anything:
    erfc = 2 for x <= -6 and 0 for x >= 27.3.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.where(flat < 0.0, 2.0, 0.0)
    # NaN compares false, so it lands in work and comes out NaN
    work = ~((flat <= -_ERFC_TWO) | (flat >= _ERFC_ZERO))
    if work.any():
        xw = flat[work]
        yw = np.abs(xw)
        res = np.empty_like(xw)
        near = yw <= _ERFC_DIRECT
        xn = xw[near]
        res[near] = 1.0 - xn * _rational(_ERF_TU, xn * xn)
        far = ~near
        r = _erfc_abs(yw[far])
        res[far] = np.where(xw[far] < 0.0, 2.0 - r, r)
        out[work] = res
    return out.reshape(x.shape)[()]


@dataclass(frozen=True)
class FilterElement:
    """One fixed filter in the chain.

    kind: "band_pass" | "short_pass" | "long_pass" | "broadband_loss"
    Band-pass filters use a gaussian or an erf-edged top-hat lineshape of
    width fwhm_nm around center_nm.  Edge filters roll off over
    edge_width_nm (erf transition scale) at edge_nm.  Broadband loss is a
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
        if self.kind in ("short_pass", "long_pass"):
            if self.edge_nm <= 0 or self.edge_width_nm <= 0:
                raise DomainError("edge filters need positive edge_nm and edge_width_nm")


@dataclass(frozen=True)
class VbgState:
    """Angle-tunable volume Bragg grating used as the narrow SFG-band gate.

    Reflection line modeled as a gaussian of the stated FWHM by default;
    "top_hat" switches to an erf-edged flat top (edge scale FWHM/10) for
    sensitivity checks -- the published numbers give only FWHM and peak,
    not a shape.  The grating carries no setpoint of its own: a scan's
    tracking schedule decides where it is tuned at each point.
    """

    fwhm_nm: float = 0.05
    peak_reflectance: float = 0.95
    tuning_range_nm: tuple = (850.0, 880.0)
    lineshape: str = "gaussian"

    def __post_init__(self):
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


def transmission(element, wavelength_nm):
    """Power transmission of one FilterElement at wavelength(s) [nm]."""
    lam = np.asarray(wavelength_nm, dtype=float)
    if element.kind == "broadband_loss":
        out = np.full_like(lam, element.peak)
    elif element.kind == "band_pass":
        if element.lineshape == "gaussian":
            out = gaussian_band(lam, element.center_nm, element.fwhm_nm, element.peak)
        else:  # top_hat with erf edges
            half = element.fwhm_nm / 2.0
            w = element.edge_width_nm
            rise = 0.5 * erfc(((element.center_nm - half) - lam) / w)
            fall = 0.5 * erfc((lam - (element.center_nm + half)) / w)
            out = element.peak * rise * fall
    elif element.kind == "short_pass":
        out = element.peak * 0.5 * erfc((lam - element.edge_nm) / element.edge_width_nm)
    else:  # long_pass
        out = element.peak * 0.5 * erfc((element.edge_nm - lam) / element.edge_width_nm)
    return float(out) if np.ndim(wavelength_nm) == 0 else out


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
    """Reflection-path transmission of the VBG (gaussian line, peak < 1).

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
    if vbg.lineshape == "gaussian":
        out = gaussian_band(wavelength_nm, c_arr, vbg.fwhm_nm, vbg.peak_reflectance)
    else:
        lam = np.asarray(wavelength_nm, dtype=float)
        half = vbg.fwhm_nm / 2.0
        w = vbg.fwhm_nm / 10.0
        rise = 0.5 * erfc(((c_arr - half) - lam) / w)
        fall = 0.5 * erfc((lam - (c_arr + half)) / w)
        out = vbg.peak_reflectance * rise * fall
    return float(out) if np.ndim(wavelength_nm) == 0 and c_arr.ndim == 0 else out
