"""Pump-power dependence of conversion efficiency and parasitic noise.

Conversion follows the undepleted-signal SFG solution eta(P) =
eta_max * sin^2(u * sqrt(P)): efficiency rises with pump power, saturates,
and would roll over past the first sin^2 maximum.  Parasitic counts (pump
SHG/THG leakage, spontaneous Raman scattering upconverted in-band) grow
super-linearly and are modeled as a power law on top of the intrinsic dark
rate, D(P) = D0 + a * P^gamma.

Both models can be pinned from measured (power, value) pairs:

* two points -> exact closed form (noise) or 1-D bisection (conversion),
  which is how the deployed instrument is characterized;
* three or more points -> bounded least squares by variable projection, with
  a FitReport carrying residuals so an overdetermined characterization that
  the model cannot reproduce is visible instead of silently averaged away.
"""
from dataclasses import dataclass

import numpy as np

from .dispersion import _bisect_roots
from .errors import DomainError, FitError, check_finite


@dataclass(frozen=True)
class ConversionModel:
    """eta(P) = eta_max * sin^2(u * sqrt(P)), P in mW.

    u has units 1/sqrt(mW).  eta_max is the lumped end-to-end detection
    efficiency at the sin^2 maximum: it already contains waveguide coupling,
    filter-chain throughput and detector quantum efficiency, because it is
    pinned from measured system efficiencies.
    """

    eta_max: float
    u_per_sqrt_mw: float

    def __post_init__(self):
        if not (0.0 < self.eta_max <= 1.0):
            raise DomainError(f"eta_max {self.eta_max} outside (0, 1]")
        check_finite("conversion", self, "u_per_sqrt_mw")
        if self.u_per_sqrt_mw <= 0:
            raise DomainError("u must be positive")

    def efficiency(self, power_mw):
        p = np.asarray(power_mw, dtype=float)
        if np.any(p < 0):
            raise DomainError("pump power must be nonnegative")
        out = self.eta_max * np.sin(self.u_per_sqrt_mw * np.sqrt(p)) ** 2
        return float(out) if np.ndim(power_mw) == 0 else out


@dataclass(frozen=True)
class NoiseModel:
    """Detector counts with no signal input: D(P) = floor + a * P^gamma [cps]."""

    floor_cps: float
    amplitude_cps: float
    exponent: float

    def __post_init__(self):
        check_finite("noise", self, "floor_cps", "amplitude_cps", "exponent")
        if self.floor_cps < 0 or self.amplitude_cps < 0:
            raise DomainError("noise floor and amplitude must be nonnegative")
        if self.exponent <= 0:
            raise DomainError("noise exponent must be positive")

    def rate(self, power_mw):
        p = np.asarray(power_mw, dtype=float)
        if np.any(p < 0):
            raise DomainError("pump power must be nonnegative")
        out = self.floor_cps + self.amplitude_cps * p ** self.exponent
        return float(out) if np.ndim(power_mw) == 0 else out


@dataclass
class FitReport:
    """What a model pin/fit actually achieved on the supplied points."""

    residuals: np.ndarray
    rms: float
    degenerate: bool = False
    note: str = ""


def _as_points(points, what):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise FitError(f"{what}: need at least two (power_mw, value) pairs")
    if np.any(pts[:, 0] < 0):
        raise FitError(f"{what}: negative pump power in calibration points")
    pts = pts[np.argsort(pts[:, 0])]
    if np.any(np.diff(pts[:, 0]) == 0):  # not np.unique: it loads numpy.ma
        raise FitError(f"{what}: duplicate pump powers in calibration points")
    return pts


def _project(basis, target, lo, hi, c_lo, c_hi):
    """Least squares of target ~ c * basis(x), x in [lo, hi], c in [c_lo, c_hi].

    For fixed x the best c is the clipped linear least-squares coefficient
    (variable projection: Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973),
    so only x is searched: the best of 65 even nodes, then golden section in
    the node intervals either side of it until the bracket stops shrinking.
    Returns (x, c) of the least squared residual evaluated.
    """
    tried = []

    def cost(x):
        b = basis(x)
        c = min(max(float(b @ target / (b @ b)), c_lo), c_hi)
        tried.append((float(np.sum((c * b - target) ** 2)), float(x), c))
        return tried[-1][0]

    nodes = np.linspace(lo, hi, 65)
    i = int(np.argmin([cost(x) for x in nodes]))
    a, b = nodes[max(i - 1, 0)], nodes[min(i + 1, 64)]
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = cost(c), cost(d)
    width = np.inf
    while b - a < width:
        width = b - a
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = cost(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = cost(d)
    _, x, c = min(tried)
    return x, c


def fit_conversion(points):
    """Pin ConversionModel to measured (power_mw, efficiency) pairs.

    Two points: solve the sin^2 ratio equation for u by bisection (the ratio
    g(u) = eta2*sin^2(u sqrt(P1)) - eta1*sin^2(u sqrt(P2)) has exactly one
    root in (0, pi/(2 sqrt(Pmax))) when the points are consistent with a
    monotone saturating curve), then eta_max from either point.
    More points: least squares over u in [1e-9, pi/(2 sqrt(Pmax))] and
    eta_max in [1e-6, 1] (_project).  Returns (model, FitReport).
    """
    pts = _as_points(points, "conversion fit")
    if np.any(pts[:, 1] <= 0) or np.any(pts[:, 1] > 1):
        raise FitError("conversion fit: efficiencies must be in (0, 1]")
    if np.any(pts[:, 0] == 0):
        raise FitError("conversion fit: zero pump power carries no information")
    p, eta = pts[:, 0], pts[:, 1]
    hi = np.pi / (2.0 * np.sqrt(p[-1]))  # keep every point on the rising branch
    if len(pts) == 2:
        (p1, p2), (e1, e2) = p, eta

        def g(u):
            return e2 * np.sin(u * np.sqrt(p1)) ** 2 - e1 * np.sin(u * np.sqrt(p2)) ** 2

        # g(0+) -> u^2 (e2 p1 - e1 p2): sign tells which way the curve bends.
        lo = hi * 1e-9
        if g(lo) == 0.0:
            # e1/e2 == p1/p2 exactly: the small-signal (linear) limit, u -> 0
            # is the only solution; treat as degenerate and pin the slope.
            u = lo
        elif g(lo) * g(hi) > 0:
            raise FitError(
                "conversion fit: points are inconsistent with a saturating "
                "sin^2 curve on the monotone branch"
            )
        else:
            u = float(_bisect_roots(g, lo, hi))
        eta_max = float(e2 / np.sin(u * np.sqrt(p2)) ** 2)
        if eta_max > 1.0 + 1e-9:
            raise FitError(
                f"conversion fit: implied eta_max {eta_max:.3f} exceeds 1; "
                "measured efficiencies are not consistent with the model"
            )
        eta_max, limit = min(eta_max, 1.0), np.inf
    else:
        u, eta_max = _project(lambda u: np.sin(u * np.sqrt(p)) ** 2, eta, 1e-9, hi, 1e-6, 1.0)
        limit = 0.02 * float(np.max(eta))
    model = ConversionModel(eta_max=eta_max, u_per_sqrt_mw=float(u))
    res = model.efficiency(p) - eta
    rms = float(np.sqrt(np.mean(res ** 2)))
    note = "residuals exceed 2% of peak efficiency" if rms > limit else ""
    return model, FitReport(residuals=res, rms=rms, degenerate=bool(note), note=note)


def fit_noise(points, floor_cps):
    """Pin NoiseModel to measured (power_mw, total_cps) pairs above a known floor.

    The intrinsic detector floor is pinned (measured with the pump off), so
    two points determine the power law exactly:
        gamma = ln(r2/r1) / ln(p2/p1),  a = r1 / p1^gamma
    with r_i the floor-subtracted rates.  More points: least squares on the
    floor-subtracted rates over gamma in [1e-3, 10] and a in [e^-50, e^50]
    (_project).  Returns (model, FitReport).
    """
    if floor_cps < 0:
        raise FitError("noise fit: floor must be nonnegative")
    pts = _as_points(points, "noise fit")
    p, tot = pts[:, 0], pts[:, 1]
    if np.any(p == 0):
        raise FitError("noise fit: zero-power point belongs in the floor, not here")
    excess = tot - floor_cps
    if np.any(excess <= 0):
        raise FitError(
            "noise fit: some points do not exceed the stated floor; "
            "check floor_cps against the pump-off measurement"
        )
    if len(pts) == 2:
        gamma = float(np.log(excess[1] / excess[0]) / np.log(p[1] / p[0]))
        if gamma <= 0:
            raise FitError(
                f"noise fit: implied exponent {gamma:.3f} is not positive; "
                "pump-induced counts must grow with power"
            )
        a, limit = float(excess[0] / p[0] ** gamma), np.inf
    else:
        gamma, a = _project(lambda gamma: p ** gamma, excess, 1e-3, 10.0,
                            float(np.exp(-50.0)), float(np.exp(50.0)))
        limit = 0.05 * float(np.max(excess))
    model = NoiseModel(floor_cps=float(floor_cps), amplitude_cps=a, exponent=gamma)
    res = model.rate(p) - tot
    rms = float(np.sqrt(np.mean(res ** 2)))
    note = "power law cannot reproduce all points to 5%" if rms > limit else ""
    return model, FitReport(residuals=res, rms=rms, degenerate=bool(note), note=note)
