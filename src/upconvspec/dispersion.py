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

dk is the difference of the three waves' n/l terms (_term, _dk), and each
term is evaluated on the axis it depends on.  The tuning-map root solve
computes the known wave's term once per known wavelength.  A kernel band
(_band_mismatch) computes the signal term once per signal-grid column, the
pump term once per row and only the SFG wavelength and its term per cell,
and hands that SFG wavelength on to the filter chain.  Window checks compare
an array's extremes, not every element; a band is checked whole, from its
rows' end cells, before it is built in row chunks (_check_band), and the
chunks are not checked again.

The tuning map is solved by a coarse 1 nm scan for dk's sign change, then
bracketed false-position steps with an Anderson-Bjorck weight
(_bracketed_roots).  The scan evaluates dk on every node only for pumps on a
1 nm stride; a pump between two of them has the upper one's sign on every
node where dk falls strictly from one to the other without reaching zero.
That is exact: at fixed signal d(dk)/d(l_p) = 2 pi (n_g(l_p) - n_g(l_sfg)) /
l_p^2, negative under normal dispersion and free of the period and of the
signal-only correction.  Nodes where the neighbours disagree, vanish or are
out of that order (the guard) are evaluated for every pump between them,
and only they can move its roots: its root count is the upper neighbour's
plus the change in zero nodes and in sign flips on the node pairs that touch
them, and its bracket is the upper neighbour's unless a root sits on one of
those (_coarse_roots).  dk is linear to about 1e-3 nm across a 1 nm
bracket, so after the bracket's two ends three steps reach the float-noise
floor.
"""
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CalibrationError, DomainError, TuningError, check_finite

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
# a tuning-map root stops once its estimate moves less than this x its bracket
_ROOT_STEP_TOL = 1e-9


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
        check_finite("Sellmeier", self, "a", "b", "t_ref_c", "t_offset_c")
        self._check_n_squared()

    def _check_n_squared(self):
        """DomainError unless n^2 is finite and positive over the wavelength
        and temperature windows.

        The poles l = |a3 + b3 f| and l = |a5| are placed in closed form: f is
        a parabola in T, so its range over the window is set by the window's
        ends and the vertex, and a3 + b3 f is linear in f.  With no pole in
        the window each term of n^2 is monotone in l^2, so on each of 256
        wavelength steps the sum of every term's smaller end value bounds n^2
        from below; the temperature window is sampled at 9 points.
        """
        a1, a2, a3, a4, a5, a6 = self.a
        b1, b2, b3, b4 = self.b
        (l_lo, l_hi), (t_lo, t_hi) = self.valid_um, self.valid_temp_c
        vertex = min(max(0.5 * (self.t_ref_c - self.t_offset_c), t_lo), t_hi)
        temps = np.append(np.linspace(t_lo, t_hi, 9), vertex)
        f = ((temps - self.t_ref_c) * (temps + self.t_offset_c))[:, None]
        g = a3 + b3 * f
        pole_lo = 0.0 if np.min(g) <= 0.0 <= np.max(g) else float(np.min(np.abs(g)))
        for lo, hi in ((pole_lo, float(np.max(np.abs(g)))), (abs(a5), abs(a5))):
            if lo <= l_hi and hi >= l_lo:
                raise DomainError(f"Sellmeier a, b put a pole of n^2 at {max(lo, l_lo):.4g} um, "
                                  f"inside the [{l_lo}, {l_hi}] um window")
        lam = np.linspace(l_lo, l_hi, 257)
        l2 = lam ** 2
        bound = a1 + b1 * f
        for term in ((a2 + b2 * f) / (l2 - g ** 2), (a4 + b4 * f) / (l2 - a5 ** 2), -a6 * l2):
            bound = bound + np.minimum(term[..., :-1], term[..., 1:])
        if not np.all(bound > 0.0):
            i, j = np.argwhere(~(bound > 0.0))[0]
            raise DomainError(f"Sellmeier a, b give n^2 <= 0 or not finite between "
                              f"{lam[j]:.4g} and {lam[j + 1]:.4g} um at {temps[i]:.4g} C")


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
        check_finite("waveguide", self, "length_mm", "qpm_period_um")
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
        # Horner in numpy polyval's order, without its per-call overhead
        acc = correction[-1]
        for c in correction[-2::-1]:
            acc = c + acc * lam_um
        n = n + acc
    return n


def _check_window(lam_nm, temperature_c, medium):
    """Raise DomainError outside the medium's wavelength or temperature window.

    Only the extremes of lam [nm] are scaled to um and compared: scaling by a
    positive constant is monotone, so this is the elementwise check, and NaN
    passes as it does there (fmin and fmax skip NaN unless all is NaN).
    """
    lo, hi = medium.valid_um
    lam = np.asarray(lam_nm, dtype=float)
    if lam.size and (np.fmin.reduce(lam, axis=None) * 1e-3 < lo
                     or np.fmax.reduce(lam, axis=None) * 1e-3 > hi):
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
    polynomial (skipped when there is none).  The tuning-map root solve
    calls the unchecked evaluator directly: its points lie inside the
    wavelength range that the coarse scan checked through qpm_mismatch.

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
    _check_window(wavelength_nm, temperature_c, medium)
    lam_um = np.asarray(wavelength_nm, dtype=float) * 1e-3
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
    pump and SFG waves use the bulk Sellmeier index.  The SFG wavelength is
    computed once; all three waves are checked against the medium's
    validity windows, then dk is evaluated by the one unchecked formula
    (_dk) the tuning-map root solve and the kernel band use too.
    """
    s = np.asarray(signal_nm, dtype=float)
    p = np.asarray(pump_nm, dtype=float)
    f_nm = sfg_wavelength(s, p)
    for lam_nm in (f_nm, s, p):
        _check_window(lam_nm, wg.temperature_c, wg.medium)
    dk = _dk(_term(f_nm, wg), _term(s, wg, wg.dispersion_correction), _term(p, wg), wg)
    if np.ndim(signal_nm) == 0 and np.ndim(pump_nm) == 0:
        return float(dk)
    return dk


def _term(lam_nm, wg, correction=()):
    """One wave's n(l)/l [1/um] at l [nm], unchecked (see _index)."""
    lam_um = lam_nm * 1e-3
    return _index(lam_um, wg.temperature_c, correction, wg.medium) / lam_um


def _dk(sfg_term, signal_term, pump_term, wg):
    """The one dk formula [rad/um] from the three waves' n/l terms."""
    return TWO_PI * (sfg_term - signal_term - pump_term - 1.0 / wg.qpm_period_um)


def _mismatch_against(known, wg, solve_for):
    """dk(x) [rad/um] for the unknown wavelengths x [nm] against the known
    ones (pump for solve_for="signal", signal for "pump"), broadcast.

    The known wave's term is computed once, and nothing is checked: the
    coarse scan ran qpm_mismatch on every node at the smallest and the
    largest known wavelength, the root solve only evaluates points inside
    brackets between those nodes, and the SFG wavelength is monotone in
    both waves.
    """
    correction = wg.dispersion_correction
    known_term = _term(known, wg, correction if solve_for == "pump" else ())

    def dk(x):
        a = _term(x * known / (x + known), wg)
        if solve_for == "signal":
            return _dk(a, _term(x, wg, correction), known_term, wg)
        return _dk(a, known_term, _term(x, wg), wg)

    return dk


def _band_mismatch(signal_nm, cols, pump_nm, wg):
    """(dk [rad/um], SFG wavelength [nm]) on a kernel band: entry [i, k]
    pairs the signal signal_nm[cols[i, k]] with the pump pump_nm[i].

    Bit for bit qpm_mismatch and sfg_wavelength of the gathered cells, with
    each term evaluated on the axis it depends on: the signal term once per
    signal_nm column the band spans, then gathered at cols; the pump term
    once per row; the SFG wavelength and its term once per cell.  Nothing is
    checked: a build checks its whole band first (_check_band), and builds
    it a chunk of rows at a time through this.
    """
    s = np.asarray(signal_nm, dtype=float)
    p = np.asarray(pump_nm, dtype=float)[:, None]
    lam_s = s[cols]
    f_nm = lam_s * p / (lam_s + p)
    first = cols.min()
    b = _term(s[first:cols.max() + 1], wg, wg.dispersion_correction)[cols - first]
    return _dk(_term(f_nm, wg), b, _term(p, wg), wg), f_nm


def _check_band(signal_nm, start, width, pump_nm, wg):
    """Raise what qpm_mismatch raises on a whole band, row i being the
    columns start[i] .. start[i] + width - 1 of an ascending signal_nm grid
    against pump_nm[i], without evaluating it.

    As qpm_mismatch checks the band's cells: the signal span from its first
    column to its last (the cells' own extremes on an ascending grid) and
    the pumps for positivity, then the SFG wavelengths, the span and the
    pumps against the medium's window.  The SFG wavelength rises with the
    signal along a row, by about 0.3 nm per nm: on a grid whose steps are
    far above an ulp (default_signal_grid's are 0.04 nm) the band's SFG
    extremes are at its rows' end cells, and only those are computed.
    """
    s = np.asarray(signal_nm, dtype=float)
    p = np.asarray(pump_nm, dtype=float)[:, None]
    ends = np.stack((start, start + width - 1), axis=1)
    span = s[ends.min():ends.max() + 1]
    if np.fmin.reduce(span) <= 0 or np.fmin.reduce(p, axis=None) <= 0:
        raise DomainError("wavelengths must be positive")
    lam_s = s[ends]
    for lam_nm in (lam_s * p / (lam_s + p), span, p):
        _check_window(lam_nm, wg.temperature_c, wg.medium)


def efficiency_factor(delta_k_per_um, length_mm):
    """Normalized conversion lineshape sinc^2(dk*L/2), peak 1 at dk = 0.

    sinc x = sin(x) / x, exactly 1 at x = 0 (np.sinc would take x / pi only
    to multiply by pi again).
    """
    x = np.asarray(delta_k_per_um, dtype=float) * (length_mm * 1e3) / 2.0
    out = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
    out *= out
    return float(out) if np.ndim(delta_k_per_um) == 0 else out


def _bisect_roots(f, lo, hi, iterations=80):
    """Vectorized bisection; elementwise, f must change sign on [lo, hi]
    or vanish at lo.

    The state (lo, hi, f(lo)) is a function of itself alone, so once a step
    leaves every lo and hi bit for bit as it was, each later step repeats
    it.  The loop stops there, returning the bits all `iterations` steps
    would give.  A 1 nm bracket near 1550 nm reaches adjacent floats after
    about 42 halvings; `iterations` is only a cap.  The scalar solves use it:
    acceptance_bandwidth's half-maximum crossings and the two-point
    conversion pin.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        take_lo = flo * fmid <= 0.0
        # mid replaces hi where take_lo and lo elsewhere: the step leaves the
        # state as it was iff each replaced end already has mid's bits
        if np.array_equal(np.where(take_lo, hi, lo).view(np.int64), mid.view(np.int64)):
            break
        hi = np.where(take_lo, mid, hi)
        lo = np.where(take_lo, lo, mid)
        flo = np.where(take_lo, flo, fmid)
    return 0.5 * (lo + hi)


def _bracketed_roots(f, lo, hi):
    """Vectorized bracketed root finder; elementwise, f must change sign on
    [lo, hi] or vanish at an end.

    False position with the Anderson-Bjorck weight (Anderson & Bjorck, BIT
    13, 253-264, 1973), in a variant: the estimate is the secant through the
    bracket ends, it replaces the end whose f has its sign, and the retained
    end's f is scaled by m = 1 - f(estimate) / f(replaced end), or by 1/2
    where that is not positive.  The scaling is done at every step; the
    published method does it only when the estimate replaces the latest
    estimate, and otherwise keeps the latest estimate as the end, unscaled.
    An estimate not strictly inside the bracket is replaced by the
    bracket's midpoint.  An element stops, and keeps its state, once an
    estimate moves less than _ROOT_STEP_TOL of its first bracket from the
    one before (that last estimate is its root, unevaluated) or once f
    vanishes.  Every step is elementwise and a stopped element is never
    touched again, so a root depends only on its own f, lo and hi, never on
    the other elements or on how many steps they take.  After 80 steps an
    element's last estimate is its root.
    """
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    fa, fb = f(a), f(b)
    tol = _ROOT_STEP_TOL * (b - a)
    root = np.where(fa == 0.0, a, b)
    done = (fa == 0.0) | (fb == 0.0) | (a == b)
    prev = np.full_like(a, np.nan)
    # a secant that divides by zero (a stopped element's, say) is not inside
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(80):
            c = b - fb * (b - a) / (fb - fa)
            inside = (c > np.minimum(a, b)) & (c < np.maximum(a, b))
            c = np.where(inside, c, 0.5 * (a + b))
            root = np.where(done, root, c)
            done = done | (np.abs(c - prev) <= tol)
            if done.all():
                break
            fc = f(c)
            done = done | (fc == 0.0)
            on_b = fc * fb > 0.0
            to_b, to_a = ~done & on_b, ~done & ~on_b  # the end c replaces
            m = 1.0 - fc / np.where(on_b, fb, fa)
            m = np.where(m > 0.0, m, 0.5)
            a, fa = np.where(to_a, c, a), np.where(to_a, fc, np.where(to_b, fa * m, fa))
            b, fb = np.where(to_b, c, b), np.where(to_b, fc, np.where(to_a, fb * m, fb))
            prev = np.where(done, prev, c)
    return root


def _checked_mismatch(known, x, wg, solve_for):
    """qpm_mismatch of the known wavelengths against the unknown ones x."""
    return qpm_mismatch(x, known, wg) if solve_for == "signal" else qpm_mismatch(known, x, wg)


def _coarse_roots(known, grid, wg, solve_for):
    """Root counts and brackets of dk on the coarse grid, for known
    wavelengths sorted ascending and distinct: (count, lo, hi), each with
    one entry per known wavelength, lo and hi being grid nodes.

    A root exactly on a grid node counts once, as that node (lo = hi); a
    sign flip between two nonzero nodes counts as one root inside that
    interval.  Counts are a full scan's; where every count is 1, each
    bracket holds its row's root.

    The first known wavelength of every 1 nm bin, and the last, are strided:
    qpm_mismatch evaluates dk for them on every node, which also checks the
    whole box of wavelengths the scan and its root solve can reach.  A known
    wavelength between two strided neighbours has the signs of its upper
    neighbour on every node where the neighbours' dk are nonzero with one
    sign and strictly ordered (dk lower at the upper neighbour): see
    _solve_matched for why that is exact.  It is evaluated on the other
    nodes, and only those change its count and bracket: its count is the
    upper neighbour's plus the change in zero nodes, and in sign flips on
    the node pairs that touch an evaluated node; its bracket is the upper
    neighbour's unless its root lies on one of those nodes or pairs.
    """
    bins = np.floor(known / _COARSE_STEP_NM)
    strided = np.ones(known.size, dtype=bool)
    strided[1:-1] = bins[1:-1] != bins[:-2]
    dk = _checked_mismatch(known[strided][:, None], grid[None, :], wg, solve_for)
    # per strided row: sign flips between nonzero nodes plus zero nodes, and
    # the bracket of the first of them
    neg, pos = dk < 0.0, dk > 0.0
    flip = (neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:])
    count, lo = flip.sum(axis=1), np.argmax(flip, axis=1)
    hi = lo + 1
    zero = dk == 0.0
    if zero.any():
        at_node = zero.any(axis=1)
        count = count + zero.sum(axis=1)
        lo = np.where(at_node, np.argmax(zero, axis=1), lo)
        hi = np.where(at_node, lo, hi)
    # a row's own strided row, or for a row between two, the upper one
    src = np.cumsum(strided) - strided
    count, lo, hi = count[src], lo[src], hi[src]

    # evaluated cells: each between row against its pair's non-inherited
    # nodes, row by row in node order
    inherit = (dk[:-1] > dk[1:]) & ((dk[1:] > 0.0) | (dk[:-1] < 0.0))
    pair, node = np.divmod(np.flatnonzero(~inherit), grid.size)
    per_pair = np.bincount(pair, minlength=inherit.shape[0])
    between = np.flatnonzero(~strided)
    reps = per_pair[src[between] - 1]
    row = np.repeat(between, reps)
    cell = np.arange(row.size) + np.repeat(
        np.cumsum(per_pair)[src[between] - 1] - np.cumsum(reps), reps)
    k = node[cell]
    s = np.sign(_checked_mismatch(known[row], grid[k], wg, solve_for))
    # the upper neighbour's signs at nodes k - 1, k and k + 1 (NaN past the
    # grid) against the between row's own: s at k, and at k - 1 where that
    # node is evaluated too.  A cell whose right neighbour is evaluated
    # leaves their pair to that neighbour (NaN on its right).
    padded = np.full((dk.shape[0], grid.size + 2), np.nan)
    padded[:, 1:-1] = dk
    at_k = src[row] * padded.shape[1] + k + 1
    h_lo, h, h_hi = (np.sign(padded.ravel()[at_k + d]) for d in (-1, 0, 1))
    adjacent = (row[1:] == row[:-1]) & (k[1:] == k[:-1] + 1)
    h_hi[:-1][adjacent] = np.nan
    s_lo = h_lo.copy()
    s_lo[1:][adjacent] = s[:-1][adjacent]
    at, left, right = s == 0.0, s_lo * s < 0.0, s * h_hi < 0.0
    change = ((at.astype(int) + left + right)
              - ((h == 0.0).astype(int) + (h_lo * h < 0.0) + (h * h_hi < 0.0)))
    count = count + np.bincount(row, weights=change, minlength=known.size).astype(int)
    hit = at | left | right
    lo[row[hit]] = (k - left)[hit]
    hi[row[hit]] = (k + right)[hit]
    return count, grid[lo], grid[hi]


def _solve_matched(known_nm, wg, solve_for, window_nm):
    """Root-find dk = 0 over the unknown wavelength axis (vectorized).

    solve_for: "signal" (known = pump) or "pump" (known = signal).  The
    coarse scan covers window_nm in 1 nm steps.  It evaluates dk on every
    node only for known wavelengths on a 1 nm stride; one between two
    strided neighbours has the upper neighbour's sign on every node where dk
    falls strictly from the lower neighbour to the upper one without
    reaching zero, and is evaluated on the other nodes (_coarse_roots).  Its
    root count is the upper neighbour's, corrected on the evaluated nodes and
    the node pairs that touch them, and so is its bracket.

    That is exact for the signal solve.  At a fixed signal,
    d(dk)/d(l_p) = 2 pi (n_g(l_p) - n_g(l_sfg)) / l_p^2 with n_g the group
    index: negative under normal dispersion, and free of the QPM period and
    of the correction polynomial, which acts on the signal index only.  So
    dk falls monotonically from one strided pump to the next, and a node
    whose sign agrees at both keeps it in between.  For the pump solve the
    slope d(dk)/d(l_s) carries the correction's slope, and the ordering
    guard is what holds it: where dk does not fall from one neighbour to
    the next, the node is evaluated.  Root counts, brackets and errors are
    those of a full scan, reported in input order.

    Each bracket is then solved by _bracketed_roots on dk of its own known
    wavelength, elementwise, so a root is the one a solve of that wavelength
    alone gives.  The roots are checked through qpm_mismatch: |dk| above
    DK_TOLERANCE_PER_UM at any of them is a TuningError.
    """
    known = np.atleast_1d(np.asarray(known_nm, dtype=float))
    if known.size == 0:
        return known
    grid = np.arange(window_nm[0], window_nm[1] + _COARSE_STEP_NM, _COARSE_STEP_NM)
    distinct, back = np.unique(known, return_inverse=True)
    n_roots, lo, hi = _coarse_roots(distinct, grid, wg, solve_for)
    n_roots = n_roots[back]
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
            f"[{grid[0]:.1f}, {grid[-1]:.1f}] nm for {bad[:3].tolist()} nm"
        )
    root = _bracketed_roots(_mismatch_against(distinct, wg, solve_for), lo, hi)
    resid = np.abs(_checked_mismatch(distinct, root, wg, solve_for))
    if np.any(resid > DK_TOLERANCE_PER_UM):
        raise TuningError(
            f"tuning solve failed to reach |dk| < {DK_TOLERANCE_PER_UM} rad/um "
            f"(worst {resid.max():.3e})"
        )
    return root[back]


def phase_matched_signal(pump_nm, wg):
    """Signal wavelength [nm] phase matched to the given pump wavelength(s).

    Scans a 1 nm grid over 1450-1650 nm for the sign change of dk, then
    solves each bracket by false position with an Anderson-Bjorck weight,
    stopping once a step moves less than 1e-9 nm, and checks |dk| < 1e-9
    rad/um at the root.  Only pumps on a 1 nm stride are scanned on every
    node.  A pump between two of them has the higher one's sign on every
    node where dk falls strictly from the lower one to the higher one
    without reaching zero (the ordering guard): at fixed signal dk falls
    with the pump, so such a node keeps its sign in between.  It is
    evaluated on the other nodes, and its root count and bracket are the
    higher pump's, corrected on those nodes and the node pairs touching
    them.  Root counts and roots are those of a full scan.  Raises
    TuningError when no root or more than one root lies in the window.
    """
    root = _solve_matched(pump_nm, wg, "signal", SIGNAL_SEARCH_NM)
    return float(root[0]) if np.ndim(pump_nm) == 0 else root


def phase_matched_pump(signal_nm, wg):
    """Pump wavelength [nm] phase matched to the given signal wavelength(s),
    searched over the design pump band."""
    root = _solve_matched(signal_nm, wg, "pump", PUMP_SEARCH_NM)
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


def acceptance_bandwidth(wg, pump_nm, signal_nm):
    """FWHM of the conversion lineshape vs signal wavelength at fixed pump,
    around signal_nm, which must be phase matched to pump_nm (TuningError
    when |dk| there exceeds DK_TOLERANCE_PER_UM).

    Each side's bracket doubles from 0.05 nm until |dk| passes its
    half-maximum level; one that would leave the medium's window first (a
    waveguide so short that it accepts the whole window) is a TuningError
    naming the length."""
    center = float(signal_nm)
    dk = abs(qpm_mismatch(center, pump_nm, wg))
    if not dk <= DK_TOLERANCE_PER_UM:
        raise TuningError(f"({center} nm, {pump_nm} nm) is not phase matched: "
                          f"|dk| {dk:.3e} > {DK_TOLERANCE_PER_UM} rad/um")
    target = 2.0 * HALF_MAX_ARG / (wg.length_mm * 1e3)  # |dk| at half max

    def excess(x_nm):
        return np.abs(qpm_mismatch(x_nm, pump_nm, wg)) - target

    crossings = []
    for direction in (-1.0, +1.0):
        step = 0.05
        outer = center + direction * step
        # grow the bracket until |dk| exceeds the half-max level, inside the
        # medium's window (a wavelength or SFG leaving it is a DomainError)
        for _ in range(60):
            try:
                if excess(outer) > 0:
                    break
            except DomainError as exc:
                raise TuningError(
                    f"acceptance search: |dk| stays under its half-maximum level "
                    f"{target:.4g} rad/um from {center} nm out to "
                    f"{center + 0.5 * direction * step} nm, and a wider bracket leaves "
                    f"the medium's window ({exc}): a {wg.length_mm} mm waveguide "
                    f"accepts more than the window holds") from exc
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

    Each anchor's pump and signal must lie in the tuning map's search windows
    (PUMP_SEARCH_NM, SIGNAL_SEARCH_NM): an anchor outside them cannot be on
    the map the solver finds.

    Returns a new WaveguideSpec carrying the fitted coefficients.
    """
    anchors = [(float(p), float(s)) for p, s in anchors]
    if len(anchors) == 0:
        raise CalibrationError("at least one (pump, signal) anchor is required")
    for i, (pump, signal) in enumerate(anchors):
        for wave, value, (lo, hi) in (("pump", pump, PUMP_SEARCH_NM),
                                      ("signal", signal, SIGNAL_SEARCH_NM)):
            if not lo <= value <= hi:
                raise CalibrationError(f"anchor {i} ({pump}, {signal}) nm: {wave} outside "
                                       f"the tuning map's search window [{lo}, {hi}] nm")
    pumps = np.array([p for p, _ in anchors])
    signals = np.array([s for _, s in anchors])
    if np.any(np.diff(np.sort(signals)) == 0):  # not np.unique: it loads numpy.ma
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
    anchor this returns the calibrated instrument's own period.  A signal or
    pump that is not a finite positive wavelength is a DomainError naming it.
    """
    for name, value in (("signal", signal_nm), ("pump", pump_nm)):
        if not (np.isfinite(value) and value > 0):
            raise DomainError(f"{name} wavelength must be finite and positive, got {value} nm")
    inv = qpm_mismatch(signal_nm, pump_nm, wg) / TWO_PI + 1.0 / wg.qpm_period_um
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
