"""Pump-scanned single-pixel spectrometer: kernel, tracking, forward model.

Scanning the pump wavelength slides the phase-matched signal wavelength
across the band of interest, so one counting detector plus the QPM
acceptance curve acts as a scanning monochromator.  The instrument response
to a signal spectral density S(lambda) [W/nm] at scan point i is

    rate_i = sum_j K[i][j] S(lambda_j) dlambda_j + noise(P)

with K the response kernel built here.  Each kernel row combines the QPM
sinc^2 lineshape, the filter-chain transmission at the upconverted
wavelength (VBG tracked or fixed), and the pinned conversion efficiency,
normalized so a phase-matched monochromatic input of power W with a tracked
VBG produces eta(P) * W / (h nu) counts/s.  Each row is sharp around its
phase-matched signal, so K is banded: a row is evaluated, stored and
written only over a fixed-width window of columns around its VBG setpoint
(ResponseKernel.band_start, band_values), and Richardson-Lucy runs on an
operator built from that band once per kernel (rl_operator, an RLOperator):
dense blocks of RL_BLOCK_ROWS consecutive rows.  The build and the
operator's scatter work on chunks of rows of at most BAND_CHUNK_CELLS band
cells, so neither holds a whole-band temporary beside the band it makes.

The kernel, which holds its ScanPlan, is also the one record of what a
plan covers.  Each column's peak response (ResponseKernel.column_peak)
decides whether every support column is reached (ResponseKernel.support,
checked by forward_scan and rl_operator) and gives the fixed-VBG usable
span from one plan's fixed- and tracked-VBG kernels (fixed_vbg_usable_span).
"""
import functools
from dataclasses import dataclass, field

import numpy as np

from . import dispersion
from .components import (flat_transmission, transmission, vbg_half_extent_nm,
                         vbg_transmission)
from .counting import poisson_counts, validate_seed
from .errors import DomainError, TuningError, UnrecoverableBandError, check_finite
from .units import photon_energy_j

# The default scan's mapped signal moves 0.031 nm per pump step: a 0.04 nm
# grid leaves RL fewer support columns than scan points (950 from 1201).
SIGNAL_GRID_STEP_NM = 0.04
BAND_REL_TOL = 1e-12  # band keeps entries above this x their row's peak
_GRID_PAD_NM = 1.5  # sinc^2 tails beyond the mapped range worth keeping
_GRID_COUNT_TOL = 1e-9  # pump steps a window may fall short of a whole count
_SIGNAL_COUNT_TOL = 1e-6  # signal steps a span may pass a whole count by
RL_BLOCK_ROWS = 16  # kernel rows per dense block of the RL operator
BAND_CHUNK_CELLS = 16384  # band cells per row chunk of a build or an RL operator


def _read_only(array):
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ScanPlan:
    """One pump sweep: range, step, dwell, power, tracking mode, seed."""

    pump_start_nm: float = 1920.0
    pump_stop_nm: float = 1980.0
    pump_step_nm: float = 0.05
    dwell_s: float = 1.0
    pump_power_mw: float = 30.0
    vbg_tracking: str = "tracked"
    seed: int = 20240901

    def __post_init__(self):
        check_finite("scan", self, "pump_start_nm", "pump_stop_nm", "pump_step_nm",
                     "dwell_s", "pump_power_mw")
        if not (self.pump_start_nm < self.pump_stop_nm):
            raise DomainError("scan needs pump_start_nm < pump_stop_nm")
        if self.pump_step_nm <= 0 or self.dwell_s <= 0:
            raise DomainError("pump_step_nm and dwell_s must be positive")
        if self.pump_power_mw <= 0:
            raise DomainError("scan pump power must be positive")
        if self.vbg_tracking not in ("tracked", "fixed"):
            raise DomainError(f"vbg_tracking must be tracked|fixed, got {self.vbg_tracking!r}")
        validate_seed(self.seed)

    def pump_grid_nm(self):
        """Scan points from pump_start_nm in pump_step_nm steps, none past
        pump_stop_nm.

        The step count is floored with a 1e-9-step tolerance, so a step that
        divides the window, float noise in stop - start included, still ends
        on the stop.  A fixed VBG is parked for the nominal scan centre
        0.5 (start + stop) whether or not the last point reaches the stop.
        """
        n = int(np.floor((self.pump_stop_nm - self.pump_start_nm) / self.pump_step_nm
                         + _GRID_COUNT_TOL))
        return self.pump_start_nm + self.pump_step_nm * np.arange(n + 1)


@dataclass(frozen=True)
class TrackingSchedule:
    """A scan's tuning map and VBG setpoints, solved once per plan."""

    signal_nm: np.ndarray         # phase-matched signal at each scan point
    centers_nm: np.ndarray        # VBG setpoint at each scan point


def vbg_tracking_schedule(plan, wg, vbg):
    """Solve the scan's tuning map and decide the VBG setpoint at each point.

    tracked: each point's setpoint is the phase-matched SFG wavelength.
    fixed: one setpoint for every point, the phase-matched SFG wavelength at
    the scan-centre pump 0.5 (start + stop).  This is the one tuning-map
    solve a kernel build makes: the scan's n pumps and the scan-centre pump
    are solved together on n + 1 points.  The solve is elementwise, so the
    centre's root is the one a solve of its own would give.
    """
    pump = plan.pump_grid_nm()
    center_pump = 0.5 * (plan.pump_start_nm + plan.pump_stop_nm)
    sig = dispersion.phase_matched_signal(np.append(pump, center_pump), wg)
    if plan.vbg_tracking == "tracked":
        centers = dispersion.sfg_wavelength(sig[:-1], pump)
    else:
        centers = np.full_like(pump, float(dispersion.sfg_wavelength(sig[-1], center_pump)))
    lo_nm, hi_nm = vbg.tuning_range_nm
    bad = centers[(centers < lo_nm) | (centers > hi_nm)]
    if bad.size:
        raise TuningError(f"VBG setpoint {bad[0]:.3f} nm outside tuning range "
                          f"[{lo_nm}, {hi_nm}] nm")
    return TrackingSchedule(signal_nm=sig[:-1], centers_nm=centers)


def fixed_vbg_usable_span(fixed, tracked):
    """Signal span [nm] a fixed VBG covers at >= half the tracked sensitivity.

    fixed and tracked are one plan's kernels in the two VBG modes.  The span
    is the contiguous run of signal-grid columns, around the scan-centre
    row's mapped signal, where the fixed kernel's column_peak is at least
    half the tracked one's (0.0 if the centre column falls short).  The
    upconverted line is several times wider than the VBG, so a line stays
    usable after its centre has left the passband.  Solves nothing.
    """
    grid, peak, mapped = fixed.signal_grid_nm, fixed.column_peak, fixed.mapped_signal_nm
    if ((fixed.vbg_tracking, tracked.vbg_tracking) != ("fixed", "tracked")
            or not np.array_equal(grid, tracked.signal_grid_nm)):
        raise DomainError("fixed_vbg_usable_span needs one plan's fixed- and tracked-VBG "
                          "kernels, in that order")
    ok = (peak > 0.0) & (peak >= 0.5 * tracked.column_peak)
    j = int(np.argmin(np.abs(grid - mapped[mapped.size // 2])))
    # columns that fall short, with sentinels at -1 and grid.size around the run
    short = np.flatnonzero(~np.concatenate(([False], ok, [False]))) - 1
    k = np.searchsorted(short, j)
    return float(grid[short[k] - 1] - grid[short[k - 1] + 1]) if ok[j] else 0.0


@dataclass(frozen=True)
class RLOperator:
    """A kernel's band as Richardson-Lucy applies it: count rates [cps] from
    a density [W/nm] on the support columns, and back.

    Block b holds kernel rows b*RL_BLOCK_ROWS onward (the last block is
    padded with zero rows), dense over the consecutive support columns
    columns[b], which cover every support column those rows reach.  Entries
    are the band times the grid weights; the band's columns outside the
    support are left out.  norm is the column sums, back(1).  The arrays
    are read-only.  Both products run on the blocks, and forward takes
    several vectors in one product.
    """

    support: np.ndarray           # signal-grid columns inside the mapped range
    blocks: np.ndarray            # n_blocks x RL_BLOCK_ROWS x width
    columns: np.ndarray           # n_blocks x width support-relative columns
    n_rows: int
    norm: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "norm", self.back(np.ones(self.n_rows)))
        for array in (self.support, self.blocks, self.columns, self.norm):
            array.flags.writeable = False

    def forward(self, x):
        """Per-row sums of the weights times x, one value per kernel row.

        x may also be k x n_support, k vectors in one product: the sums are
        then k x n_rows, a row per vector.
        """
        taken = x.take(self.columns, axis=x.ndim - 1)  # [k x] n_blocks x width
        if x.ndim == 1:
            return np.matmul(self.blocks, taken[..., None]).reshape(-1)[:self.n_rows]
        model = np.matmul(self.blocks, taken.transpose(1, 2, 0))
        return model.reshape(-1, x.shape[0])[:self.n_rows].T

    def back(self, r):
        """Per-column sums of the weights times r (one value per kernel row)."""
        padded = np.zeros(self.blocks.shape[:2])
        padded.reshape(-1)[:self.n_rows] = r
        sums = np.matmul(self.blocks.transpose(0, 2, 1), padded[..., None])
        return np.bincount(self.columns.reshape(-1), weights=sums.reshape(-1),
                           minlength=self.support.size)


@dataclass(frozen=True)
class ResponseKernel:
    """Instrument response: counts/s per W of monochromatic input, as a band.

    A kernel holds its plan and what only a build produces.  Row i is the
    count rate at pump_grid_nm[i] per watt of input at each signal_grid_nm
    column, stored only over its W-column window: band_values[i, k] is the
    entry at column band_start[i] + k, zero outside.  mapped_signal_nm[i] is
    row i's phase-matched signal (the scan's native abscissa).  Both grids
    are derived and read-only; the signal grid,
    default_signal_grid(mapped_signal_nm), is fixed when the kernel is made,
    so it is the grid build_kernel evaluated the band on.  Pump power and
    VBG tracking mode are the plan's; the rows
    carry the pinned efficiency at that power.  The plan's dwell and seed
    enter nothing the kernel holds.
    """

    plan: ScanPlan
    band_start: np.ndarray        # first column of each row's window (int)
    band_values: np.ndarray       # n_pump x W entries of the windows
    mapped_signal_nm: np.ndarray
    vbg_centers_nm: np.ndarray
    signal_grid_nm: np.ndarray = field(init=False)
    pump_power_mw = property(lambda self: self.plan.pump_power_mw)
    vbg_tracking = property(lambda self: self.plan.vbg_tracking)

    def __post_init__(self):
        object.__setattr__(self, "signal_grid_nm",
                           _read_only(default_signal_grid(self.mapped_signal_nm)))

    @functools.cached_property
    def pump_grid_nm(self):
        """Read-only plan.pump_grid_nm(), one point per row."""
        return _read_only(self.plan.pump_grid_nm())

    @functools.cached_property
    def band_columns(self):
        """Column index of every band_values entry (n_pump x W)."""
        return self.band_start[:, None] + np.arange(self.band_values.shape[1])

    @functools.cached_property
    def column_peak(self):
        """Read-only largest band entry of each signal-grid column: the peak
        rate [cps/W] a line at that column gives as the pump scans."""
        peak = np.zeros(self.signal_grid_nm.size)
        np.maximum.at(peak, self.band_columns.ravel(), self.band_values.ravel())  # 1-D: fast path
        return _read_only(peak)

    @functools.cached_property
    def support(self):
        """The read-only signal-grid columns inside the mapped signal range,
        each reached by some row's band (column_peak > 0), which rl_operator
        and forward_scan both check.  Raises DomainError for an empty
        support, UnrecoverableBandError naming each run of unreached columns.
        """
        grid, mapped = self.signal_grid_nm, self.mapped_signal_nm
        support = np.flatnonzero((grid >= np.min(mapped)) & (grid <= np.max(mapped)))
        if support.size == 0:
            raise DomainError("the scan's mapped signal range holds no signal-grid points")
        dead = support[self.column_peak[support] <= 0.0]
        if dead.size:
            runs = np.split(dead, np.flatnonzero(np.diff(dead) > 1) + 1)
            raise UnrecoverableBandError([(float(grid[r[0]]), float(grid[r[-1]])) for r in runs])
        return _read_only(support)

    @functools.cached_property
    def rl_operator(self):
        """The read-only RLOperator Richardson-Lucy runs on, built once per kernel.

        It holds the band times the grid weights np.gradient(signal_grid_nm)
        on the checked support (so it raises what support raises), zero
        elsewhere, as dense blocks of RL_BLOCK_ROWS consecutive rows, filled
        a chunk of rows at a time (dataclasses.replace makes a new kernel,
        and so a new operator).
        """
        grid, support = self.signal_grid_nm, self.support
        (n_rows, band_width), n_support = self.band_values.shape, support.size
        first_col = self.band_start - support[0]  # support-relative
        # one width for every block: the most support columns a block's rows reach
        heads = np.arange(0, n_rows, RL_BLOCK_ROWS)
        lo = np.minimum.reduceat(np.clip(first_col, 0, n_support), heads)
        hi = np.maximum.reduceat(np.clip(first_col + band_width, 0, n_support), heads)
        width = max(int(np.max(hi - lo)), 1)
        first = np.minimum(lo, n_support - width)
        # Scatter each chunk of rows into its blocks' columns, with one spare
        # column on either side: entries off the support all land there, and
        # are cut.  offset is each row's spare left column, as a grid column.
        offset = np.repeat(first - 1, RL_BLOCK_ROWS)[:n_rows, None] + support[0]
        weights = np.gradient(grid)
        blocks = np.zeros((heads.size * RL_BLOCK_ROWS, width))
        for rows in _row_chunks(n_rows, band_width):
            cols = self.band_columns[rows]
            wide = np.zeros((cols.shape[0], width + 2))
            np.put_along_axis(wide, np.clip(cols - offset[rows], 0, width + 1),
                              self.band_values[rows] * weights[cols], axis=1)
            blocks[rows] = wide[:, 1:-1]
        return RLOperator(support=support,
                          blocks=blocks.reshape(heads.size, RL_BLOCK_ROWS, width),
                          columns=first[:, None] + np.arange(width), n_rows=n_rows)

    @functools.cached_property
    def matrix(self):
        """Read-only dense view: the band scattered into n_pump x n_signal zeros.

        For callers outside the package that want the full matrix; nothing
        in the package reads it.
        """
        m = np.zeros((self.pump_grid_nm.size, self.signal_grid_nm.size))
        np.put_along_axis(m, self.band_columns, self.band_values, axis=1)
        return _read_only(m)


def _row_chunks(n_rows, width):
    """Slices of consecutive rows of a band width cells wide, each holding at
    most BAND_CHUNK_CELLS cells (one row at least): what a band's per-cell
    steps work on at a time, so that none makes a whole-band temporary."""
    step = max(BAND_CHUNK_CELLS // width, 1)
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


def default_signal_grid(mapped):
    """Ascending grid over a tuning map's end points plus tails.

    The step count is ceiled with a 1e-6-step tolerance, far above the
    tuning solve's root noise (about 1e-10 of a step), so ends a whole
    number of steps apart give the same grid whichever way that noise falls.
    """
    ends = mapped[[0, -1]]
    lo = float(np.min(ends)) - _GRID_PAD_NM
    hi = float(np.max(ends)) + _GRID_PAD_NM
    n = int(np.ceil((hi - lo) / SIGNAL_GRID_STEP_NM - _SIGNAL_COUNT_TOL))
    return lo + SIGNAL_GRID_STEP_NM * np.arange(n + 1)


def _band_window(grid, pump, centers, half_nm):
    """(start, W): each row's first column and the rows' common band width.

    Row i's window holds the signal-grid columns whose SFG wavelength at
    pump[i] lies within half_nm of its VBG setpoint, 1/l_s = 1/l_sfg - 1/l_p,
    widened by one column on each side so a window narrower than a grid step
    still gives the row its nearest columns.  W is the widest window, and
    each start is clipped so its W columns fit the grid.
    """
    lo = 1.0 / (1.0 / (centers - half_nm) - 1.0 / pump)
    hi = 1.0 / (1.0 / (centers + half_nm) - 1.0 / pump)
    first = np.maximum(np.searchsorted(grid, lo, side="left") - 1, 0)
    stop = np.minimum(np.searchsorted(grid, hi, side="right") + 1, grid.size)
    width = int(np.max(stop - first))
    return np.minimum(first, grid.size - width), width


def build_kernel(wg, chain, vbg, conv_model, plan):
    """Banded response kernel for a calibrated waveguide, filter chain, and plan.

    chain holds the fixed FilterElements (edge, band-pass, broadband loss);
    the VBG is passed separately because its center follows the tracking
    schedule, which also carries the tuning map: a build solves it once.
    The signal grid is default_signal_grid of that map: its mapped range
    plus 1.5 nm tails, in SIGNAL_GRID_STEP_NM (0.04 nm) steps.
    Each row is evaluated only on its window around the VBG setpoint
    (outside it the VBG line is below 1e-19 of its peak), a chunk of rows at
    a time (_row_chunks), once the whole band's wavelengths
    (dispersion._check_band) and reference throughput have passed their
    checks; the chunks are not checked again.  On those cells
    dispersion._band_mismatch gives dk and the SFG wavelength, with the
    signal term evaluated once per grid column and the pump term once per
    row; the SFG wavelength feeds the VBG and the filter chain.  A filter
    that is one constant over a chunk's SFG wavelengths (a broadband loss,
    or an edge saturated there: components.flat_transmission) is applied as
    that scalar.  Entries at or
    below BAND_REL_TOL x their row's peak are set to zero.  The tolerance is
    per row, not global: in fixed-VBG mode rows far from the VBG center have
    small peaks, and a per-row cut keeps their shape.
    Normalization: peak response with tracked VBG equals eta(P)/h-nu
    counts/s per W, so the chain contributes lineshape only -- its absolute
    throughput is already inside the pinned eta.
    """
    pump = plan.pump_grid_nm()
    schedule = vbg_tracking_schedule(plan, wg, vbg)
    mapped, centers = schedule.signal_nm, schedule.centers_nm
    grid = default_signal_grid(mapped)
    eta = conv_model.efficiency(plan.pump_power_mw)

    start, width = _band_window(grid, pump, centers, vbg_half_extent_nm(vbg))
    dispersion._check_band(grid, start, width, pump, wg)

    # Reference throughput: tracked VBG at each row's phase-matched SFG.
    sfg_pm = dispersion.sfg_wavelength(mapped, pump)
    t_ref = np.full(pump.shape, vbg.peak_reflectance)
    for el in chain:
        t_ref = t_ref * transmission(el, sfg_pm)
    if np.any(t_ref <= 0):
        raise DomainError(
            "filter chain blocks the phase-matched upconverted wavelength; "
            "reference throughput is zero"
        )

    per_photon = photon_energy_j(grid)  # J per photon at each signal bin
    values = np.empty((pump.size, width))
    for rows in _row_chunks(pump.size, width):
        cols = start[rows, None] + np.arange(width)
        dk, sfg = dispersion._band_mismatch(grid, cols, pump[rows], wg)
        qpm = dispersion.efficiency_factor(dk, wg.length_mm)
        t_actual = vbg_transmission(vbg, sfg, center_nm=centers[rows, None])
        lo_nm, hi_nm = sfg.min(), sfg.max()
        for el in chain:
            flat = flat_transmission(el, lo_nm, hi_nm)
            t_actual = t_actual * (transmission(el, sfg) if flat is None else flat)
        chunk = values[rows]
        np.divide(eta * qpm * (t_actual / t_ref[rows, None]), per_photon[cols], out=chunk)
        chunk[chunk <= BAND_REL_TOL * chunk.max(axis=1, keepdims=True)] = 0.0
    return ResponseKernel(plan=plan, band_start=start, band_values=values,
                          mapped_signal_nm=mapped, vbg_centers_nm=centers)


@dataclass(frozen=True)
class ScanResult:
    """One executed scan of a plan: expectations and the Poisson-sampled counts.

    sampled says whether sampled_counts holds Poisson draws (see observed).
    expected_rate_cps includes the noise model's rate at the plan's pump
    power; the scan does not keep that rate apart.  io.write_scan_csv writes
    the plan and sampled as headers and one row per scan point.
    """

    plan: ScanPlan
    signal_nm_mapped: np.ndarray
    expected_rate_cps: np.ndarray
    sampled_counts: np.ndarray
    vbg_centers_nm: np.ndarray
    sampled: bool

    def observed(self):
        """(counts, rates [cps]) the scan is read from: a sampled scan's counts,
        even when every count is zero; only an unsampled one's expected rates."""
        if self.sampled:
            counts = np.asarray(self.sampled_counts, dtype=float)
            return counts, counts / self.plan.dwell_s
        rates = np.asarray(self.expected_rate_cps, dtype=float)
        return rates * self.plan.dwell_s, rates


def check_plan_fits(plan, kernel, what="plan"):
    """DomainError unless kernel was built for plan: the same pump grid, pump
    power and VBG tracking mode as kernel.plan, compared exactly; the dwell
    and seed may differ, as they enter nothing the kernel holds.  A kernel
    built from the plan, and a kernel or plan read back from CSV, agree bit
    for bit.  what ("plan" or "scan") names the plan's side in the message."""
    pump, kernel_pump = plan.pump_grid_nm(), kernel.pump_grid_nm
    fix = f"; use the kernel built for this {what}"
    if not np.array_equal(pump, kernel_pump):
        how = (f"is off the kernel's by up to {np.max(np.abs(pump - kernel_pump)):.6g} nm"
               if pump.size == kernel_pump.size
               else f"has {pump.size} points, the kernel's {kernel_pump.size}")
        raise DomainError(f"{what} pump grid {how}{fix}")
    if plan.pump_power_mw != kernel.pump_power_mw:
        raise DomainError(f"{what} pump power {plan.pump_power_mw} mW differs from the "
                          f"kernel's {kernel.pump_power_mw} mW{fix}")
    if plan.vbg_tracking != kernel.vbg_tracking:
        raise DomainError(f"{what} VBG setpoints are off the {kernel.vbg_tracking}-VBG "
                          f"kernel's: the {what} is {plan.vbg_tracking}{fix}")


def expected_rates(spectrum, kernel, noise_model, pump_power_mw):
    """Noise-floor-added expected count rate per scan point (no sampling).

    Each row's rate is its band entries times the input flux per signal
    bin gathered at their columns, summed over the band.
    """
    dens = spectrum.interpolated(kernel.signal_grid_nm)
    flux = dens.values * np.gradient(kernel.signal_grid_nm)
    rates = np.sum(kernel.band_values * flux[kernel.band_columns], axis=1)
    return rates + noise_model.rate(pump_power_mw)


def forward_scan(spectrum, kernel, noise_model, plan, sample=True):
    """Run the forward model: expected rates plus per-point Poisson counts.

    Sampling draws every point's count at once (counting.poisson_counts).
    Point i draws from its own stream, spawned from the plan seed with key
    (i,), so its count depends only on the seed, i and its expected count:
    never on the other points or on the order of evaluation.  The kernel
    must be the plan's (check_plan_fits), and it must reach every column of
    its support (ResponseKernel.support), so no scan is made that
    deconvolve cannot invert; the scan carries the plan.
    """
    check_plan_fits(plan, kernel)
    kernel.support  # raises DomainError or UnrecoverableBandError
    rates = expected_rates(spectrum, kernel, noise_model, plan.pump_power_mw)
    counts = (poisson_counts(rates * plan.dwell_s, plan.seed) if sample
              else np.zeros(rates.size, dtype=np.int64))
    return ScanResult(
        plan=plan,
        signal_nm_mapped=kernel.mapped_signal_nm,
        expected_rate_cps=rates,
        sampled_counts=counts,
        vbg_centers_nm=kernel.vbg_centers_nm,
        sampled=bool(sample),
    )


@dataclass(frozen=True)
class ResolutionReport:
    analytic_fwhm_nm: float
    numeric_fwhm_nm: float
    signal_nm: float
    sfg_nm: float
    vbg_fwhm_nm: float
    note: str = ""


def _fwhm_interp(x, y):
    """FWHM of a single-peaked curve by linear interpolation at half max."""
    i = int(np.argmax(y))
    half = y[i] / 2.0
    left = right = None
    for k in range(i, 0, -1):
        if y[k - 1] < half <= y[k]:
            f = (half - y[k - 1]) / (y[k] - y[k - 1])
            left = x[k - 1] + f * (x[k] - x[k - 1])
            break
    for k in range(i, y.size - 1):
        if y[k + 1] < half <= y[k]:
            f = (y[k] - half) / (y[k] - y[k + 1])
            right = x[k] + f * (x[k + 1] - x[k])
            break
    if left is None or right is None:
        raise DomainError("half-maximum not bracketed; curve is not single-peaked here")
    return float(abs(right - left))


def resolution(kernel, vbg, signal_nm=None):
    """Signal-band resolution, analytic and numeric, at one signal wavelength.

    Analytic: the VBG linewidth mapped from the SFG band back to the signal
    band at fixed pump, fwhm_s = fwhm_vbg * (lambda_s / lambda_sfg)^2.
    Numeric: FWHM of the kernel column nearest signal_nm -- the measured
    response to a monochromatic input as the pump scans -- on the mapped
    signal axis, read from the rows whose band holds that column.  The
    numeric width also feels the QPM acceptance, so it reads slightly below
    the analytic value.
    """
    mapped = kernel.mapped_signal_nm
    if signal_nm is None:
        signal_nm = float(mapped[mapped.size // 2])
    i_row = int(np.argmin(np.abs(mapped - signal_nm)))
    pump_nm = float(kernel.pump_grid_nm[i_row])
    sfg_nm = dispersion.sfg_wavelength(float(mapped[i_row]), pump_nm)
    analytic = vbg.fwhm_nm * (signal_nm / sfg_nm) ** 2

    j = int(np.argmin(np.abs(kernel.signal_grid_nm - signal_nm)))
    k = j - kernel.band_start
    inside = (k >= 0) & (k < kernel.band_values.shape[1])
    column = np.zeros(mapped.size)
    column[inside] = kernel.band_values[inside, k[inside]]
    order = np.argsort(mapped)
    numeric = _fwhm_interp(mapped[order], column[order])
    note = ""
    if kernel.vbg_tracking != "tracked":
        note = ("fixed-VBG kernel: resolution is position-dependent; values "
                "quoted at the scan point nearest the requested wavelength")
    return ResolutionReport(
        analytic_fwhm_nm=float(analytic), numeric_fwhm_nm=float(numeric),
        signal_nm=float(signal_nm), sfg_nm=float(sfg_nm),
        vbg_fwhm_nm=vbg.fwhm_nm, note=note,
    )
