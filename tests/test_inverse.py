"""Background estimation and Richardson-Lucy inversion."""
from dataclasses import replace

import numpy as np
import pytest

from upconvspec import inverse, spectra, spectrometer
from upconvspec.conversion import NoiseModel
from upconvspec.errors import BackgroundError, DomainError, UnrecoverableBandError
from upconvspec.spectrometer import ScanResult

PEDESTAL_CPS = 42.385528808577135  # fitted noise model at 30 mW
DELTA_BIN_NM = 1549.9919857371326  # signal-grid bin nearest 1550.0


@pytest.fixture(scope="module")
def noise(models):
    return models[1]


@pytest.fixture(scope="module")
def delta_scan(small_kernel, small_plan, noise):
    s = spectra.monochromatic_spectrum(small_kernel.signal_grid_nm, 1550.0, 1e-12)
    return s, spectrometer.forward_scan(s, small_kernel, noise, small_plan,
                                        sample=False)


@pytest.fixture(scope="module")
def smooth_scan(small_kernel, small_plan, noise):
    s = spectra.multimode_ld_spectrum(small_kernel.signal_grid_nm, n_modes=1,
                                      total_dbm=-120.0)
    return s, spectrometer.forward_scan(s, small_kernel, noise, small_plan,
                                        sample=False)


def _synthetic_scan(rates, power_mw=30.0):
    rates = np.asarray(rates, dtype=float)
    n = rates.size
    return ScanResult(
        pump_grid_nm=np.linspace(1944.0, 1956.0, n),
        signal_nm_mapped=np.linspace(1546.0, 1554.0, n),
        expected_rate_cps=rates,
        sampled_counts=np.zeros(n, dtype=np.int64),
        dwell_s=1.0,
        vbg_centers_nm=np.full(n, 863.57),
        seed=0,
        pump_power_mw=power_mw,
        noise_rate_cps=42.0,
        sampled=False,
    )


def test_rl_recovers_delta(small_kernel, delta_scan):
    s, scan = delta_scan
    res = inverse.deconvolve(scan, small_kernel, max_iters=300,
                             discrepancy_target=0.0, background_cps=PEDESTAL_CPS)
    grid = small_kernel.signal_grid_nm
    assert grid[np.argmax(res.estimate.values)] == pytest.approx(DELTA_BIN_NM, abs=1e-9)
    assert res.estimate.total_power_w() / s.total_power_w() == pytest.approx(1.0, abs=1e-6)
    assert res.stop_reason == "max_iterations"
    assert np.all(res.estimate.values >= 0.0)


def test_rl_tracks_line_shift(small_kernel, small_plan, noise, delta_scan):
    _, scan_a = delta_scan
    s_b = spectra.monochromatic_spectrum(small_kernel.signal_grid_nm, 1550.5, 1e-12)
    scan_b = spectrometer.forward_scan(s_b, small_kernel, noise, small_plan,
                                       sample=False)
    grid = small_kernel.signal_grid_nm
    peaks = []
    for scan in (scan_a, scan_b):
        res = inverse.deconvolve(scan, small_kernel, max_iters=300,
                                 discrepancy_target=0.0,
                                 background_cps=PEDESTAL_CPS)
        peaks.append(float(grid[np.argmax(res.estimate.values)]))
    assert peaks[1] - peaks[0] == pytest.approx(0.5, abs=1e-12)


def test_rl_noiseless_smooth_roundtrip(small_kernel, smooth_scan):
    s, scan = smooth_scan
    res = inverse.deconvolve(scan, small_kernel, max_iters=300,
                             discrepancy_target=0.0, background_cps=PEDESTAL_CPS)
    rel = (np.linalg.norm(res.estimate.values - s.values)
           / np.linalg.norm(s.values))
    assert rel < 1e-6
    assert res.stop_reason in ("stagnation", "max_iterations")
    assert res.estimate.total_power_w() / s.total_power_w() == pytest.approx(1.0, abs=1e-9)


def test_rl_sampled_scan_stops_on_discrepancy(small_kernel, small_plan, noise,
                                              smooth_scan):
    s, _ = smooth_scan
    scan = spectrometer.forward_scan(s, small_kernel, noise, small_plan)
    res = inverse.deconvolve(scan, small_kernel, noise_model=noise)
    assert res.stop_reason == "discrepancy_reached"
    assert res.iterations_used <= 10
    assert res.residual_norm <= 1.0
    grid = small_kernel.signal_grid_nm
    assert abs(grid[np.argmax(res.estimate.values)] - 1550.0) <= 0.05
    assert res.background_cps == pytest.approx(42.583333333333336, abs=1e-9)


def test_estimate_background_flat_scan(small_kernel, small_plan):
    n60 = NoiseModel(floor_cps=60.0, amplitude_cps=0.0, exponent=1.0)
    grid = small_kernel.signal_grid_nm
    dark = spectra.Spectrum(grid, np.zeros(grid.size))
    scan = spectrometer.forward_scan(dark, small_kernel, n60, small_plan)
    est = inverse.estimate_background(scan)
    assert est == pytest.approx(59.611570247933884, abs=1e-9)
    assert abs(est - 60.0) < 2.2  # within ~3 standard errors of the true floor


def test_estimate_background_fallbacks(noise):
    alternating = _synthetic_scan([100.0, 10000.0] * 30)
    with pytest.raises(BackgroundError, match="sigma clip emptied"):
        inverse.estimate_background(alternating)
    est = inverse.estimate_background(alternating, noise_model=noise)
    assert est == pytest.approx(PEDESTAL_CPS, rel=1e-12)

    ramp = _synthetic_scan(np.linspace(1000.0, 100000.0, 121))
    with pytest.raises(BackgroundError, match="only 1 of 121 points"):
        inverse.estimate_background(ramp)
    assert inverse.estimate_background(ramp, noise_model=noise) == pytest.approx(
        PEDESTAL_CPS, rel=1e-12)

    overdispersed = _synthetic_scan([900.0, 1100.0] * 15)
    with pytest.raises(BackgroundError, match="variance is 10.0x Poisson"):
        inverse.estimate_background(overdispersed)

    with pytest.raises(BackgroundError, match="need at least 5"):
        inverse.estimate_background(_synthetic_scan([10.0, 12.0, 9.0]))


def test_dead_columns_raise_unrecoverable_band(small_kernel, delta_scan):
    _, scan = delta_scan
    grid = small_kernel.signal_grid_nm
    j0 = int(np.searchsorted(grid, 1549.0))
    j1 = int(np.searchsorted(grid, 1549.3))
    cols = small_kernel.band_columns
    blocked = np.where((cols >= j0) & (cols < j1), 0.0, small_kernel.band_values)
    broken = replace(small_kernel, band_values=blocked)
    with pytest.raises(UnrecoverableBandError) as err:
        inverse.deconvolve(scan, broken, background_cps=PEDESTAL_CPS)
    (lo, hi), = err.value.bands_nm
    assert lo == pytest.approx(1549.0119857371326, abs=1e-9)
    assert hi == pytest.approx(1549.2919857371326, abs=1e-9)


def test_deconvolve_rejects_a_kernel_for_another_power_or_vbg_mode(
        cfg, wg3, models, small_plan, small_kernel, noise):
    # a 30 mW kernel on a 20 mW scan recovered 74 % of the power, silently
    conv, _ = models
    s = spectra.monochromatic_spectrum(small_kernel.signal_grid_nm, 1550.0, 1e-12)
    plan20 = replace(small_plan, pump_power_mw=20.0)
    kernel20 = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, plan20)
    scan20 = spectrometer.forward_scan(s, kernel20, noise, plan20, sample=False)
    with pytest.raises(DomainError, match="pump power 20.0 mW differs"):
        inverse.deconvolve(scan20, small_kernel, background_cps=PEDESTAL_CPS)
    assert inverse.deconvolve(scan20, kernel20, background_cps=PEDESTAL_CPS,
                              max_iters=5).iterations_used >= 1

    fixed = replace(small_plan, vbg_tracking="fixed")
    kernel_fixed = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, fixed)
    scan_tracked = spectrometer.forward_scan(s, small_kernel, noise, small_plan,
                                             sample=False)
    with pytest.raises(DomainError, match="VBG setpoints are off the fixed-VBG kernel's"):
        inverse.deconvolve(scan_tracked, kernel_fixed, background_cps=PEDESTAL_CPS)


def test_support_restricts_estimate(small_kernel, delta_scan):
    _, scan = delta_scan
    res = inverse.deconvolve(scan, small_kernel, support_nm=(1549.5, 1550.5),
                             max_iters=50, discrepancy_target=0.0,
                             background_cps=PEDESTAL_CPS)
    grid = small_kernel.signal_grid_nm
    outside = (grid < 1549.5) | (grid > 1550.5)
    assert np.all(res.estimate.values[outside] == 0.0)
    assert grid[np.argmax(res.estimate.values)] == pytest.approx(DELTA_BIN_NM, abs=1e-9)


def test_zero_signal_scan_yields_zero_estimate(small_kernel, small_plan, noise):
    grid = small_kernel.signal_grid_nm
    dark = spectra.Spectrum(grid, np.zeros(grid.size))
    scan = spectrometer.forward_scan(dark, small_kernel, noise, small_plan,
                                     sample=False)
    res = inverse.deconvolve(scan, small_kernel, noise_model=noise)
    assert res.iterations_used == 0
    assert res.stop_reason == "discrepancy_reached"
    assert np.all(res.estimate.values == 0.0)
    assert res.background_cps == pytest.approx(PEDESTAL_CPS, rel=1e-12)


def test_sampled_all_zero_scan_yields_zero_estimate(small_kernel, small_plan):
    # A weak line with no pedestal draws zero counts everywhere; the expected
    # rates are not zero, but a sampled scan must never be read from them.
    quiet = NoiseModel(floor_cps=0.0, amplitude_cps=0.0, exponent=1.0)
    s = spectra.monochromatic_spectrum(small_kernel.signal_grid_nm, 1550.0, 1e-19)
    scan = spectrometer.forward_scan(s, small_kernel, quiet, small_plan)
    assert scan.sampled
    assert np.all(scan.sampled_counts == 0)
    assert np.sum(scan.expected_rate_cps) > 0.0
    assert inverse.estimate_background(scan) == 0.0
    res = inverse.deconvolve(scan, small_kernel, noise_model=quiet)
    assert res.iterations_used == 0
    assert np.all(res.estimate.values == 0.0)


def test_shifted_kernel_grid_is_rejected(cfg, wg3, models, small_plan, delta_scan):
    _, scan = delta_scan
    shifted = replace(small_plan, pump_start_nm=small_plan.pump_start_nm + 1.0,
                      pump_stop_nm=small_plan.pump_stop_nm + 1.0)
    kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, models[0], shifted)
    assert kern.pump_grid_nm.size == scan.pump_grid_nm.size
    with pytest.raises(DomainError, match="pump grid is off the kernel's by up to 1 nm"):
        inverse.deconvolve(scan, kern, background_cps=PEDESTAL_CPS)


@pytest.mark.parametrize("name", ["background_cps", "discrepancy_target"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_deconvolve_checks_its_scalars_first(kernel, delta_scan, name, value):
    _, scan = delta_scan
    # `kernel` is not this scan's: the scalar check comes before that one
    with pytest.raises(DomainError, match=f"{name} must be finite and nonnegative"):
        inverse.deconvolve(scan, kernel, **{name: value})


def test_deconvolve_validation(kernel, small_kernel, delta_scan):
    _, scan = delta_scan
    with pytest.raises(DomainError):
        inverse.deconvolve(scan, small_kernel, max_iters=0,
                           background_cps=PEDESTAL_CPS)
    with pytest.raises(DomainError):
        inverse.deconvolve(scan, small_kernel, support_nm=(1552.0, 1550.0),
                           background_cps=PEDESTAL_CPS)
    with pytest.raises(DomainError):
        inverse.deconvolve(scan, small_kernel, background_cps=-5.0)
    with pytest.raises(DomainError):
        inverse.deconvolve(scan, kernel, background_cps=PEDESTAL_CPS)
    negative = _synthetic_scan(np.full(121, 100.0))
    negative = replace(negative, sampled=True,
                       sampled_counts=np.array([5] + [-1] * 120, dtype=np.int64))
    with pytest.raises(DomainError, match="negative counts"):
        inverse.deconvolve(negative, small_kernel, background_cps=0.0)
