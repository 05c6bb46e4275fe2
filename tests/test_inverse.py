"""Background estimation and Richardson-Lucy inversion."""
from dataclasses import replace

import numpy as np
import pytest

from upconvspec import inverse, spectra, spectrometer
from upconvspec.conversion import NoiseModel
from upconvspec.errors import BackgroundError, DomainError, UnrecoverableBandError
from upconvspec.spectrometer import ScanPlan, ScanResult

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
    plan = ScanPlan(pump_start_nm=1944.0, pump_stop_nm=1956.0,
                    pump_step_nm=12.0 / (n - 1), pump_power_mw=power_mw, seed=0)
    assert plan.pump_grid_nm().size == n
    return ScanResult(
        plan=plan,
        signal_nm_mapped=np.linspace(1546.0, 1554.0, n),
        expected_rate_cps=rates,
        sampled_counts=np.zeros(n, dtype=np.int64),
        vbg_centers_nm=np.full(n, 863.57),
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
    # lines 0.5 nm apart land in grid bins 0.52 nm apart; each estimate peaks
    # in its own line's bin
    s_a, scan_a = delta_scan
    s_b = spectra.monochromatic_spectrum(small_kernel.signal_grid_nm, 1550.5, 1e-12)
    scan_b = spectrometer.forward_scan(s_b, small_kernel, noise, small_plan,
                                       sample=False)
    grid = small_kernel.signal_grid_nm
    for source, scan in ((s_a, scan_a), (s_b, scan_b)):
        res = inverse.deconvolve(scan, small_kernel, max_iters=300,
                                 discrepancy_target=0.0,
                                 background_cps=PEDESTAL_CPS)
        peak_nm = float(grid[np.argmax(res.estimate.values)])
        assert peak_nm == pytest.approx(float(grid[np.argmax(source.values)]), abs=1e-12)


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


def _line_scan(cfg, kernel, noise, dwell_s):
    """-100 dBm line at 1550.3 nm on the default kernel, sampled with seed 11."""
    line = spectra.monochromatic_spectrum(kernel.signal_grid_nm, 1550.3, 1e-13)
    return line, spectrometer.forward_scan(line, kernel, noise,
                                           replace(cfg.scan, dwell_s=dwell_s, seed=11))


@pytest.mark.parametrize("dwell_s", [1.0, 10.0, 100.0])
def test_rl_line_reaches_its_discrepancy(cfg, kernel, noise, dwell_s):
    line, scan = _line_scan(cfg, kernel, noise, dwell_s)
    res = inverse.deconvolve(scan, kernel, noise_model=noise)
    assert res.stop_reason == "discrepancy_reached"
    assert res.iterations_used < 500
    assert res.residual_norm <= 1.0
    assert res.estimate.total_power_w() / line.total_power_w() == pytest.approx(1.0, abs=0.01)


def test_rl_long_run_leaves_no_subnormals(cfg, kernel, noise):
    _, scan = _line_scan(cfg, kernel, noise, 10.0)
    res = inverse.deconvolve(scan, kernel, noise_model=noise, max_iters=2000,
                             discrepancy_target=0.0)
    est = res.estimate.values
    assert np.count_nonzero((est != 0.0) & (np.abs(est) < np.finfo(float).tiny)) == 0
    assert np.count_nonzero(est) > 0


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
    cols = small_kernel.band_columns
    dead = np.zeros(cols.shape, dtype=bool)
    for lo_nm, hi_nm in ((1549.0, 1549.3), (1551.0, 1551.1)):
        dead |= (cols >= np.searchsorted(grid, lo_nm)) & (cols < np.searchsorted(grid, hi_nm))
    broken = replace(small_kernel, band_values=np.where(dead, 0.0, small_kernel.band_values))
    with pytest.raises(UnrecoverableBandError) as err:
        inverse.deconvolve(scan, broken, background_cps=PEDESTAL_CPS)
    (lo, hi), (lo2, hi2) = err.value.bands_nm
    assert lo == pytest.approx(1549.0319857371326, abs=1e-9)
    assert hi == pytest.approx(1549.2719857371326, abs=1e-9)
    assert lo2 == pytest.approx(1551.0319857371326, abs=1e-9)
    assert hi2 == pytest.approx(1551.0719857371325, abs=1e-9)


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


def test_deconvolve_rejects_a_scan_with_another_mapped_signal(small_kernel, delta_scan):
    # the mapped signal is compared bit for bit, as the VBG setpoints are
    _, scan = delta_scan
    mapped = scan.signal_nm_mapped.copy()
    mapped[40] += 1e-3
    with pytest.raises(DomainError, match="scan mapped signal wavelengths are off the "
                                          "tracked-VBG kernel's by up to 0.001 nm"):
        inverse.deconvolve(replace(scan, signal_nm_mapped=mapped), small_kernel,
                           background_cps=PEDESTAL_CPS)


@pytest.mark.parametrize("field,what", [("vbg_centers_nm", "VBG setpoints"),
                                        ("signal_nm_mapped", "mapped signal wavelengths")])
def test_deconvolve_rejects_a_scan_array_of_another_length(small_kernel, delta_scan, field,
                                                           what):
    # a short array used to fail on broadcasting, with a bare ValueError
    _, scan = delta_scan
    n = small_kernel.pump_grid_nm.size
    short = replace(scan, **{field: getattr(scan, field)[:-1]})
    with pytest.raises(DomainError, match=f"scan has {n - 1} {what}, the kernel {n}"):
        inverse.deconvolve(short, small_kernel, background_cps=PEDESTAL_CPS)


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
    assert kern.pump_grid_nm.size == scan.plan.pump_grid_nm().size
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
        inverse.deconvolve(scan, small_kernel, background_cps=-5.0)
    with pytest.raises(DomainError):
        inverse.deconvolve(scan, kernel, background_cps=PEDESTAL_CPS)
    negative = _synthetic_scan(np.full(121, 100.0))
    negative = replace(negative, sampled=True,
                       sampled_counts=np.array([5] + [-1] * 120, dtype=np.int64))
    with pytest.raises(DomainError, match="negative counts"):
        inverse.deconvolve(negative, small_kernel, background_cps=0.0)


@pytest.mark.parametrize("kwargs,match", [
    ({"discrepancy_target": None}, "discrepancy_target must be finite and nonnegative"),
    ({"max_iters": 2.5}, "max_iters must be an integer of at least 1, got 2.5"),
    ({"max_iters": True}, "max_iters must be an integer of at least 1, got True"),
], ids=["discrepancy-none", "max-iters-float", "max-iters-bool"])
def test_deconvolve_rejects_an_argument_of_the_wrong_kind(small_kernel, delta_scan, kwargs,
                                                          match):
    _, scan = delta_scan
    with pytest.raises(DomainError, match=match):
        inverse.deconvolve(scan, small_kernel, background_cps=PEDESTAL_CPS, **kwargs)


def test_deconvolve_takes_a_numpy_integer_iteration_cap(small_kernel, delta_scan):
    _, scan = delta_scan
    res = inverse.deconvolve(scan, small_kernel, max_iters=np.int64(3),
                             discrepancy_target=0.0, background_cps=PEDESTAL_CPS)
    assert res.iterations_used == 3
