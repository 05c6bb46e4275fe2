"""Kernel construction, VBG tracking schedules, forward scans, resolution."""
from dataclasses import replace

import numpy as np
import pytest

from upconvspec import dispersion, spectra, spectrometer
from upconvspec.components import VbgState
from upconvspec.errors import CoverageError, DomainError, TuningError
from upconvspec.spectrometer import ScanPlan
from upconvspec.units import photon_energy_j


def test_scan_plan_grid_and_validation():
    plan = ScanPlan()
    grid = plan.pump_grid_nm()
    assert grid.size == 1201
    assert grid[0] == 1920.0 and grid[-1] == 1980.0
    with pytest.raises(DomainError):
        ScanPlan(pump_start_nm=1980.0, pump_stop_nm=1920.0)
    with pytest.raises(DomainError):
        ScanPlan(pump_step_nm=0.0)
    with pytest.raises(DomainError):
        ScanPlan(vbg_tracking="sometimes")
    for seed in (-1, 1.7, True):
        with pytest.raises(DomainError):
            ScanPlan(seed=seed)


def test_tracking_schedule_tracked(cfg, wg3):
    sched = spectrometer.vbg_tracking_schedule(cfg.scan, wg3, cfg.vbg)
    assert sched.mode == "tracked"
    assert sched.tracking_required  # drift is ~9x the VBG linewidth
    assert sched.sfg_drift_nm == pytest.approx(0.43139403230463813, abs=1e-9)
    assert sched.fixed_center_nm == pytest.approx(863.5714285714264, abs=1e-9)
    span, center = spectrometer.fixed_vbg_usable_span(cfg.scan, wg3, cfg.vbg)
    assert span == pytest.approx(18.280619242535522, abs=1e-6)
    assert center == sched.fixed_center_nm
    pump = cfg.scan.pump_grid_nm()
    sig = dispersion.phase_matched_signal(pump, wg3)
    assert np.array_equal(sched.signal_nm, sig)
    assert np.allclose(sched.centers_nm, dispersion.sfg_wavelength(sig, pump), atol=1e-12)


def test_tracking_schedule_single_anchor_drifts_more(cfg, wg1, wg3):
    s1 = spectrometer.vbg_tracking_schedule(cfg.scan, wg1, cfg.vbg)
    s3 = spectrometer.vbg_tracking_schedule(cfg.scan, wg3, cfg.vbg)
    assert s1.sfg_drift_nm == pytest.approx(1.4447909579038196, abs=1e-9)
    assert s1.sfg_drift_nm > s3.sfg_drift_nm
    span1, _ = spectrometer.fixed_vbg_usable_span(cfg.scan, wg1, cfg.vbg)
    assert span1 == pytest.approx(4.378835983633053, abs=1e-6)
    assert s1.tracking_required


def test_kernel_build_solves_the_tuning_map_once(cfg, wg3, models, monkeypatch):
    # one solve over the scan grid plus the scalar fixed-VBG setpoint; the
    # usable-span study is a separate report, never part of a build
    sizes = []
    solve = dispersion.phase_matched_signal

    def counted(pump_nm, *args, **kwargs):
        sizes.append(np.size(pump_nm))
        return solve(pump_nm, *args, **kwargs)

    def span_study(*args, **kwargs):
        raise AssertionError("build_kernel ran fixed_vbg_usable_span")

    monkeypatch.setattr(dispersion, "phase_matched_signal", counted)
    monkeypatch.setattr(spectrometer, "fixed_vbg_usable_span", span_study)
    conv, _ = models
    spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, cfg.scan)
    assert sizes == [1201, 1]


def test_tracking_schedule_fixed_mode(cfg, wg3):
    plan = replace(cfg.scan, vbg_tracking="fixed")
    sched = spectrometer.vbg_tracking_schedule(plan, wg3, cfg.vbg)
    assert sched.mode == "fixed"
    assert np.ptp(sched.centers_nm) == 0.0
    assert sched.centers_nm[0] == pytest.approx(sched.fixed_center_nm, abs=1e-12)


def test_tracking_beyond_tuning_range_raises(cfg, wg3, small_plan):
    narrow = VbgState(fwhm_nm=0.05, peak_reflectance=0.95,
                      tuning_range_nm=(863.5, 863.6))
    with pytest.raises(TuningError):
        spectrometer.vbg_tracking_schedule(small_plan, wg3, narrow)


def test_kernel_shape_and_axes(kernel):
    assert kernel.matrix.shape == (1201, 2052)
    assert kernel.matrix.shape == (kernel.pump_grid_nm.size, kernel.signal_grid_nm.size)
    assert np.all(np.diff(kernel.signal_grid_nm) > 0)
    assert np.all(kernel.matrix >= 0.0)
    assert kernel.vbg_tracking == "tracked"
    assert kernel.efficiency == pytest.approx(0.20221549041225295, rel=1e-12)


def test_kernel_peak_value_is_eta_over_photon_energy(cfg, wg3, models):
    # on a grid holding the mapped wavelengths themselves the peak is exact
    conv, _ = models
    kern = spectrometer.build_kernel(
        wg3, cfg.filters, cfg.vbg, conv, cfg.scan,
        signal_grid_nm=np.sort(dispersion.phase_matched_signal(
            cfg.scan.pump_grid_nm(), wg3)))
    for i in range(0, kern.pump_grid_nm.size, 97):
        lam = kern.mapped_signal_nm[i]
        j = int(np.searchsorted(kern.signal_grid_nm, lam))
        value = kern.matrix[i, j] * photon_energy_j(lam)
        assert value == pytest.approx(kern.efficiency, rel=1e-12)


def test_kernel_rows_peak_at_mapped_wavelength(kernel):
    for i in range(0, kernel.pump_grid_nm.size, 53):
        j = int(np.argmax(kernel.matrix[i]))
        assert abs(kernel.signal_grid_nm[j] - kernel.mapped_signal_nm[i]) <= 0.03
        peak = kernel.matrix[i, j] * photon_energy_j(kernel.signal_grid_nm[j])
        assert 0.8 * kernel.efficiency < peak <= kernel.efficiency * (1 + 1e-9)


def test_kernel_coverage_error(cfg, wg3, models, small_plan):
    conv, _ = models
    with pytest.raises(CoverageError):
        spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, small_plan,
                                  signal_grid_nm=np.arange(1548.0, 1552.0, 0.05))


def test_fixed_vbg_kernel_attenuates_scan_edges(cfg, wg3, models):
    conv, _ = models
    plan = replace(cfg.scan, vbg_tracking="fixed")
    kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, plan)
    mid = kern.matrix[kern.pump_grid_nm.size // 2].max()
    assert kern.matrix[0].max() / mid < 0.1
    assert kern.matrix[-1].max() / mid < 0.1
    note = spectrometer.resolution(kern, cfg.vbg).note
    assert "fixed" in note


def test_expected_rates_are_linear(cfg, models, small_kernel):
    _, noise = models
    grid = small_kernel.signal_grid_nm
    rng = np.random.default_rng(20240904)
    s1 = spectra.Spectrum(grid, rng.uniform(0.0, 1e-12, grid.size))
    s2 = spectra.Spectrum(grid, rng.uniform(0.0, 1e-12, grid.size))
    a, b = 0.7, 1.9
    mix = spectra.Spectrum(grid, a * s1.values + b * s2.values)
    base = noise.rate(small_kernel.pump_power_mw)
    r1 = spectrometer.expected_rates(s1, small_kernel, noise, small_kernel.pump_power_mw) - base
    r2 = spectrometer.expected_rates(s2, small_kernel, noise, small_kernel.pump_power_mw) - base
    rmix = spectrometer.expected_rates(mix, small_kernel, noise, small_kernel.pump_power_mw) - base
    assert np.allclose(rmix, a * r1 + b * r2, rtol=1e-12, atol=1e-12 * rmix.max())


def test_forward_scan_is_deterministic(cfg, models, small_plan, small_kernel):
    _, noise = models
    s = spectra.multimode_ld_spectrum(small_kernel.signal_grid_nm, n_modes=1,
                                      total_dbm=-120.0)
    one = spectrometer.forward_scan(s, small_kernel, noise, small_plan)
    two = spectrometer.forward_scan(s, small_kernel, noise, small_plan)
    assert np.array_equal(one.sampled_counts, two.sampled_counts)
    assert one.noise_rate_cps == pytest.approx(42.385528808577135, rel=1e-12)
    quiet = spectrometer.forward_scan(s, small_kernel, noise, small_plan, sample=False)
    assert np.all(quiet.sampled_counts == 0)
    assert np.array_equal(quiet.expected_rate_cps, one.expected_rate_cps)


def test_forward_scan_rejects_mismatches(cfg, models, small_plan, small_kernel):
    _, noise = models
    grid = small_kernel.signal_grid_nm
    wrong_unit = spectra.Spectrum(grid, np.zeros(grid.size), unit="counts_per_s")
    with pytest.raises(DomainError):
        spectrometer.forward_scan(wrong_unit, small_kernel, noise, small_plan)
    s = spectra.multimode_ld_spectrum(grid, n_modes=1, total_dbm=-120.0)
    with pytest.raises(DomainError):
        spectrometer.forward_scan(s, small_kernel, noise,
                                  replace(small_plan, pump_power_mw=40.0))


def test_resolution_values(cfg, kernel):
    rep = spectrometer.resolution(kernel, cfg.vbg, signal_nm=1550.0)
    assert rep.analytic_fwhm_nm == pytest.approx(0.16107823800131574, abs=1e-6)
    assert rep.numeric_fwhm_nm == pytest.approx(0.15688028074828253, abs=1e-4)
    assert rep.analytic_fwhm_nm == pytest.approx(
        cfg.vbg.fwhm_nm * (1550.0 / rep.sfg_nm) ** 2, rel=1e-9)
    assert rep.note == ""
