"""Acceptance suite: the quantitative claims this model has to reproduce.

Each test prints one [PASS]/[FAIL] line with the measured numbers so the
whole checklist is visible in any pytest run, then asserts its claims, and
that the line is the one tests/golden.json holds.
"""
from dataclasses import replace

import golden
import numpy as np
import pytest

from upconvspec import counting, dispersion, inverse, spectra, spectrometer
from upconvspec.components import transmission, vbg_transmission
from upconvspec.conversion import NoiseModel, fit_conversion, fit_noise
from upconvspec.fom import OperatingPoint, nep
from upconvspec.units import dbm_to_watts

RES_NM = 0.16107823800131574  # analytic FWHM at 1550 nm, pinned in test_spectrometer
BULK_SPAN_NM = 33.3  # single-anchor signal span over the 1920-1980 nm scan (bulk slope)
QUOTED_USABLE_SPAN_NM = 3.09  # published fixed-VBG usable bandwidth a06 compares to


def _verdict(capsys, num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {num:02d} {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, f"{label}: {detail}"
    # the same numbers as printed when tests/golden.json was made
    assert line == golden.load()["acceptance"][f"a{num:02d}"], \
        "the line moved from tests/golden.json; tests/golden.py regenerates it"


def test_a01_calibration_exactness(cfg, capsys):
    conv, _ = fit_conversion(cfg.conversion_points)
    noise, _ = fit_noise(cfg.noise_points, cfg.noise_floor_cps)
    errs = (abs(conv.efficiency(58.0) - 0.286), abs(conv.efficiency(20.0) - 0.15),
            abs(noise.rate(58.0) - 100.0), abs(noise.rate(20.0) - 25.0))
    ok = all(e < 1e-6 for e in errs)
    _verdict(capsys, 1, "calibration exactness",
             ok, f"eta(58)={conv.efficiency(58.0):.8f} eta(20)={conv.efficiency(20.0):.8f} "
                 f"D(58)={noise.rate(58.0):.6f} D(20)={noise.rate(20.0):.6f}")


def test_a02_nep_at_operating_point(capsys):
    point = OperatingPoint(signal_nm=1550.0, efficiency=0.20, background_cps=60.0)
    base = nep(point, convention="background_sqrt_d")
    alt = nep(point, convention="background_sqrt_2d")
    ratio = alt.nep_w_per_sqrt_hz / base.nep_w_per_sqrt_hz
    ok = (abs(base.nep_dbm - (-142.0)) <= 1.5
          and abs(base.nep_dbm - (-143.0)) <= 0.1
          and ratio == pytest.approx(np.sqrt(2.0), rel=1e-14))
    _verdict(capsys, 2, "NEP at 20% / 60 cps",
             ok, f"nep={base.nep_dbm:.4f} dBm (hand value -143.0), "
                 f"sqrt2-convention ratio={ratio:.15f}")


def test_a03_resolution(cfg, kernel, capsys):
    rep = spectrometer.resolution(kernel, cfg.vbg, signal_nm=1550.0)
    ok = (abs(rep.analytic_fwhm_nm - 0.16) < 0.01
          and abs(rep.numeric_fwhm_nm - 0.16) < 0.01
          and abs(rep.numeric_fwhm_nm / rep.analytic_fwhm_nm - 1.0) < 0.10)
    _verdict(capsys, 3, "spectral resolution",
             ok, f"analytic={rep.analytic_fwhm_nm:.4f} nm "
                 f"numeric={rep.numeric_fwhm_nm:.4f} nm (claim 0.16 nm)")


def test_a04_tuning_map(cfg, wg3, wg1, capsys):
    anchors_p = np.array([a[0] for a in cfg.anchors])
    anchors_s = np.array([a[1] for a in cfg.anchors])
    err3 = dispersion.phase_matched_signal(anchors_p, wg3) - anchors_s
    grid = cfg.scan.pump_grid_nm()
    monotone = bool(np.all(np.diff(dispersion.phase_matched_signal(grid, wg3)) < 0))
    ok3 = bool(np.all(np.abs(err3) <= 0.1)) and monotone

    # One anchor fits a constant index offset: exact at that anchor, but the
    # tuning slope stays at its bulk value, whichever anchor is used.
    sig1 = dispersion.phase_matched_signal(grid, wg1)
    anchor_p, anchor_s = cfg.anchors[1]
    anchor_err1 = float(dispersion.phase_matched_signal(anchor_p, wg1) - anchor_s)
    monotone1 = bool(np.all(np.diff(sig1) < 0))
    span1 = float(sig1[0] - sig1[-1])
    other_spans = []
    for anchor in (cfg.anchors[0], cfg.anchors[2]):
        other = dispersion.phase_matched_signal(
            grid[[0, -1]], dispersion.calibrate_operating_point(cfg.waveguide, [anchor]))
        other_spans.append(float(other[0] - other[1]))
    err1 = sig1[[0, -1]] - anchors_s[[0, -1]]
    ok1 = (abs(anchor_err1) <= 1e-6 and monotone1
           and abs(span1 - BULK_SPAN_NM) <= 0.05
           and all(abs(s - span1) <= 0.05 for s in other_spans))
    _verdict(capsys, 4, "pump tuning map",
             ok3 and ok1,
             f"3-anchor errs {np.round(err3, 6)} nm monotone={monotone}; "
             f"single-anchor: anchor err {anchor_err1:.1e} nm monotone={monotone1} "
             f"span={span1:.3f} nm (bulk {BULK_SPAN_NM} nm, 3-anchor "
             f"{anchors_s[0] - anchors_s[-1]:.1f} nm), other anchors "
             f"{np.round(other_spans, 3)} nm, endpoint errs {np.round(err1, 3)} nm")


def test_a05_photon_budget(capsys):
    rate = counting.photon_rate(-98.9, 1550.0)
    rel = abs(rate / 1.005e6 - 1.0)
    ok = rel <= 0.005
    _verdict(capsys, 5, "photon budget",
             ok, f"-98.9 dBm at 1550 nm -> {rate:.1f} photons/s "
                 f"({100 * rel:.3f}% from 1.005e6)")


def test_a06_fixed_vbg_usable_span(cfg, wg3, wg1, models, capsys):
    # each map's fixed- and tracked-VBG kernels of the default plan
    (f1, t1), (f3, t3) = [
        [spectrometer.build_kernel(wg, cfg.filters, cfg.vbg, models[0],
                                   replace(cfg.scan, vbg_tracking=mode))
         for mode in ("fixed", "tracked")] for wg in (wg1, wg3)]
    span1 = spectrometer.fixed_vbg_usable_span(f1, t1)
    span3 = spectrometer.fixed_vbg_usable_span(f3, t3)
    # tracking is required where the SFG drifts by more than the VBG FWHM
    required1, required3 = (bool(np.ptp(t.vbg_centers_nm) > cfg.vbg.fwhm_nm)
                            for t in (t1, t3))
    quoted = QUOTED_USABLE_SPAN_NM
    ok = quoted / 2.0 <= span1 <= quoted * 2.0 and required3 and required1
    _verdict(capsys, 6, "fixed-VBG usable span",
             ok, f"span={span1:.3f} nm (single-anchor map; quoted "
                 f"{quoted} nm, factor {span1 / quoted:.2f}); "
                 f"3-anchor map span={span3:.2f} nm; "
                 f"tracking_required={required3}")


def test_a07_deconvolution_roundtrip(cfg, kernel, models, capsys):
    _, noise = models
    bg = float(noise.rate(cfg.scan.pump_power_mw))
    grid = kernel.signal_grid_nm
    s5 = spectra.multimode_ld_spectrum(grid)
    scan5 = spectrometer.forward_scan(s5, kernel, noise, cfg.scan, sample=False)
    r5 = inverse.deconvolve(scan5, kernel, max_iters=500, discrepancy_target=0.0,
                            background_cps=bg)
    rel = float(np.linalg.norm(r5.estimate.values - s5.values)
                / np.linalg.norm(s5.values))

    sd = spectra.monochromatic_spectrum(grid, 1550.0, dbm_to_watts(-98.9))
    scand = spectrometer.forward_scan(sd, kernel, noise, cfg.scan, sample=False)
    rd = inverse.deconvolve(scand, kernel, max_iters=500, discrepancy_target=0.0,
                            background_cps=bg)
    flux = rd.estimate.values * np.gradient(grid)
    conc = float(flux[np.abs(grid - 1550.0) <= RES_NM].sum() / flux.sum())
    ok = rel < 0.01 and conc >= 0.90
    _verdict(capsys, 7, "deconvolution round trip",
             ok, f"5-mode rel L2={rel:.2e} (<1%); delta flux within "
                 f"+/-1 resolution element: {100 * conc:.1f}% (>=90%)")


def test_a08_minimum_detectable_power(cfg, kernel, capsys):
    n60 = NoiseModel(floor_cps=60.0, amplitude_cps=0.0, exponent=1.0)
    grid = kernel.signal_grid_nm
    line = spectra.monochromatic_spectrum(grid, 1550.0, dbm_to_watts(-135.0))
    scan = spectrometer.forward_scan(line, kernel, n60, cfg.scan)
    order = np.argsort(scan.signal_nm_mapped)
    axis = scan.signal_nm_mapped[order]
    dwell = cfg.scan.dwell_s
    rep = counting.detectability(axis, scan.sampled_counts[order] / dwell,
                                 dwell, 1550.0, RES_NM, background_cps=60.0)
    dark = spectra.Spectrum(grid, np.zeros(grid.size))
    scan0 = spectrometer.forward_scan(dark, kernel, n60, cfg.scan)
    rep0 = counting.detectability(axis, scan0.sampled_counts[order] / dwell,
                                  dwell, 1550.0, RES_NM, background_cps=60.0)
    ok = rep.detected and rep.z_score >= 5.0 and not rep0.detected
    _verdict(capsys, 8, "minimum detectable power",
             ok, f"-135 dBm line: z={rep.z_score:.2f} at "
                 f"{rep.position_error_nm * 1e3:.0f} pm from truth; "
                 f"dark control z={rep0.z_score:.2f} (not detected)")


def test_a09_statistical_soundness(models, small_kernel, small_plan, tmp_path,
                                   capsys):
    from upconvspec import io as uio

    n = 100_000
    stats = []
    for mu in (100.0, 7.5):
        draws = counting.poisson_counts(np.full(n, mu), 12345)
        mean = float(np.mean(draws))
        fano = float(np.var(draws)) / mean
        mean_ok = abs(mean - mu) <= 3.0 * np.sqrt(mu / n)
        fano_ok = abs(fano - 1.0) <= 3.0 * np.sqrt(2.0 / n)
        stats.append((mu, mean, fano, mean_ok and fano_ok))

    _, noise = models
    s = spectra.multimode_ld_spectrum(small_kernel.signal_grid_nm, n_modes=1,
                                      total_dbm=-120.0)
    scan_a = spectrometer.forward_scan(s, small_kernel, noise, small_plan)
    scan_b = spectrometer.forward_scan(s, small_kernel, noise, small_plan)
    uio.write_scan_csv(tmp_path / "a.csv", scan_a)
    uio.write_scan_csv(tmp_path / "b.csv", scan_b)
    bytes_ok = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    reversed_counts = np.zeros(scan_a.sampled_counts.size, dtype=np.int64)
    for i in reversed(range(reversed_counts.size)):
        rng = counting.rng_from_path(small_plan.seed, (i,))
        reversed_counts[i] = counting.sample_poisson(
            scan_a.expected_rate_cps[i] * small_plan.dwell_s, rng)[0]
    order_ok = bool(np.array_equal(reversed_counts, scan_a.sampled_counts))

    ok = all(s[3] for s in stats) and bytes_ok and order_ok
    _verdict(capsys, 9, "statistical soundness",
             ok, f"mean/Fano at mu=100: {stats[0][1]:.3f}/{stats[0][2]:.4f}, "
                 f"mu=7.5: {stats[1][1]:.4f}/{stats[1][2]:.4f}; "
                 f"identical-seed CSVs byte-identical={bytes_ok}; "
                 f"order-independent={order_ok}")


def test_a10_physics_invariants(cfg, models, small_kernel, capsys):
    rng = np.random.default_rng(20240910)
    s = rng.uniform(1450.0, 1650.0, 500)
    p = rng.uniform(1900.0, 2000.0, 500)
    sfg = dispersion.sfg_wavelength(s, p)
    energy_resid = float(np.max(np.abs(1.0 / sfg - 1.0 / s - 1.0 / p)))

    length_um = cfg.waveguide.length_mm * 1000.0
    nulls = [dispersion.efficiency_factor(2.0 * np.pi * m / length_um,
                                          cfg.waveguide.length_mm)
             for m in (1, 2, 3, 5)]
    nulls_ok = all(v < 1e-30 for v in nulls)

    _, noise = models
    grid = small_kernel.signal_grid_nm
    base = noise.rate(small_kernel.pump_power_mw)
    s1 = spectra.Spectrum(grid, rng.uniform(0.0, 1e-12, grid.size))
    s2 = spectra.Spectrum(grid, rng.uniform(0.0, 1e-12, grid.size))
    mix = spectra.Spectrum(grid, 0.3 * s1.values + 2.1 * s2.values)
    r1 = spectrometer.expected_rates(s1, small_kernel, noise,
                                     small_kernel.pump_power_mw) - base
    r2 = spectrometer.expected_rates(s2, small_kernel, noise,
                                     small_kernel.pump_power_mw) - base
    rmix = spectrometer.expected_rates(mix, small_kernel, noise,
                                       small_kernel.pump_power_mw) - base
    lin_resid = float(np.max(np.abs(rmix - (0.3 * r1 + 2.1 * r2)))
                      / np.max(np.abs(rmix)))

    lam = rng.uniform(300.0, 2500.0, 4000)
    bounded = True
    for el in cfg.filters:
        t = transmission(el, lam)
        bounded &= bool(np.all((t >= 0.0) & (t <= 1.0)))
    t_vbg = vbg_transmission(cfg.vbg, lam, center_nm=863.571)
    bounded &= bool(np.all((t_vbg >= 0.0) & (t_vbg <= 1.0)))

    ok = energy_resid <= 1e-12 and nulls_ok and lin_resid <= 1e-10 and bounded
    _verdict(capsys, 10, "physics invariants",
             ok, f"energy residual={energy_resid:.2e}/nm; worst sinc2 "
                 f"null={max(nulls):.1e}; kernel linearity residual="
                 f"{lin_resid:.2e}; transmissions bounded={bounded}")
