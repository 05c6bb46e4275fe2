"""Kernel construction, VBG tracking schedules, forward scans, resolution."""
import hashlib
import math
import tracemalloc
from dataclasses import replace

import golden
import numpy as np
import pytest
import tuning_oracle
from dense_kernel import dense_kernel, thresholded
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from upconvspec import components, dispersion, inverse, spectra, spectrometer
from upconvspec import io as uio
from upconvspec.components import VbgState
from upconvspec.conversion import NoiseModel
from upconvspec.errors import DomainError, TuningError, UnrecoverableBandError
from upconvspec.spectrometer import ResponseKernel, ScanPlan
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
    for field in ("pump_start_nm", "pump_stop_nm", "pump_step_nm", "dwell_s",
                  "pump_power_mw"):
        for value in (np.nan, np.inf):
            with pytest.raises(DomainError, match=f"scan {field} must be finite"):
                ScanPlan(**{field: value})
    with pytest.raises(DomainError):
        ScanPlan(vbg_tracking="sometimes")
    for seed in (-1, 1.7, True):
        with pytest.raises(DomainError):
            ScanPlan(seed=seed)


def _rounded_grid(plan):
    """The pump grid with a rounded step count, which may pass the stop."""
    n = int(round((plan.pump_stop_nm - plan.pump_start_nm) / plan.pump_step_nm))
    return plan.pump_start_nm + plan.pump_step_nm * np.arange(n + 1)


@pytest.mark.parametrize("step, last", [(0.7, 1979.5), (0.9, 1979.4), (7.0, 1976.0)])
def test_pump_grid_stops_at_or_before_the_stop(step, last):
    grid = ScanPlan(pump_step_nm=step).pump_grid_nm()
    assert grid[-1] <= 1980.0 and grid[-1] + step > 1980.0
    assert grid[-1] == pytest.approx(last, abs=1e-9)
    assert np.all(np.diff(grid) > 0)


@pytest.mark.parametrize("step", [0.05, 0.02, 0.1, 0.07])
def test_pump_grid_keeps_every_point_of_a_fitting_step(step):
    plan = ScanPlan(pump_step_nm=step)
    assert np.array_equal(plan.pump_grid_nm(), _rounded_grid(plan))


@settings(max_examples=200, deadline=None)
@given(start=st.floats(1900.0, 1990.0), width=st.sampled_from([6.0, 12.0, 30.0, 44.5, 60.0]),
       step=st.sampled_from([0.02, 0.05, 0.1]))
def test_pump_grid_ends_on_a_stop_the_step_divides(start, width, step):
    # stop - start differs from width by float noise; the grid still ends on
    # the stop, point for point as the rounded count gives
    plan = ScanPlan(pump_start_nm=start, pump_stop_nm=start + width, pump_step_nm=step)
    grid = plan.pump_grid_nm()
    assert grid.size == round(width / step) + 1
    assert np.array_equal(grid, _rounded_grid(plan))


def _fixed_and_tracked(cfg, wg, models, plan=None):
    """One plan's kernels with the VBG parked and tracked, in that order."""
    plan = plan or cfg.scan
    return tuple(spectrometer.build_kernel(wg, cfg.filters, cfg.vbg, models[0],
                                           replace(plan, vbg_tracking=mode))
                 for mode in ("fixed", "tracked"))


def test_tracking_schedule_tracked(cfg, wg3, models):
    # the drift, the parked setpoint and the span are kernel values
    sched = spectrometer.vbg_tracking_schedule(cfg.scan, wg3, cfg.vbg)
    fixed, tracked = _fixed_and_tracked(cfg, wg3, models)
    assert tracked.vbg_tracking == "tracked"
    assert np.array_equal(tracked.vbg_centers_nm, sched.centers_nm)
    drift = np.ptp(tracked.vbg_centers_nm)
    assert drift > cfg.vbg.fwhm_nm  # drift is ~9x the VBG linewidth
    assert drift == pytest.approx(0.43139403230463813, abs=1e-9)
    assert fixed.vbg_centers_nm[0] == pytest.approx(863.5714285714264, abs=1e-9)
    span = spectrometer.fixed_vbg_usable_span(fixed, tracked)
    assert span == pytest.approx(18.3599999999999, abs=1e-6)
    pump = cfg.scan.pump_grid_nm()
    sig = dispersion.phase_matched_signal(pump, wg3)
    assert np.array_equal(sched.signal_nm, sig)
    assert np.allclose(sched.centers_nm, dispersion.sfg_wavelength(sig, pump), atol=1e-12)


def test_tracking_schedule_single_anchor_drifts_more(cfg, wg1, wg3, models):
    fixed1, tracked1 = _fixed_and_tracked(cfg, wg1, models)
    _, tracked3 = _fixed_and_tracked(cfg, wg3, models)
    drift1 = np.ptp(tracked1.vbg_centers_nm)
    assert drift1 == pytest.approx(1.4447909579038196, abs=1e-9)
    assert drift1 > np.ptp(tracked3.vbg_centers_nm)
    span1 = spectrometer.fixed_vbg_usable_span(fixed1, tracked1)
    assert span1 == pytest.approx(4.400000000000091, abs=1e-6)
    assert drift1 > cfg.vbg.fwhm_nm


def test_usable_span_reads_the_kernels_only(cfg, wg3, models, monkeypatch):
    fixed, tracked = _fixed_and_tracked(cfg, wg3, models)
    calls = []
    solve = dispersion.phase_matched_signal

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dispersion, "phase_matched_signal", counted)
    span = spectrometer.fixed_vbg_usable_span(fixed, tracked)
    assert calls == [] and span > 0.0
    # the run of columns where the fixed peak holds at least half the
    # tracked one, walked out from the scan-centre row's mapped signal
    grid = fixed.signal_grid_nm
    ok = fixed.column_peak >= 0.5 * tracked.column_peak
    centre_row = fixed.pump_grid_nm.size // 2
    lo = hi = int(np.argmin(np.abs(grid - fixed.mapped_signal_nm[centre_row])))
    while ok[lo - 1]:
        lo -= 1
    while ok[hi + 1]:
        hi += 1
    assert span == grid[hi] - grid[lo]


def test_usable_span_needs_one_plans_fixed_and_tracked_kernels(cfg, wg3, models, small_plan):
    fixed, tracked = _fixed_and_tracked(cfg, wg3, models)
    small_fixed, _ = _fixed_and_tracked(cfg, wg3, models, small_plan)
    for pair in ((tracked, fixed), (fixed, fixed), (small_fixed, tracked)):
        with pytest.raises(DomainError, match="one plan's fixed- and tracked-VBG kernels"):
            spectrometer.fixed_vbg_usable_span(*pair)


def test_kernel_build_solves_the_tuning_map_once(cfg, wg3, models, monkeypatch):
    # one solve over the 1201 scan points with the scan-centre pump of the
    # fixed-VBG setpoint appended; the usable-span study is a separate report,
    # never part of a build
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
    assert sizes == [1202]


def test_kernel_build_evaluates_only_the_band(cfg, wg3, models, monkeypatch):
    # beyond the schedule's tuning-map solve, dk is evaluated on the band's
    # 1201 x W cells, never on the dense 1201 x 1027 grid
    cells = []
    mismatch = dispersion.qpm_mismatch

    def counted(signal_nm, pump_nm, wg):
        dk = mismatch(signal_nm, pump_nm, wg)
        cells.append(np.size(dk))
        return dk

    band_cells = []
    band = dispersion._band_mismatch

    def band_counted(signal_nm, cols, pump_nm, wg):
        dk, sfg = band(signal_nm, cols, pump_nm, wg)
        band_cells.append(np.size(dk))
        return dk, sfg

    monkeypatch.setattr(dispersion, "qpm_mismatch", counted)
    monkeypatch.setattr(dispersion, "_band_mismatch", band_counted)
    spectrometer.vbg_tracking_schedule(cfg.scan, wg3, cfg.vbg)
    schedule_cells = sum(cells)
    cells.clear()
    kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, models[0], cfg.scan)
    width = kern.band_values.shape[1]
    assert width <= 71
    assert sum(cells) == schedule_cells
    # a chunk of rows at a time, each within the cell budget, the band once over
    assert sum(band_cells) == 1201 * width
    assert max(band_cells) <= spectrometer.BAND_CHUNK_CELLS


def _operator_bits(kernel):
    op = kernel.rl_operator
    return [a.tobytes() for a in (op.support, op.blocks, op.columns, op.norm)]


@pytest.mark.parametrize("cells", [1000, 5000, 10**9])
@pytest.mark.parametrize("case", ["default", "fixed", "top_hat_vbg"])
def test_row_chunks_move_no_value(cfg, wg3, models, kernel, monkeypatch, cells, case):
    # a band built, and scattered into its RL operator, in chunks of another
    # size, or all in one, has the bits of the default chunking
    plan = replace(cfg.scan, vbg_tracking="fixed") if case == "fixed" else cfg.scan
    vbg = replace(cfg.vbg, lineshape="top_hat") if case == "top_hat_vbg" else cfg.vbg
    ref = (kernel if case == "default"
           else spectrometer.build_kernel(wg3, cfg.filters, vbg, models[0], plan))
    monkeypatch.setattr(spectrometer, "BAND_CHUNK_CELLS", cells)
    got = spectrometer.build_kernel(wg3, cfg.filters, vbg, models[0], plan)
    for name in ("band_start", "band_values", "mapped_signal_nm", "vbg_centers_nm"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    if case != "fixed":  # the default fixed plan leaves support columns unreached
        assert _operator_bits(got) == _operator_bits(ref)


def test_golden_chunk_plans_straddle_a_chunk_boundary(cfg, wg3, models):
    # tests/golden.json pins kernels whose row counts sit one below, on and
    # one above a multiple of the rows a chunk holds; they must still do so
    counts = []
    for d in (-1, 0, 1):
        plan = replace(cfg.scan, **golden.KERNEL_PLANS[f"{2 * golden.CHUNK_ROWS + d}-rows"])
        kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, models[0], plan)
        rows, width = kern.band_values.shape
        counts.append(rows - 2 * (spectrometer.BAND_CHUNK_CELLS // width))
    assert counts == [-1, 0, 1]


def test_a_band_is_checked_whole_before_any_chunk_is_evaluated(cfg, wg3, models,
                                                                monkeypatch):
    # the wavelength checks and the reference throughput's come first, so a
    # chunked build raises what the one-chunk build raised
    def evaluated(*args):
        raise AssertionError("a chunk was evaluated before the whole band was checked")

    monkeypatch.setattr(dispersion, "_band_mismatch", evaluated)
    blocked = [replace(f, peak=0.0) if f.kind == "broadband_loss" else f for f in cfg.filters]
    with pytest.raises(DomainError, match="reference throughput is zero"):
        spectrometer.build_kernel(wg3, blocked, cfg.vbg, models[0], cfg.scan)

    def window_fails(*args):
        raise DomainError("window")

    monkeypatch.setattr(dispersion, "_check_band", window_fails)
    with pytest.raises(DomainError, match="window"):
        spectrometer.build_kernel(wg3, blocked, cfg.vbg, models[0], cfg.scan)


@pytest.mark.parametrize("plan, bounds_mb", [
    ({}, (3.0, 2.5)), ({"pump_step_nm": 0.02}, (4.0, 5.0))], ids=["1201-rows", "3001-rows"])
def test_band_steps_stay_within_their_memory_budget(cfg, wg3, models, plan, bounds_mb):
    # traced peaks: a build held about nine whole-band temporaries (5.75 and
    # 14.3 MB) and rl_operator 4.0 and 8.9 MB, for 0.63 and 1.58 MB bands
    def peak_mb(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    plan = replace(cfg.scan, **plan)
    kern, build_mb = peak_mb(
        lambda: spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, models[0], plan))
    _, operator_mb = peak_mb(lambda: kern.rl_operator)
    assert build_mb <= bounds_mb[0] and operator_mb <= bounds_mb[1], (build_mb, operator_mb)


def _cellwise_build(wg, chain, vbg, conv_model, plan):
    """build_kernel's band as it was evaluated cell by cell: qpm_mismatch and
    sfg_wavelength on every gathered (pump, signal) cell."""
    pump = plan.pump_grid_nm()
    schedule = spectrometer.vbg_tracking_schedule(plan, wg, vbg)
    mapped = schedule.signal_nm
    grid = spectrometer.default_signal_grid(mapped)
    eta = conv_model.efficiency(plan.pump_power_mw)

    start, width = spectrometer._band_window(grid, pump, schedule.centers_nm,
                                             components.vbg_half_extent_nm(vbg))
    cols = start[:, None] + np.arange(width)
    lam_s = grid[cols]
    lam_p = pump[:, None]
    qpm = dispersion.efficiency_factor(dispersion.qpm_mismatch(lam_s, lam_p, wg),
                                       wg.length_mm)
    sfg = dispersion.sfg_wavelength(lam_s, lam_p)

    t_actual = components.vbg_transmission(vbg, sfg, center_nm=schedule.centers_nm[:, None])
    for el in chain:
        t_actual = t_actual * components.transmission(el, sfg)
    sfg_pm = dispersion.sfg_wavelength(mapped, pump)
    t_ref = np.full(pump.shape, vbg.peak_reflectance)
    for el in chain:
        t_ref = t_ref * components.transmission(el, sfg_pm)

    values = eta * qpm * (t_actual / t_ref[:, None]) / photon_energy_j(grid)[cols]
    values[values <= spectrometer.BAND_REL_TOL * values.max(axis=1, keepdims=True)] = 0.0
    return start, values


@pytest.mark.parametrize("case", ["tracked", "fixed", "step_0.07", "small_plan", "fine_3001_fixed",
                                  "top_hat_vbg"])
def test_band_build_gives_the_bits_of_the_cellwise_build(cfg, wg3, models, small_plan, case):
    vbg = replace(cfg.vbg, lineshape="top_hat") if case == "top_hat_vbg" else cfg.vbg
    plan = {
        "fixed": replace(cfg.scan, vbg_tracking="fixed"),
        "step_0.07": replace(cfg.scan, pump_step_nm=0.07),
        "small_plan": small_plan,
        "fine_3001_fixed": replace(cfg.scan, pump_step_nm=0.02, vbg_tracking="fixed"),
    }.get(case, cfg.scan)
    conv, _ = models
    kern = spectrometer.build_kernel(wg3, cfg.filters, vbg, conv, plan)
    start, values = _cellwise_build(wg3, cfg.filters, vbg, conv, plan)
    assert np.array_equal(kern.band_start, start)
    assert np.array_equal(kern.band_values.view(np.int64), values.view(np.int64))


TUNING_ORACLE_CASES = ("tracked", "fixed", "small_plan", "fine_3001", "fixed_off_grid_center",
                       "top_hat_vbg")


@pytest.mark.parametrize("case", TUNING_ORACLE_CASES)
def test_schedule_and_band_match_the_tuning_oracle(cfg, wg3, models, small_plan, monkeypatch,
                                                   case):
    # the one-pass solve gives the bits of 80 full bisection steps and a
    # separate scalar solve for the scan-centre pump
    vbg = replace(cfg.vbg, lineshape="top_hat") if case == "top_hat_vbg" else cfg.vbg
    plan = {
        "tracked": cfg.scan,
        "fixed": replace(cfg.scan, vbg_tracking="fixed"),
        "small_plan": small_plan,
        "fine_3001": replace(cfg.scan, pump_step_nm=0.02),
        "fixed_off_grid_center": replace(cfg.scan, pump_start_nm=1931.37,
                                         pump_stop_nm=1945.08, pump_step_nm=0.02,
                                         vbg_tracking="fixed"),
        "top_hat_vbg": cfg.scan,
    }[case]
    got = spectrometer.vbg_tracking_schedule(plan, wg3, vbg)
    want = tuning_oracle.vbg_tracking_schedule(plan, wg3, vbg)
    assert got.signal_nm.size == plan.pump_grid_nm().size
    for name in ("signal_nm", "centers_nm"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name

    conv, _ = models
    kern = spectrometer.build_kernel(wg3, cfg.filters, vbg, conv, plan)
    monkeypatch.setattr(spectrometer, "vbg_tracking_schedule",
                        tuning_oracle.vbg_tracking_schedule)
    ref = spectrometer.build_kernel(wg3, cfg.filters, vbg, conv, plan)
    for name in ("band_start", "band_values", "mapped_signal_nm", "vbg_centers_nm",
                 "signal_grid_nm"):
        assert np.array_equal(getattr(kern, name), getattr(ref, name)), name


def test_package_never_reads_the_dense_view(cfg, wg3, models, small_plan, tmp_path,
                                            monkeypatch):
    def refuse(self):
        raise AssertionError("package code read ResponseKernel.matrix")

    monkeypatch.setattr(ResponseKernel, "matrix", property(refuse))
    conv, noise = models
    kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, small_plan)
    s = spectra.multimode_ld_spectrum(kern.signal_grid_nm, n_modes=1, total_dbm=-110.0)
    spectrometer.expected_rates(s, kern, noise, small_plan.pump_power_mw)
    scan = spectrometer.forward_scan(s, kern, noise, small_plan)
    spectrometer.resolution(kern, cfg.vbg)
    uio.write_kernel_csv(tmp_path / "k.csv", kern)
    back, _ = uio.read_kernel_csv(tmp_path / "k.csv")
    res = inverse.deconvolve(scan, back, noise_model=noise)
    assert res.iterations_used >= 1
    with pytest.raises(AssertionError, match="ResponseKernel.matrix"):
        kern.matrix


ORACLE_CASES = ("tracked", "fixed", "small_plan", "fixed_off_grid_center", "top_hat_vbg",
                "clipped_grid")


@pytest.fixture(scope="module", params=ORACLE_CASES)
def band_and_oracle(request, cfg, wg3, models, small_plan):
    conv, _ = models
    vbg = cfg.vbg
    plan = {
        "tracked": cfg.scan,
        "fixed": replace(cfg.scan, vbg_tracking="fixed"),
        "small_plan": small_plan,
        # the scan-centre pump 1938.225 nm falls between grid points
        "fixed_off_grid_center": replace(cfg.scan, pump_start_nm=1931.37,
                                         pump_stop_nm=1945.08, pump_step_nm=0.02,
                                         vbg_tracking="fixed"),
        "top_hat_vbg": cfg.scan,
        "clipped_grid": small_plan,
    }[request.param]
    if request.param == "top_hat_vbg":
        vbg = replace(cfg.vbg, lineshape="top_hat")
    with pytest.MonkeyPatch.context() as mp:
        if request.param == "clipped_grid":
            # a grid ending at the mapped range: the edge rows' windows run off it
            mp.setattr(spectrometer, "default_signal_grid", np.sort)
        kern = spectrometer.build_kernel(wg3, cfg.filters, vbg, conv, plan)
        dense, dense_grid = dense_kernel(wg3, cfg.filters, vbg, conv, plan)
        assert np.array_equal(kern.signal_grid_nm, dense_grid)
    if request.param == "clipped_grid":
        width = kern.band_values.shape[1]
        assert kern.band_start.min() == 0
        assert kern.band_start.max() == dense_grid.size - width
    return request.param, kern, dense


def test_band_matches_the_dense_oracle(band_and_oracle):
    _, kern, dense = band_and_oracle
    oracle, cut = thresholded(dense)
    band = kern.matrix
    # an entry within an ulp of its row's cut may fall on either side
    near_cut = np.abs(dense - cut) <= np.spacing(cut)
    assert np.all((np.abs(band - oracle) <= 1e-12 * oracle) | near_cut)
    row_sum = dense.sum(axis=1)
    assert np.all(row_sum > 0)
    assert np.all(row_sum - band.sum(axis=1) <= 1e-10 * row_sum)


def test_column_peak_is_the_column_max_of_the_dense_oracle(band_and_oracle):
    _, kern, dense = band_and_oracle
    peak = kern.column_peak
    assert np.array_equal(peak, kern.matrix.max(axis=0))
    assert np.allclose(peak, thresholded(dense)[0].max(axis=0), rtol=1e-12, atol=0.0)
    assert not peak.flags.writeable and kern.column_peak is peak


# 1920-1980 nm at 0.1 nm with the VBG parked: no row's band reaches 45 columns
FOUND_PLAN = {"pump_step_nm": 0.1, "vbg_tracking": "fixed"}
FOUND_BANDS_NM = [(1570.0399999999988, 1570.8799999999987)]


def test_reach_check_names_the_unreached_run(cfg, wg3, models):
    plan = replace(cfg.scan, **FOUND_PLAN)
    kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, models[0], plan)
    for check in (lambda: kern.support, lambda: kern.rl_operator):
        with pytest.raises(UnrecoverableBandError) as err:
            check()
        assert err.value.bands_nm == FOUND_BANDS_NM
        assert "[1570.040, 1570.880] nm" in str(err.value)


def test_forward_scan_refuses_a_plan_with_unreached_support(cfg, wg3, models):
    _, noise = models
    plan = replace(cfg.scan, **FOUND_PLAN)
    kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, models[0], plan)
    source = spectra.multimode_ld_spectrum(kern.signal_grid_nm)
    for sample in (True, False):
        with pytest.raises(UnrecoverableBandError) as err:
            spectrometer.forward_scan(source, kern, noise, plan, sample=sample)
        assert err.value.bands_nm == FOUND_BANDS_NM
    assert "rl_operator" not in vars(kern)  # the reach check builds no operator


@pytest.mark.parametrize("plan, total, digest", [
    ({"pump_start_nm": 1944.0, "pump_stop_nm": 1956.0, "pump_step_nm": 0.1,
      "vbg_tracking": "fixed"}, 538415,
     "19471ac3f1424ba915529ae7d36886ff436631d6ccb787180f9190e126a044e8"),
    ({"pump_start_nm": 1931.37, "pump_stop_nm": 1945.08, "pump_step_nm": 0.02,
      "vbg_tracking": "fixed"}, 28961,
     "c538a094fb1158ee3c0cac81c0618fbd4036a2630c6757db2253891f61907800"),
    ({"pump_step_nm": 0.07}, 806703,
     "63c7023d353f431debeb0073396cb1f399a52358ddab78729861e52eef699387"),
], ids=["fixed-window", "fixed-off-grid-centre", "pump-step-0.07"])
def test_reachable_plans_scan_as_before_the_reach_check(cfg, wg3, models, plan, total,
                                                        digest):
    # counts taken before forward_scan checked the support
    _, noise = models
    plan = replace(cfg.scan, **plan)
    kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, models[0], plan)
    source = spectra.multimode_ld_spectrum(kern.signal_grid_nm)
    counts = spectrometer.forward_scan(source, kern, noise, plan).sampled_counts
    assert int(counts.sum()) == total
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("shape", ["top_hat_vbg", "top_hat_band_pass"])
def test_top_hat_kernels_match_a_scipy_erf_build(cfg, wg3, models, monkeypatch, shape):
    # the top-hat edges 0.5 erfc(-u) are where erfc's accuracy shows in a kernel
    conv, _ = models
    vbg, chain = cfg.vbg, cfg.filters
    if shape == "top_hat_vbg":
        vbg = replace(vbg, lineshape="top_hat")
    else:
        chain = [replace(f, lineshape="top_hat") if f.kind == "band_pass" else f
                 for f in chain]
    ours = spectrometer.build_kernel(wg3, chain, vbg, conv, cfg.scan)
    monkeypatch.setattr(components, "erfc", special.erfc)
    ref = spectrometer.build_kernel(wg3, chain, vbg, conv, cfg.scan)
    assert np.array_equal(ours.band_start, ref.band_start)
    # the top-hat VBG build, the sparser of the two, holds 9636 nonzero cells
    assert np.count_nonzero(ref.band_values) >= 9636
    assert np.allclose(ours.band_values, ref.band_values, rtol=1e-12, atol=0.0)


def test_default_builds_send_no_argument_to_libm(cfg, wg3, models, monkeypatch):
    # The default short-pass edge is saturated on every cell and the default
    # lineshapes are gaussian, so erfc takes its shortcut on every argument.
    conv, _ = models
    libm_erfc, sent = math.erfc, []

    def counted(x):
        sent.append(x)
        return libm_erfc(x)

    monkeypatch.setattr(math, "erfc", counted)
    for plan in (cfg.scan, replace(cfg.scan, vbg_tracking="fixed"),
                 replace(cfg.scan, pump_step_nm=0.02)):
        spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, plan)
    assert sent == []
    # a top-hat VBG's edges do reach libm, through the counter
    spectrometer.build_kernel(wg3, cfg.filters, replace(cfg.vbg, lineshape="top_hat"), conv,
                              cfg.scan)
    assert len(sent) > 1000


def test_expected_rates_match_the_dense_oracle(band_and_oracle):
    _, kern, dense = band_and_oracle
    grid = kern.signal_grid_nm
    values = np.random.default_rng(20240918).uniform(0.0, 1e-12, grid.size)
    silent = NoiseModel(floor_cps=0.0, amplitude_cps=0.0, exponent=1.0)
    rates = spectrometer.expected_rates(spectra.Spectrum(grid, values), kern, silent,
                                        kern.pump_power_mw)
    want = thresholded(dense)[0] @ (values * np.gradient(grid))
    assert np.allclose(rates, want, rtol=1e-12, atol=0.0)


def test_dense_view_scatters_the_band(small_kernel):
    m = small_kernel.matrix
    assert m.shape == (small_kernel.pump_grid_nm.size, small_kernel.signal_grid_nm.size)
    rows = np.arange(m.shape[0])[:, None]
    assert np.array_equal(m[rows, small_kernel.band_columns], small_kernel.band_values)
    assert np.count_nonzero(m) == np.count_nonzero(small_kernel.band_values)
    assert small_kernel.matrix is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_tracking_schedule_fixed_mode(cfg, wg3):
    plan = replace(cfg.scan, vbg_tracking="fixed")
    sched = spectrometer.vbg_tracking_schedule(plan, wg3, cfg.vbg)
    assert np.ptp(sched.centers_nm) == 0.0
    # parked at the phase-matched SFG wavelength of the scan-centre pump
    centre = dispersion.sfg_wavelength(dispersion.phase_matched_signal(1950.0, wg3), 1950.0)
    assert sched.centers_nm[0] == pytest.approx(centre, abs=1e-12)


def test_tracking_beyond_tuning_range_raises(cfg, wg3, small_plan):
    narrow = VbgState(fwhm_nm=0.05, peak_reflectance=0.95,
                      tuning_range_nm=(863.5, 863.6))
    with pytest.raises(TuningError):
        spectrometer.vbg_tracking_schedule(small_plan, wg3, narrow)


def test_kernel_shape_and_axes(kernel):
    assert kernel.matrix.shape == (1201, 1026)
    assert kernel.matrix.shape == (kernel.pump_grid_nm.size, kernel.signal_grid_nm.size)
    width = kernel.band_values.shape[1]
    assert kernel.band_values.shape == (1201, width) and width <= 38
    assert kernel.band_start.dtype.kind == "i"
    assert np.all((kernel.band_start >= 0) & (kernel.band_start <= 1026 - width))
    assert np.all(np.diff(kernel.signal_grid_nm) > 0)
    assert np.all(kernel.band_values >= 0.0)
    assert not kernel.matrix.flags.writeable
    assert kernel.vbg_tracking == "tracked"


def test_signal_grid_step_leaves_the_forward_model_converged(cfg, wg3, models, kernel,
                                                            monkeypatch):
    # the 5-mode source's signal rates on the 0.04 nm grid against a 0.005 nm
    # build: 9.0e-12 of the peak rate apart
    conv, _ = models
    silent = NoiseModel(floor_cps=0.0, amplitude_cps=0.0, exponent=1.0)

    def rates(kern):
        source = spectra.multimode_ld_spectrum(kern.signal_grid_nm)
        return spectrometer.expected_rates(source, kern, silent, cfg.scan.pump_power_mw)

    monkeypatch.setattr(spectrometer, "SIGNAL_GRID_STEP_NM", 0.005)
    fine = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, cfg.scan)
    assert (kernel.signal_grid_nm.size, fine.signal_grid_nm.size) == (1026, 8201)
    got, want = rates(kernel), rates(fine)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(want)


def test_signal_grid_size_ignores_root_noise(kernel):
    # the default map's ends sit on calibration anchors 41 nm apart, 1025
    # whole 0.04 nm steps; moving either end by 1e-9 nm, far above the
    # solve's root noise, leaves the grid's 1026 points
    for lo_shift in (-1e-9, 0.0, 1e-9):
        for hi_shift in (-1e-9, 0.0, 1e-9):
            mapped = kernel.mapped_signal_nm + 0.0
            mapped[0] += lo_shift
            mapped[-1] += hi_shift
            assert spectrometer.default_signal_grid(mapped).size == 1026


def test_a_kernel_keeps_the_grid_it_was_built_on(cfg, wg3, models, small_plan, monkeypatch):
    # the grid step read after the build changes neither the kernel's grid
    # nor its rates: the grid is the one its band was evaluated on
    conv, noise = models
    kern, ref = (spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, small_plan)
                 for _ in range(2))
    source = spectra.multimode_ld_spectrum(ref.signal_grid_nm, n_modes=1, total_dbm=-110.0)
    want = spectrometer.expected_rates(source, ref, noise, small_plan.pump_power_mw)
    monkeypatch.setattr(spectrometer, "SIGNAL_GRID_STEP_NM", 0.005)
    assert np.array_equal(kern.signal_grid_nm, ref.signal_grid_nm)  # kern's first read
    assert not kern.signal_grid_nm.flags.writeable
    got = spectrometer.expected_rates(source, kern, noise, small_plan.pump_power_mw)
    assert np.array_equal(got, want) and np.max(got) > 2.0 * noise.rate(small_plan.pump_power_mw)


def test_default_support_has_no_more_columns_than_scan_points(kernel):
    # RL solves for one value per support column from one count per scan
    # point; a grid finer than the mapped signal's spacing would leave more
    # unknowns than data, and those directions of the estimate would come
    # from RL's path, not from the scan (950 columns from 1201 points)
    assert kernel.rl_operator.support.size <= kernel.pump_grid_nm.size


def test_kernel_peak_value_is_eta_over_photon_energy(cfg, wg3, models, monkeypatch):
    # on a grid holding the mapped wavelengths themselves the peak is exact
    conv, _ = models
    eta = conv.efficiency(cfg.scan.pump_power_mw)
    assert eta == pytest.approx(0.20221549041225295, rel=1e-12)
    monkeypatch.setattr(spectrometer, "default_signal_grid", np.sort)
    kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, cfg.scan)
    for i in range(0, kern.pump_grid_nm.size, 97):
        lam = kern.mapped_signal_nm[i]
        j = int(np.searchsorted(kern.signal_grid_nm, lam))
        value = kern.band_values[i, j - kern.band_start[i]] * photon_energy_j(lam)
        assert value == pytest.approx(eta, rel=1e-12)


def test_kernel_rows_peak_at_mapped_wavelength(cfg, models, kernel):
    eta = models[0].efficiency(cfg.scan.pump_power_mw)
    for i in range(0, kernel.pump_grid_nm.size, 53):
        k = int(np.argmax(kernel.band_values[i]))
        j = kernel.band_start[i] + k
        assert abs(kernel.signal_grid_nm[j] - kernel.mapped_signal_nm[i]) <= 0.03
        peak = kernel.band_values[i, k] * photon_energy_j(kernel.signal_grid_nm[j])
        assert 0.8 * eta < peak <= eta * (1 + 1e-9)


def test_fixed_vbg_kernel_attenuates_scan_edges(cfg, wg3, models):
    conv, _ = models
    plan = replace(cfg.scan, vbg_tracking="fixed")
    kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, plan)
    mid = kern.band_values[kern.pump_grid_nm.size // 2].max()
    assert kern.band_values[0].max() / mid < 0.1
    assert kern.band_values[-1].max() / mid < 0.1
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


@pytest.fixture(scope="module")
def fixed_small_kernel(cfg, wg3, models, small_plan):
    plan = replace(small_plan, vbg_tracking="fixed")
    return spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, models[0], plan)


_COEFF = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@settings(max_examples=30, deadline=None)
@given(mode=st.sampled_from(["tracked", "fixed"]), seed=st.integers(0, 2**32 - 1),
       log_scales=st.tuples(st.floats(-16.0, -9.0), st.floats(-16.0, -9.0)),
       zero_frac=st.floats(0.0, 0.9), a=_COEFF, b=_COEFF)
def test_expected_rates_are_linear_on_band_kernels(small_kernel, fixed_small_kernel, mode,
                                                   seed, log_scales, zero_frac, a, b):
    kern = small_kernel if mode == "tracked" else fixed_small_kernel
    grid = kern.signal_grid_nm
    rng = np.random.default_rng(seed)
    v1, v2 = (10.0 ** scale * rng.uniform(0.0, 1.0, grid.size)
              * (rng.uniform(size=grid.size) >= zero_frac) for scale in log_scales)
    silent = NoiseModel(floor_cps=0.0, amplitude_cps=0.0, exponent=1.0)

    def rates(values):
        return spectrometer.expected_rates(spectra.Spectrum(grid, values), kern, silent,
                                           kern.pump_power_mw)

    r1, r2, rmix = rates(v1), rates(v2), rates(a * v1 + b * v2)
    assert np.allclose(rmix, a * r1 + b * r2, rtol=1e-12, atol=0.0)


def test_forward_scan_is_deterministic(cfg, models, small_plan, small_kernel):
    _, noise = models
    s = spectra.multimode_ld_spectrum(small_kernel.signal_grid_nm, n_modes=1,
                                      total_dbm=-120.0)
    one = spectrometer.forward_scan(s, small_kernel, noise, small_plan)
    two = spectrometer.forward_scan(s, small_kernel, noise, small_plan)
    assert np.array_equal(one.sampled_counts, two.sampled_counts)
    assert noise.rate(small_plan.pump_power_mw) == pytest.approx(42.385528808577135, rel=1e-12)
    quiet = spectrometer.forward_scan(s, small_kernel, noise, small_plan, sample=False)
    assert np.all(quiet.sampled_counts == 0)
    assert np.array_equal(quiet.expected_rate_cps, one.expected_rate_cps)


def test_forward_scan_rejects_mismatches(cfg, models, small_plan, small_kernel):
    _, noise = models
    grid = small_kernel.signal_grid_nm
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


@pytest.mark.parametrize("change", [{}, {"vbg_tracking": "fixed"}, {"pump_step_nm": 0.07},
                                    {"pump_power_mw": 20.0, "dwell_s": 10.0}],
                         ids=["tracked", "fixed", "step-0.07", "20mW-10s"])
def test_plan_fits_its_kernel_on_every_path(cfg, wg3, models, small_plan, tmp_path, change):
    # in process, through both CSVs, and rebuilt from the plan a scan CSV
    # carries: one kernel, bit for bit, and no tolerance needed
    conv, noise = models
    plan = replace(small_plan, **change)
    kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, plan)
    source = spectra.multimode_ld_spectrum(kern.signal_grid_nm, n_modes=1, total_dbm=-110.0)
    scan = spectrometer.forward_scan(source, kern, noise, plan)
    assert scan.plan is plan
    uio.write_scan_csv(tmp_path / "scan.csv", scan)
    uio.write_kernel_csv(tmp_path / "kernel.csv", kern)
    read_scan, _ = uio.read_scan_csv(tmp_path / "scan.csv")
    read_kern, _ = uio.read_kernel_csv(tmp_path / "kernel.csv")
    assert read_scan.plan == plan
    rebuilt = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, read_scan.plan)
    for other in (read_kern, rebuilt):
        for field in ("pump_grid_nm", "signal_grid_nm", "band_start", "band_values",
                      "mapped_signal_nm", "vbg_centers_nm", "pump_power_mw",
                      "vbg_tracking"):
            assert np.array_equal(getattr(other, field), getattr(kern, field)), field
    want = inverse.deconvolve(scan, kern, noise_model=noise)
    for s, k in ((scan, read_kern), (read_scan, kern), (read_scan, rebuilt)):
        spectrometer.check_plan_fits(s.plan, k)
        got = inverse.deconvolve(s, k, noise_model=noise)
        assert np.array_equal(got.estimate.values, want.estimate.values)
        assert got.residual_norm == want.residual_norm


@pytest.mark.parametrize("change,message", [
    ({"pump_start_nm": np.nextafter(1944.0, 2000.0)},
     "plan pump grid is off the kernel's by up to 2.27374e-13 nm"),
    ({"pump_stop_nm": 1956.1}, "plan pump grid has 122 points, the kernel's 121"),
    ({"pump_power_mw": np.nextafter(30.0, 0.0)},
     "plan pump power 29.999999999999996 mW differs from the kernel's 30.0 mW"),
    ({"vbg_tracking": "fixed"},
     "plan VBG setpoints are off the tracked-VBG kernel's: the plan is fixed"),
], ids=["start-one-ulp", "one-point-more", "power-one-ulp", "fixed"])
def test_check_plan_fits_is_exact(small_plan, small_kernel, models, change, message):
    spectrometer.check_plan_fits(small_plan, small_kernel)
    plan = replace(small_plan, **change)
    with pytest.raises(DomainError, match=message) as err:
        spectrometer.check_plan_fits(plan, small_kernel)
    assert str(err.value).endswith("; use the kernel built for this plan")
    source = spectra.Spectrum(small_kernel.signal_grid_nm,
                              np.zeros(small_kernel.signal_grid_nm.size))
    with pytest.raises(DomainError, match=message):
        spectrometer.forward_scan(source, small_kernel, models[1], plan)
