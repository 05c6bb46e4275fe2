"""Sellmeier index, QPM mismatch, tuning-curve calibration and bandwidth."""
import re
from dataclasses import replace

import numpy as np
import pytest
import tuning_oracle
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from upconvspec import components, dispersion, spectrometer
from upconvspec.errors import CalibrationError, DomainError, TuningError

# extraordinary-index reference values (Jundt 1997 table gives 2.15580)
N_1064_245 = 2.1557974335465007
N_1550_56 = 2.1391032341726524


def test_refractive_index_reference_points():
    n = dispersion.refractive_index(1064.0, 24.5)
    assert n == pytest.approx(N_1064_245, rel=1e-12)
    assert abs(n - 2.15580) < 5e-6
    assert dispersion.refractive_index(1550.0, 56.0) == pytest.approx(N_1550_56, rel=1e-12)


def test_refractive_index_trends():
    # normal dispersion in the red tail, positive thermo-optic coefficient
    assert dispersion.refractive_index(700.0, 56.0) > dispersion.refractive_index(1550.0, 56.0)
    assert dispersion.refractive_index(1550.0, 70.0) > dispersion.refractive_index(1550.0, 56.0)


def test_refractive_index_validity_window():
    with pytest.raises(DomainError):
        dispersion.refractive_index(300.0, 56.0)
    with pytest.raises(DomainError):
        dispersion.refractive_index(6000.0, 56.0)


def _medium(a=(), b=()):
    """The bundled medium with leading a and b coefficients replaced."""
    m = dispersion.CONGRUENT_LN_E
    return replace(m, a=tuple(a) + m.a[len(a):], b=tuple(b) + m.b[len(b):])


@pytest.mark.parametrize("a,b,message", [
    ((0.0,), (), "n\\^2 <= 0 or not finite between 0.4 and 0.418 um at 0 C"),
    ((-5.35583,), (), "n\\^2 <= 0 or not finite between 0.4 and 0.418 um at 0 C"),
    ((), (4.629e-7, -1e-3), "n\\^2 <= 0 or not finite between"),
    ((5.35583, 0.100473, 0.5), (), "pole of n\\^2 at 0.4984 um"),
    ((5.35583, 0.100473, 0.20692, 100.0, 2.0), (), "pole of n\\^2 at 2 um"),
    ((5.35583, 0.100473, 0.20692, 100.0, 0.4), (), "pole of n\\^2 at 0.4 um"),
], ids=["a1-zero", "a1-negative", "b2-negative", "pole-a3", "pole-a5", "pole-a5-at-edge"])
def test_sellmeier_rejects_a_non_positive_or_singular_n_squared(a, b, message):
    with pytest.raises(DomainError, match=f"Sellmeier a, b .*{message}"):
        _medium(a, b)


def test_sellmeier_accepts_the_bundled_medium_and_a_pole_outside_the_window():
    # the bundled n^2 stays above 4.01 over 0.4-5 um and 0-250 C
    lam = np.linspace(0.4, 5.0, 2001)
    n2 = [dispersion.refractive_index(lam * 1e3, t) ** 2 for t in np.linspace(0.0, 250.0, 11)]
    assert np.min(n2) == pytest.approx(4.0103, abs=1e-4)
    _medium(a=(5.35583, 0.100473, 0.3))  # its pole sits at 0.3 um, below the window


def test_sfg_wavelength_values_and_symmetry():
    assert dispersion.sfg_wavelength(1550.0, 1950.0) == pytest.approx(863.5714285714286, rel=1e-14)
    assert dispersion.sfg_wavelength(1532.9, 1920.0) == pytest.approx(852.3756842074778, rel=1e-14)
    assert dispersion.sfg_wavelength(1570.9, 1980.0) == pytest.approx(875.9418738911262, rel=1e-14)
    assert dispersion.sfg_wavelength(1550.0, 1950.0) == dispersion.sfg_wavelength(1950.0, 1550.0)


def test_three_anchor_calibration_exact(cfg, wg3):
    assert wg3.dispersion_correction == pytest.approx(
        (-0.4304099323106694, 0.5435548321010809, -0.17714060465135786), rel=1e-9)
    for pump_nm, signal_nm in cfg.anchors:
        assert abs(dispersion.qpm_mismatch(signal_nm, pump_nm, wg3)) < 1e-12


def test_tuning_map_monotone_and_anti_correlated(cfg, wg3):
    pump = cfg.scan.pump_grid_nm()
    sig = dispersion.phase_matched_signal(pump, wg3)
    assert np.all(np.diff(sig) < 0)  # longer pump -> shorter matched signal
    assert sig[0] == pytest.approx(1570.8999999999955, abs=1e-9)
    assert sig[-1] == pytest.approx(1532.8999999999896, abs=1e-9)


def test_single_anchor_calibration(wg1):
    assert wg1.dispersion_correction == pytest.approx((-0.013480245228881225,), rel=1e-9)
    assert dispersion.phase_matched_signal(1950.0, wg1) == pytest.approx(1550.0, abs=1e-9)
    # endpoints of the scan under the bulk-dispersion slope
    assert dispersion.phase_matched_signal(1920.0, wg1) == pytest.approx(1567.0382391361918, abs=1e-6)
    assert dispersion.phase_matched_signal(1980.0, wg1) == pytest.approx(1533.7613848257915, abs=1e-6)


def test_phase_matched_signal_vectorized(wg3):
    pumps = np.array([1925.0, 1944.0, 1963.0, 1978.0])
    vec = dispersion.phase_matched_signal(pumps, wg3)
    for p, s in zip(pumps, vec):
        assert dispersion.phase_matched_signal(float(p), wg3) == pytest.approx(float(s), abs=1e-9)
    assert dispersion.phase_matched_signal(np.array([]), wg3).shape == (0,)


def test_phase_matched_pump_inverts_signal(wg3):
    s0 = dispersion.phase_matched_signal(1950.0, wg3)
    assert dispersion.phase_matched_pump(s0, wg3) == pytest.approx(1950.0, abs=1e-6)


def test_phase_match_state_at_anchor(wg3):
    assert dispersion.sfg_wavelength(1550.0, 1950.0) == pytest.approx(
        863.5714285714286, rel=1e-12)
    dk = dispersion.qpm_mismatch(1550.0, 1950.0, wg3)
    assert abs(dk) < 1e-12
    assert dispersion.efficiency_factor(dk, wg3.length_mm) == pytest.approx(1.0, abs=1e-12)


def test_qpm_mismatch_matches_the_oracle_formula(wg1, wg3):
    # qpm_mismatch is its checks plus the bisection's own dk evaluator; the
    # oracle writes dk out term by term through the checked refractive_index
    sig = np.linspace(1450.0, 1650.0, 201)
    pump = np.linspace(1820.0, 2080.0, 53)
    for wg in (wg1, wg3):
        got = dispersion.qpm_mismatch(sig[None, :], pump[:, None], wg)
        want = tuning_oracle.qpm_mismatch(sig[None, :], pump[:, None], wg)
        assert np.array_equal(got, want)
        assert np.array_equal(dispersion.qpm_mismatch(sig[:, None], pump[None, :], wg),
                              tuning_oracle.qpm_mismatch(sig[:, None], pump[None, :], wg))
        got = dispersion.qpm_mismatch(1550.0, 1950.0, wg)
        assert type(got) is float and got == tuning_oracle.qpm_mismatch(1550.0, 1950.0, wg)


@pytest.mark.parametrize("signal_nm, pump_nm", [
    (500.0, 520.0),     # SFG below the Sellmeier window
    (6000.0, 1950.0),   # signal above it
    (1550.0, 6000.0),   # pump above it
    (np.array([1550.0, -1.0]), 1950.0),
])
def test_qpm_mismatch_checks_every_wave(wg3, signal_nm, pump_nm):
    with pytest.raises(DomainError):
        dispersion.qpm_mismatch(signal_nm, pump_nm, wg3)


def _band_cells(plan, wg, vbg):
    """(signal grid, band columns, pump grid) of plan's kernel band."""
    pump = plan.pump_grid_nm()
    schedule = spectrometer.vbg_tracking_schedule(plan, wg, vbg)
    grid = spectrometer.default_signal_grid(schedule.signal_nm)
    start, width = spectrometer._band_window(grid, pump, schedule.centers_nm,
                                             components.vbg_half_extent_nm(vbg))
    return grid, start[:, None] + np.arange(width), pump


def _bent(wg, bend):
    """wg with b (l - 1.55)^2 added to its correction polynomial."""
    c0, c1, c2 = wg.dispersion_correction
    return replace(wg, dispersion_correction=(
        c0 + bend * 1.55**2, c1 - 2 * bend * 1.55, c2 + bend))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=30, deadline=None)
@given(mode=st.sampled_from(["tracked", "fixed"]), width=st.floats(6.0, 60.0),
       step=st.floats(0.02, 0.1), where=st.floats(0.0, 1.0), bend=st.floats(-0.5, 0.5))
@example(mode="tracked", width=60.0, step=0.05, where=0.0, bend=0.0)
@example(mode="fixed", width=60.0, step=0.02, where=0.0, bend=0.0)
def test_band_mismatch_is_qpm_mismatch_on_the_gathered_cells(cfg, wg3, mode, width, step,
                                                              where, bend):
    # the band's per-column signal term and per-row pump term give the bits
    # of qpm_mismatch and sfg_wavelength evaluated cell by cell
    wg = _bent(wg3, bend)
    start = 1920.0 + where * (60.0 - width)
    plan = replace(cfg.scan, pump_start_nm=start, pump_stop_nm=start + width,
                   pump_step_nm=step, vbg_tracking=mode)
    try:
        grid, cols, pump = _band_cells(plan, wg, cfg.vbg)
    except TuningError:
        assume(False)  # a second root, or a VBG setpoint out of its range
    dk, sfg = dispersion._band_mismatch(grid, cols, pump, wg)
    lam_s, lam_p = grid[cols], pump[:, None]
    assert np.array_equal(_bits(dk), _bits(dispersion.qpm_mismatch(lam_s, lam_p, wg)))
    assert np.array_equal(_bits(sfg), _bits(dispersion.sfg_wavelength(lam_s, lam_p)))


def _domain_error(call):
    try:
        call()
    except DomainError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("case", ["sfg below", "pump above", "signal above", "pump not positive",
                                  "nan signal", "nan and high signal"])
def test_band_mismatch_raises_as_qpm_mismatch(cfg, wg3, small_plan, case):
    grid, cols, pump = _band_cells(small_plan, wg3, cfg.vbg)
    grid, pump = grid.copy(), pump.copy()
    valid_um = {"sfg below": (0.8636, 5.0), "pump above": (0.4, 1.95)}.get(case, (0.4, 5.0))
    wg = replace(wg3, medium=replace(wg3.medium, valid_um=valid_um))
    if case in ("signal above", "nan and high signal"):
        grid[cols.max()] = 5200.0  # SFG 1.42 um and pump stay inside
    if case in ("nan signal", "nan and high signal"):
        grid[cols[7, 2]] = np.nan  # NaN passes the checks, but hides no other wavelength
    if case == "pump not positive":
        pump[3] = -1.0
    # a band's errors are its whole-band check's, made from each row's end
    # cells before any chunk is evaluated; _band_mismatch checks nothing
    want = _domain_error(lambda: dispersion.qpm_mismatch(grid[cols], pump[:, None], wg))
    assert _domain_error(lambda: dispersion._check_band(grid, cols[:, 0], cols.shape[1],
                                                        pump, wg)) == want
    assert (want is None) == (case == "nan signal")
    if want is None:
        dk, _ = dispersion._band_mismatch(grid, cols, pump, wg)
        assert np.array_equal(np.isnan(dk), np.isnan(grid[cols]))


def test_phase_matched_solves_match_the_oracle_solve(wg3):
    signal = np.linspace(1530.0, 1575.0, 91)
    assert np.array_equal(dispersion.phase_matched_pump(signal, wg3),
                          tuning_oracle.phase_matched_pump(signal, wg3))
    pump = np.linspace(1900.0, 2000.0, 77)
    assert np.array_equal(dispersion.phase_matched_signal(pump, wg3),
                          tuning_oracle.phase_matched_signal(pump, wg3))
    assert (dispersion.phase_matched_signal(1950.0, wg3)
            == tuning_oracle.phase_matched_signal(1950.0, wg3))


def test_tuning_solve_takes_at_most_six_evaluations(cfg, wg3, monkeypatch):
    # dk is linear to about 1e-3 nm across a 1 nm coarse bracket: after its
    # two ends, three false-position steps reach the float-noise floor
    calls = []
    solve = dispersion._bracketed_roots

    def counted(f, lo, hi):
        def g(x):
            calls.append(np.size(x))
            return f(x)
        return solve(g, lo, hi)

    monkeypatch.setattr(dispersion, "_bracketed_roots", counted)
    dispersion.phase_matched_signal(cfg.scan.pump_grid_nm(), wg3)
    assert len(calls) <= 6 and set(calls) == {1201}


def _assert_near_the_bisection(pump, wg):
    got = dispersion.phase_matched_signal(pump, wg)
    assert np.max(np.abs(got - tuning_oracle.bisected_signal(pump, wg))) <= 1e-9
    assert np.max(np.abs(dispersion.qpm_mismatch(got, pump, wg))) <= 1e-12


@pytest.mark.parametrize("step", [0.05, 0.02])
def test_tuning_roots_sit_on_the_80_step_bisection(cfg, wg3, step):
    # the default plan's 1201 pumps and the 3001 of a 0.02 nm step
    _assert_near_the_bisection(replace(cfg.scan, pump_step_nm=step).pump_grid_nm(), wg3)


@settings(max_examples=30, deadline=None)
@given(width=st.floats(6.0, 60.0), step=st.floats(0.02, 0.1), where=st.floats(0.0, 1.0),
       bend=st.floats(-0.5, 0.5))
def test_drawn_plans_roots_sit_on_the_80_step_bisection(cfg, wg3, width, step, where, bend):
    start = 1920.0 + where * (60.0 - width)
    plan = replace(cfg.scan, pump_start_nm=start, pump_stop_nm=start + width,
                   pump_step_nm=step)
    wg = _bent(wg3, bend)
    try:
        dispersion.phase_matched_signal(plan.pump_grid_nm(), wg)
    except TuningError:
        assume(False)  # a second root in the window
    _assert_near_the_bisection(plan.pump_grid_nm(), wg)


# slopes of the size dk has near a root (about 1 rad/um per nm), or none
_SLOPES = st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01))
_BRACKETS = st.tuples(st.floats(1400.0, 1700.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0),
                      st.sampled_from(["linear", "curved"]), _SLOPES, st.floats(0.5, 40.0))


def _synthetic(brackets):
    """(lo, hi, root, f): per element (lo, width, frac, kind, slope, k), a
    root at lo + width * frac, and f linear, slope (x - root), or curved,
    sign(slope) (u(x) - u(root)) with u = 1 / (1 + k (hi - x) / width), whose
    slope grows (1 + k)^2-fold across the bracket.  Only + - * / are used, so
    an element's f has the same bits in any batch."""
    lo, width, frac, kind, slope, k = (np.array(v) for v in zip(*brackets))
    hi, root = lo + width, lo + width * frac
    scale = np.where(width > 0.0, width, 1.0)

    def f(x):
        curved = np.sign(slope) * (1.0 / (1.0 + k * (hi - x) / scale)
                                   - 1.0 / (1.0 + k * (hi - root) / scale))
        return np.where(kind == "linear", slope * (x - root), curved)

    return lo, hi, root, f


@settings(max_examples=150, deadline=None)
@given(brackets=st.lists(_BRACKETS, min_size=1, max_size=8))
@example(brackets=[(1550.0, 1.0, 0.0, "linear", 1.0, 1.0),     # root on lo
                   (1551.0, 0.0, 0.5, "curved", 1.0, 1.0),     # lo == hi
                   (1550.0, 1.0, 0.5, "linear", -2.0, 1.0),    # dk exactly 0 mid-solve
                   (1560.0, 1.0, 0.3, "curved", -1.0, 40.0)])  # strongly curved
def test_bracketed_roots_stay_inside_and_elementwise(brackets):
    lo, hi, root, f = _synthetic(brackets)
    evaluated = []

    def g(x):
        evaluated.append(x.copy())
        return f(x)

    got = dispersion._bracketed_roots(g, lo, hi)
    assert np.all((lo <= got) & (got <= hi))
    assert all(np.all((lo <= x) & (x <= hi)) for x in evaluated)
    # a linear f with a slope has one root, and the first secant is on it
    linear = np.array([b[3] == "linear" and b[4] != 0.0 for b in brackets])
    assert np.all(np.abs(got - root)[linear] <= 1e-9 * (hi - lo)[linear])
    for i, one in enumerate(brackets):
        alone = dispersion._bracketed_roots(_synthetic([one])[3], lo[i:i + 1], hi[i:i + 1])
        assert alone.view(np.int64)[0] == got.view(np.int64)[i]


def _two_end_bisection(f, lo, hi, iterations=80):
    """_bisect_roots with its earlier stop test, which compared both lo and
    hi with their updates."""
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        take_lo = flo * fmid <= 0.0
        new_hi = np.where(take_lo, mid, hi)
        new_lo = np.where(take_lo, lo, mid)
        if (np.array_equal(new_lo.view(np.int64), lo.view(np.int64))
                and np.array_equal(new_hi.view(np.int64), hi.view(np.int64))):
            break
        hi, lo = new_hi, new_lo
        flo = np.where(take_lo, flo, fmid)
    return 0.5 * (lo + hi)


_EDGES = st.tuples(st.floats(1400.0, 1700.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(brackets=st.lists(_EDGES, min_size=1, max_size=8), slope=st.floats(-3.0, 3.0),
       tuning=st.booleans())
@example(brackets=[(1550.0, 1.0, 0.0), (1551.0, 0.0, 0.5), (1449.5, 1.0, 0.3)], slope=1.0,
         tuning=False)
@example(brackets=[(1560.0, 1.0, 0.0), (1561.0, 0.0, 0.0)], slope=0.0, tuning=True)
def test_early_exit_bisection_gives_the_bits_of_80_steps(wg3, brackets, slope, tuning):
    # (lo, width, frac): frac = 0 puts the root on lo, so f(lo) == 0, and
    # width = 0 makes lo == hi, a root on a coarse node
    lo = np.array([b[0] for b in brackets])
    hi = lo + np.array([b[1] for b in brackets])
    if tuning:
        pump = np.linspace(1920.0, 1980.0, lo.size)
        f = dispersion._mismatch_against(pump, wg3, "signal")
    else:
        root = lo + np.array([b[1] * b[2] for b in brackets])
        def f(x):
            return slope * (x - root)
    steps = {"got": 0, "two ends": 0}

    def counted(key):
        def g(x):
            steps[key] += 1
            return f(x)
        return g

    got = dispersion._bisect_roots(counted("got"), lo, hi)
    want = tuning_oracle.bisect_roots(f, lo, hi)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # mid replaces one end of each bracket, so "the replaced end already has
    # mid's bits" is "no end changes": the same stop after as many steps
    two_ends = _two_end_bisection(counted("two ends"), lo, hi)
    assert np.array_equal(got.view(np.int64), two_ends.view(np.int64))
    assert steps["got"] == steps["two ends"]


def test_efficiency_factor_peak_and_nulls(wg3):
    assert dispersion.efficiency_factor(0.0, wg3.length_mm) == 1.0
    length_um = wg3.length_mm * 1000.0
    for m in (1, 2, 3):
        assert dispersion.efficiency_factor(2.0 * np.pi * m / length_um, wg3.length_mm) < 1e-30


def test_acceptance_bandwidth_values(wg3):
    bw = dispersion.acceptance_bandwidth(wg3, 1950.0,
                                         dispersion.phase_matched_signal(1950.0, wg3))
    assert bw.signal_nm == pytest.approx(1550.0, abs=1e-6)
    assert bw.signal_band_fwhm_nm == pytest.approx(0.588048416860147, abs=1e-6)
    assert bw.sfg_band_fwhm_nm == pytest.approx(0.18253498535750623, abs=1e-6)
    # the SFG-side width is the signal-side width compressed by the band map
    assert bw.sfg_band_fwhm_nm < bw.signal_band_fwhm_nm


@pytest.mark.parametrize("signal_nm", [1551.0, 1550.0001, float("nan")])
def test_acceptance_bandwidth_rejects_a_pair_off_the_tuning_curve(wg3, signal_nm):
    # wg3 phase matches 1950 nm to 1550 nm: |dk| is 2e-15 rad/um there, 2e-8 at +1e-4 nm
    with pytest.raises(TuningError, match="not phase matched"):
        dispersion.acceptance_bandwidth(wg3, 1950.0, signal_nm)


def test_design_period_round_trip(wg3):
    period = dispersion.design_qpm_period(1550.0, 1950.0, wg3)
    assert period == pytest.approx(19.6, abs=1e-9)
    probe = dispersion.WaveguideSpec(
        length_mm=wg3.length_mm, qpm_period_um=period, temperature_c=wg3.temperature_c,
        dispersion_correction=wg3.dispersion_correction)
    assert abs(dispersion.qpm_mismatch(1550.0, 1950.0, probe)) < 1e-12


def test_design_period_other_pair(wg3):
    assert dispersion.design_qpm_period(1550.0, 1560.0, wg3) == pytest.approx(
        16.311795638187764, abs=1e-6)


def test_design_period_rejects_unbuildable(wg3):
    with pytest.raises(TuningError):
        dispersion.design_qpm_period(800.0, 1950.0, wg3)  # period below 5 um
    with pytest.raises(DomainError):
        dispersion.design_qpm_period(500.0, 520.0, wg3)  # SFG outside validity


def test_tuning_solve_rejects_a_window_without_a_root(wg3):
    # a 21 um period moves the 1950 nm pump's phase match out of 1450-1650 nm
    with pytest.raises(TuningError, match=r"no phase-matched signal in \[1450.0, 1650.0\] "
                                          r"nm for \[1950.0\] nm \(period 21.0 um"):
        dispersion.phase_matched_signal(1950.0, replace(wg3, qpm_period_um=21.0))


def test_tuning_solve_rejects_a_second_root(wg3):
    # b (l - 1.55)^2 added to the correction bends dk back through zero: at
    # b = 5 a second root appears in the window at 1950 nm
    b = 5.0
    c0, c1, c2 = wg3.dispersion_correction
    bent = replace(wg3, dispersion_correction=(c0 + b * 1.55**2, c1 - 2 * b * 1.55, c2 + b))
    with pytest.raises(TuningError, match=r"ambiguous phase matching: 2 roots inside "
                                          r"\[1450.0, 1650.0\] nm for \[1950.0\] nm"):
        dispersion.phase_matched_signal(1950.0, bent)
    # the bend is zero at 1550 nm, so the calibrated anchor stays a root
    assert dispersion.qpm_mismatch(1550.0, 1950.0, bent) == pytest.approx(
        dispersion.qpm_mismatch(1550.0, 1950.0, wg3), abs=1e-12)


def test_tuning_solve_rejects_a_second_root_entering_between_strided_pumps(wg3):
    # at b = 0.64 the bend's second root enters the window through its 1450 nm
    # edge at a pump between 1951.62 and 1951.63 nm: inside the 1951-1952 nm
    # pump stride, so the first pumps it reaches are not strided ones
    b = 0.64
    c0, c1, c2 = wg3.dispersion_correction
    bent = replace(wg3, dispersion_correction=(c0 + b * 1.55**2, c1 - 2 * b * 1.55, c2 + b))
    pump = np.round(1951.0 + 0.01 * np.arange(101), 2)
    with pytest.raises(TuningError, match=r"ambiguous phase matching: 2 roots inside "
                                          r"\[1450.0, 1650.0\] nm for "
                                          r"\[1951.63, 1951.64, 1951.65\] nm$"):
        dispersion.phase_matched_signal(pump, bent)


def test_tuning_solve_rejects_a_fold_inside_one_pump_stride(wg3):
    # w(l) = a (l - s0)^3 + b (l - s0) + d added to the signal index folds the
    # tuning map around 1550.5 nm, with d chosen so the fold is centred on the
    # 1950.5 nm pump: 1950.32-1950.71 nm phase match three signals a coarse
    # node or more apart, while every pump on the 1 nm stride matches one
    a, b, s0 = 730.0, -0.05, 1.5505
    d = dispersion.qpm_mismatch(1550.5, 1950.5, wg3) * s0 / dispersion.TWO_PI
    c0, c1, c2 = wg3.dispersion_correction
    fold = replace(wg3, dispersion_correction=(
        c0 - a * s0**3 - b * s0 + d, c1 + 3 * a * s0**2 + b, c2 - 3 * a * s0, a))
    assert dispersion.phase_matched_signal(np.arange(1900.0, 2001.0, 1.0), fold).size == 101
    # descending, so the first three in input order are the highest of the fold
    pump = np.round(1951.0 - 0.01 * np.arange(101), 2)
    with pytest.raises(TuningError, match=r"ambiguous phase matching: 3 roots inside "
                                          r"\[1450.0, 1650.0\] nm for "
                                          r"\[1950.71, 1950.7, 1950.69\] nm$"):
        dispersion.phase_matched_signal(pump, fold)



def test_tuning_solve_sends_a_fifth_of_the_full_scan_through_qpm_mismatch(cfg, wg3,
                                                                       monkeypatch):
    # a full coarse scan sent 1201 x 201 cells through the checked dk, and the
    # residual check 1201 more; the strided scan sends about 17 000
    cells = []
    mismatch = dispersion.qpm_mismatch

    def counted(signal_nm, pump_nm, wg):
        dk = mismatch(signal_nm, pump_nm, wg)
        cells.append(np.size(dk))
        return dk

    monkeypatch.setattr(dispersion, "qpm_mismatch", counted)
    dispersion.phase_matched_signal(cfg.scan.pump_grid_nm(), wg3)
    assert sum(cells) <= (1201 * 201 + 1201) // 5


@pytest.mark.parametrize("step, want", [(0.05, [12261, 722, 1201]),
                                        (0.02, [12261, 1862, 3001])],
                         ids=["1201-rows", "3001-rows"])
def test_tuning_solve_sends_the_pinned_cells_through_qpm_mismatch(cfg, wg3, monkeypatch,
                                                                  step, want):
    # a schedule's one solve (scan pumps plus the scan centre) sends the strided
    # scan (61 pumps x 201 nodes), the between pumps' evaluated nodes and the
    # residual check through the checked dk: the bench's dispersion.qpm_cells
    cells = []
    mismatch = dispersion.qpm_mismatch

    def counted(signal_nm, pump_nm, wg):
        dk = mismatch(signal_nm, pump_nm, wg)
        cells.append(np.size(dk))
        return dk

    monkeypatch.setattr(dispersion, "qpm_mismatch", counted)
    spectrometer.vbg_tracking_schedule(replace(cfg.scan, pump_step_nm=step), wg3, cfg.vbg)
    assert cells == want


def _outcome(solve, known, wg):
    """The bits a solve returns, or its TuningError's text."""
    try:
        return _bits(solve(known, wg)).tobytes()
    except TuningError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(solve_for=st.sampled_from(["signal", "pump"]), width=st.floats(0.5, 60.0),
       step=st.floats(0.013, 0.31), where=st.floats(0.0, 1.0),
       bend=st.one_of(st.floats(-0.7, 0.7), st.floats(-8.0, 8.0)),
       duplicates=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
@example(solve_for="signal", width=60.0, step=0.013, where=0.5, bend=0.0, duplicates=5, seed=0)
@example(solve_for="pump", width=60.0, step=0.013, where=0.5, bend=0.0, duplicates=5, seed=0)
def test_tuning_solves_equal_the_oracle(wg3, solve_for, width, step, where, bend,
                                        duplicates, seed):
    # shuffled known sets with duplicates, on bends from one root through
    # none to two: the package's roots bit for bit, or its error word for word
    rng = np.random.default_rng(seed)
    lo, hi = (1890.0, 2010.0) if solve_for == "signal" else (1515.0, 1595.0)
    start = lo + where * (hi - lo - width)
    known = start + step * np.arange(int(width / step) + 1)
    known = rng.permutation(np.append(known, rng.choice(known, duplicates)))
    wg = _bent(wg3, bend)
    name = f"phase_matched_{solve_for}"
    assert (_outcome(getattr(dispersion, name), known, wg)
            == _outcome(getattr(tuning_oracle, name), known, wg))


_SIGNAL_NODES = np.arange(1450.0, 1651.0, 1.0)


def _root_counts(dk):
    """Roots per row as the coarse scan counts them: zero nodes plus sign flips."""
    return (dk == 0.0).sum(axis=1) + (dk[:, :-1] * dk[:, 1:] < 0.0).sum(axis=1)


def _brackets(dk, nodes):
    """(lo, hi) per row of a full scan: its first zero node, else its first flip."""
    on_node, flip = dk == 0.0, dk[:, :-1] * dk[:, 1:] < 0.0
    at_node = on_node.any(axis=1)
    node = nodes[np.argmax(on_node, axis=1)]
    idx = np.argmax(flip, axis=1)
    return (np.where(at_node, node, nodes[idx]), np.where(at_node, node, nodes[idx + 1]))


@settings(max_examples=100, deadline=None)
@given(start=st.floats(1890.0, 1960.0),
       span=st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 100.0)),
       size=st.integers(1, 300),
       layout=st.sampled_from(["ascending", "descending", "shuffled", "uniform draw"]),
       duplicates=st.integers(0, 20),
       bend=st.one_of(st.floats(-0.7, 0.7), st.floats(-8.0, 8.0)),
       period=st.floats(19.4, 20.2),
       seed=st.integers(0, 2**32 - 1))
@example(start=1951.0, span=1.0, size=101, layout="ascending", duplicates=0, bend=0.64,
         period=19.6, seed=0)
@example(start=1950.0, span=0.0, size=1, layout="ascending", duplicates=3, bend=0.0,
         period=19.6, seed=0)
def test_strided_scan_counts_and_solves_as_the_full_scan(wg3, start, span, size, layout,
                                                        duplicates, bend, period, seed):
    # b (l - 1.55)^2 on the correction bends dk: from no root through one to
    # two in the window, depending on the pump, b and the period; most pumps
    # keep a single root for |b| < 0.7, few beyond
    rng = np.random.default_rng(seed)
    if layout == "uniform draw":
        pump = start + span * rng.random(size)
    else:
        pump = np.linspace(start, start + span, size)
    pump = np.append(pump, rng.choice(pump, duplicates))
    if layout == "descending":
        pump = pump[::-1]
    elif layout != "ascending":
        pump = rng.permutation(pump)
    c0, c1, c2 = wg3.dispersion_correction
    wg = replace(wg3, qpm_period_um=period, dispersion_correction=(
        c0 + bend * 1.55**2, c1 - 2 * bend * 1.55, c2 + bend))

    full = dispersion.qpm_mismatch(_SIGNAL_NODES[None, :], pump[:, None], wg)
    want = _root_counts(full)
    distinct = np.unique(pump)
    count, lo, hi = dispersion._coarse_roots(distinct, _SIGNAL_NODES, wg, "signal")
    row = np.searchsorted(distinct, pump)
    assert np.array_equal(count[row], want)
    if np.all(want == 1):
        want_lo, want_hi = _brackets(full, _SIGNAL_NODES)
        assert np.array_equal(lo[row], want_lo) and np.array_equal(hi[row], want_hi)

    one = want == 1
    if one.any():
        got = dispersion.phase_matched_signal(pump[one], wg)
        assert np.array_equal(got.view(np.int64),
                              tuning_oracle.phase_matched_signal(pump[one], wg).view(np.int64))
    if np.any(want == 0):
        message = (f"no phase-matched signal in [1450.0, 1650.0] nm "
                   f"for {pump[want == 0][:3].tolist()} nm")
    elif np.any(want > 1):
        message = (f"ambiguous phase matching: {want.max()} roots inside [1450.0, 1650.0] nm "
                   f"for {pump[want > 1][:3].tolist()} nm")
    else:
        return
    with pytest.raises(TuningError, match=re.escape(message)):
        dispersion.phase_matched_signal(pump, wg)


def test_calibration_error_paths(cfg):
    with pytest.raises(CalibrationError):
        dispersion.calibrate_operating_point(cfg.waveguide, [])
    with pytest.raises(CalibrationError):
        dispersion.calibrate_operating_point(
            cfg.waveguide, [(1950.0, 1550.0), (1960.0, 1550.0)])


def test_extra_consistent_anchor_keeps_fit(cfg, wg3):
    # a fourth anchor taken from the calibrated curve itself moves nothing
    extra = (1965.0, float(dispersion.phase_matched_signal(1965.0, wg3)))
    wg4 = dispersion.calibrate_operating_point(cfg.waveguide, list(cfg.anchors) + [extra])
    assert np.allclose(wg4.dispersion_correction, wg3.dispersion_correction, rtol=1e-6)


def test_waveguide_spec_validation():
    with pytest.raises(DomainError):
        dispersion.WaveguideSpec(length_mm=-1.0)
    with pytest.raises(DomainError):
        dispersion.WaveguideSpec(qpm_period_um=0.0)
    with pytest.raises(DomainError):
        dispersion.WaveguideSpec(temperature_c=500.0)
