"""Richardson-Lucy on the kernel's band against the dense reference loop.

deconvolve runs RL on count rates with ResponseKernel.rl_operator: the band
times the grid weights on the support columns, built once per kernel as
dense blocks of consecutive rows, which every product runs on.
dense_rl is the loop as it ran on a dense matrix in counts, here the
kernel's dense view; the two must agree in iteration count and stop reason,
and in estimate and residual to a relative 1e-9.  The band's dropped mass
is checked against the dense oracle build, the operator's form against the
dense view, its block products against that view, and its reuse across
dwells and calls against a fresh kernel's.  A bright line's RL, which
flushes most columns, runs with scipy blocked.
"""
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from dense_kernel import dense_kernel
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import upconvspec
from upconvspec import inverse, spectra, spectrometer
from upconvspec.errors import UnrecoverableBandError

PEDESTAL_CPS = 42.385528808577135  # fitted noise model at 30 mW


def dense_rl(raw, kernel, background_cps, max_iters=500, discrepancy_target=1.0):
    """Reference: accelerated RL with dense products over every support column.

    Log-space extrapolation y = x (x / x_prev)^alpha, one RL step from y, a
    flush of entries below 1e-16 x the largest (or the smallest normal double),
    and alpha = g.g_prev / g_prev.g_prev clipped to [0, 1], reset to 0 when
    chi^2 rises.  Flushed columns stay in every product here.
    """
    d = np.asarray(raw.sampled_counts if raw.sampled
                   else raw.expected_rate_cps * raw.plan.dwell_s, dtype=float)
    bg = background_cps * raw.plan.dwell_s
    d_sig = np.maximum(d - bg, 0.0)
    grid = kernel.signal_grid_nm
    active = ((grid >= kernel.mapped_signal_nm.min())
              & (grid <= kernel.mapped_signal_nm.max()))
    m = kernel.matrix * (np.gradient(grid)[None, :] * raw.plan.dwell_s)
    m_act = m[:, active]
    norm = m_act.sum(axis=0)
    x = np.full(m_act.shape[1], d_sig.sum() / m_act.sum())
    x_prev = g_prev = None
    alpha, chi2_prev = 0.0, np.inf
    stop = "max_iterations"
    for iters in range(1, max_iters + 1):
        y = x.copy()
        if alpha > 0.0:
            live = x > 0.0
            y[live] = x[live] * (x[live] / x_prev[live]) ** alpha
        model = m_act @ y
        ratio = np.where(model > 0, d_sig / np.where(model > 0, model, 1.0), 0.0)
        x_new = y * (m_act.T @ ratio) / norm
        x_new[x_new < max(1e-16 * x_new.max(), np.finfo(float).tiny)] = 0.0
        g = np.where(x_new > 0.0, x_new - y, 0.0)
        step = np.linalg.norm(x_new - x)
        model = m_act @ x_new + bg
        chi2 = np.mean((d - model) ** 2 / np.maximum(model, 1.0))
        alpha = 0.0
        if g_prev is not None and chi2 <= chi2_prev and g_prev @ g_prev > 0.0:
            alpha = float(np.clip(g @ g_prev / (g_prev @ g_prev), 0.0, 1.0))
        x_prev, x, g_prev, chi2_prev = x, x_new, g, chi2
        if chi2 <= discrepancy_target:
            stop = "discrepancy_reached"
            break
        if step <= 1e-9 * max(np.linalg.norm(x), 1e-300):
            stop = "stagnation"
            break
    est = np.zeros(grid.size)
    est[active] = x
    model = m @ est + bg
    return est, iters, stop, float(np.mean((d - model) ** 2 / np.maximum(model, 1.0)))


@pytest.fixture(scope="module")
def noise(models):
    return models[1]


@pytest.fixture(scope="module")
def fixed_small(cfg, wg3, models, small_plan):
    plan = replace(small_plan, vbg_tracking="fixed")
    return plan, spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, models[0], plan)


@pytest.fixture(scope="module", params=["tracked_default", "fixed_small"])
def kernel_and_plan(request, cfg, kernel, fixed_small):
    if request.param == "tracked_default":
        return cfg.scan, kernel
    return fixed_small


@pytest.mark.parametrize("kind,dwell_s", [("broad", 1.0), ("broad", 10.0),
                                          ("broad", 100.0), ("line", 10.0)])
def test_band_rl_matches_dense_reference(kernel_and_plan, noise, kind, dwell_s):
    plan, kern = kernel_and_plan
    grid = kern.signal_grid_nm
    center = float(np.median(kern.mapped_signal_nm))
    if kind == "broad":
        source = spectra.multimode_ld_spectrum(grid, center_nm=center, total_dbm=-100.0)
        target = 1.0
    else:  # discrepancy target 0: runs to the iteration cap
        source = spectra.monochromatic_spectrum(grid, center + 0.3, 1e-13)
        target = 0.0
    scan = spectrometer.forward_scan(source, kern, noise,
                                     replace(plan, dwell_s=dwell_s, seed=11))
    assert scan.sampled
    res = inverse.deconvolve(scan, kern, noise_model=noise, discrepancy_target=target)
    est, iters, stop, resid = dense_rl(scan, kern, res.background_cps,
                                       discrepancy_target=target)
    assert res.iterations_used == iters
    assert res.stop_reason == stop
    if kind == "line":
        assert stop == "max_iterations" and iters == 500
    assert np.max(np.abs(res.estimate.values - est)) <= 1e-9 * np.max(np.abs(est))
    assert res.residual_norm == pytest.approx(resid, rel=1e-9)


def test_band_drops_negligible_mass(kernel_and_plan, cfg, wg3, models):
    plan, kern = kernel_and_plan
    dense, _ = dense_kernel(wg3, cfg.filters, cfg.vbg, models[0], plan)
    kept = kern.matrix
    assert kept.shape == dense.shape
    row_sum = dense.sum(axis=1)
    band_sum = kern.band_values.sum(axis=1)
    assert np.all(row_sum > 0)
    assert np.all(row_sum - band_sum <= 1e-10 * row_sum)
    assert np.array_equal(kept[kept > 0], dense[kept > 0])
    assert np.count_nonzero(kern.band_values) < 0.1 * dense.size


def _scattered(op):
    """The operator's blocks put back at their columns: padded rows x support."""
    n_blocks, rows, width = op.blocks.shape
    dense = np.zeros((n_blocks * rows, op.support.size))
    np.put_along_axis(dense, np.repeat(op.columns, rows, axis=0),
                      op.blocks.reshape(-1, width), axis=1)
    return dense


def test_rl_operator_is_the_weighted_band_on_the_support(kernel_and_plan):
    _, kern = kernel_and_plan
    op = kern.rl_operator
    grid = kern.signal_grid_nm
    mapped = kern.mapped_signal_nm
    n = kern.pump_grid_nm.size
    assert np.array_equal(op.support, np.flatnonzero((grid >= mapped.min())
                                                     & (grid <= mapped.max())))
    weighted = (kern.matrix * np.gradient(grid))[:, op.support]
    n_blocks, rows, width = op.blocks.shape
    assert rows == spectrometer.RL_BLOCK_ROWS and n_blocks == -(-n // rows)
    assert op.columns.shape == (n_blocks, width) and width <= op.support.size
    assert np.all(np.diff(op.columns, axis=1) == 1)  # consecutive columns
    assert op.columns.min() >= 0 and op.columns.max() < op.support.size
    # every block entry sits at its own cell of the weighted band, and every
    # band entry on the support is in its rows' block: zeros everywhere else
    dense = _scattered(op)
    assert np.array_equal(dense[:n], weighted)
    assert not np.any(dense[n:])
    assert np.count_nonzero(op.blocks) == np.count_nonzero(weighted)
    assert np.array_equal(op.norm, op.back(np.ones(n)))
    assert np.allclose(op.norm, weighted.sum(axis=0), rtol=1e-14, atol=0.0)
    assert np.all(op.norm > 0.0)
    assert not any(a.flags.writeable for a in (op.support, op.blocks, op.columns, op.norm))


def test_band_is_rebuilt_for_a_replaced_kernel(small_kernel):
    values = small_kernel.band_values
    tails = values < 1e-3 * values.max(axis=1, keepdims=True)
    other = replace(small_kernel, band_values=np.where(tails, 0.0, values))
    assert other.rl_operator is not small_kernel.rl_operator
    op, other_op = small_kernel.rl_operator, other.rl_operator
    assert np.count_nonzero(other_op.blocks) < np.count_nonzero(op.blocks)
    n = small_kernel.pump_grid_nm.size
    dropped = np.zeros(small_kernel.matrix.shape, dtype=bool)
    np.put_along_axis(dropped, small_kernel.band_columns, tails, axis=1)
    dropped = dropped[:, op.support]
    assert np.any(_scattered(op)[:n][dropped] > 0.0)
    assert not np.any(_scattered(other_op)[:n][dropped])


@settings(max_examples=30, deadline=None)
@given(tracking=st.sampled_from(["tracked", "fixed"]),
       width_nm=st.one_of(st.floats(6.0, 60.0), st.floats(0.2, 2.0)),
       step_nm=st.floats(0.02, 0.1), where=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(tracking="tracked", width_nm=0.3, step_nm=0.1, where=0.5, seed=1)
@example(tracking="fixed", width_nm=1.0, step_nm=0.1, where=0.2, seed=2)
def test_block_products_agree_with_the_dense_view(cfg, wg3, models, tracking, width_nm,
                                                  step_nm, where, seed):
    # Widths under 2 nm give supports narrower than a block's columns (10
    # support columns at 0.3 nm).  A fixed VBG parked for a wide window
    # leaves support columns no row reaches: RL rejects those kernels.
    start = 1920.0 + where * (60.0 - width_nm)
    plan = replace(cfg.scan, pump_start_nm=start, pump_stop_nm=start + width_nm,
                   pump_step_nm=step_nm, vbg_tracking=tracking)
    kern = spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, models[0], plan)
    try:
        op = kern.rl_operator
    except UnrecoverableBandError:
        reject()
    assert op.blocks.shape[2] <= op.support.size
    # the operator's weights, as a dense kernel rows x support columns matrix
    weighted = kern.matrix[:, op.support]
    weighted *= np.gradient(kern.signal_grid_nm)[op.support]
    rng = np.random.default_rng(seed)
    xs, r = rng.uniform(0.5, 1.5, (2, op.support.size)), rng.uniform(0.5, 1.5, op.n_rows)
    pair = op.forward(xs)  # both vectors in one product
    assert pair.shape == (2, op.n_rows)
    for block, exact in ((op.forward(xs[0]), weighted @ xs[0]), (pair[0], weighted @ xs[0]),
                         (pair[1], weighted @ xs[1]), (op.back(r), r @ weighted),
                         (op.norm, weighted.sum(axis=0))):
        assert block.shape == exact.shape
        assert np.all(np.abs(block - exact) <= 1e-14 * np.abs(exact))


def test_rl_operator_is_built_once_and_serves_every_dwell(small_kernel, small_plan, noise):
    kern = replace(small_kernel)
    source = spectra.multimode_ld_spectrum(kern.signal_grid_nm, total_dbm=-100.0,
                                           center_nm=1550.0)
    scans = [spectrometer.forward_scan(source, kern, noise,
                                       replace(small_plan, dwell_s=dwell_s, seed=11))
             for dwell_s in (1.0, 100.0)]
    assert "rl_operator" not in vars(kern)
    inverse.deconvolve(scans[0], kern, noise_model=noise)
    operator = vars(kern)["rl_operator"]
    reused = inverse.deconvolve(scans[1], kern, noise_model=noise)
    assert vars(kern)["rl_operator"] is operator
    fresh = inverse.deconvolve(scans[1], replace(kern), noise_model=noise)
    assert np.array_equal(reused.estimate.values, fresh.estimate.values)
    assert reused.iterations_used == fresh.iterations_used
    assert reused.stop_reason == fresh.stop_reason
    assert reused.residual_norm == fresh.residual_norm


# A bright line at 100 s: RL flushes most support columns on its way to the
# discrepancy target.  scipy is blocked, so any scipy import raises.
_LINE_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from dataclasses import replace
import numpy as np
from upconvspec import config, inverse, spectra, spectrometer
cfg = config.load_config()
conv, noise = config.pinned_models(cfg)
kern = spectrometer.build_kernel(config.calibrated_waveguide(cfg), cfg.filters, cfg.vbg,
                                 conv, cfg.scan)
line = spectra.monochromatic_spectrum(kern.signal_grid_nm, 1550.3, 1e-13)
scan = spectrometer.forward_scan(line, kern, noise, replace(cfg.scan, dwell_s=100.0, seed=11))
res = inverse.deconvolve(scan, kern, noise_model=noise)
print(res.stop_reason, np.count_nonzero(res.estimate.values), kern.support.size)
print(" ".join(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None))
"""


def test_line_deconvolve_flushes_columns_without_scipy():
    src = os.path.dirname(os.path.dirname(upconvspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _LINE_WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result, loaded = (proc.stdout + "\n").split("\n", 1)
    stop_reason, live, n_support = result.split()
    assert stop_reason == "discrepancy_reached"
    assert int(live) <= 0.8 * int(n_support)  # a fifth or more flushed
    assert loaded.split() == []


@settings(max_examples=40, deadline=None)
@given(lines=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.02, 2.0),
                                st.floats(-16.0, -11.0)), max_size=4),
       cap=st.integers(1, 50))
def test_rl_conserves_flux(small_kernel, small_plan, noise, lines, cap):
    grid = small_kernel.signal_grid_nm
    lo, hi = small_kernel.mapped_signal_nm.min(), small_kernel.mapped_signal_nm.max()
    values = np.zeros(grid.size)
    for where, width, log_w in lines:
        center = lo + where * (hi - lo)
        shape = np.exp(-0.5 * ((grid - center) / width) ** 2)
        values += 10.0 ** log_w * shape / np.trapezoid(shape, grid)
    scan = spectrometer.forward_scan(spectra.Spectrum(grid, values), small_kernel,
                                     noise, small_plan, sample=False)
    res = inverse.deconvolve(scan, small_kernel, max_iters=cap, discrepancy_target=0.0,
                             background_cps=PEDESTAL_CPS)
    est = res.estimate.values
    assert np.all(est >= 0.0)
    d_sig = np.maximum(scan.expected_rate_cps * scan.plan.dwell_s
                       - PEDESTAL_CPS * scan.plan.dwell_s, 0.0)
    predicted = small_kernel.matrix @ (est * np.gradient(grid)) * scan.plan.dwell_s
    assert predicted.sum() == pytest.approx(d_sig.sum(), rel=1e-9)
