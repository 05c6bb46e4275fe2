"""Reference tuning-map solver, the oracle for the one-pass solve.

It solves the map the plain way: dk on every node of the full 1 nm scan for
every known wavelength, then the package's bracketed steps (false position
with its Anderson-Bjorck weight) written out on the elements still moving,
every evaluation of dk going through the checked refractive_index, term by
term as qpm_mismatch had it.  A known wavelength with no root or more than
one in the window, or a root above the dk tolerance, raises the package's
TuningError, word for word.  The scan-center pump of the fixed VBG setpoint
is a scalar solve of its own.  The solvers and schedules here must give the
package's bits.  bisect_roots, 80 full bisection steps, is the accuracy
reference the bracketed roots are held to.
"""
import numpy as np

from upconvspec import dispersion, spectrometer
from upconvspec.errors import TuningError


def qpm_mismatch(signal_nm, pump_nm, wg):
    """dk [rad/um], each wave's index from the checked refractive_index."""
    s_um = np.asarray(signal_nm, dtype=float) * 1e-3
    p_um = np.asarray(pump_nm, dtype=float) * 1e-3
    f_nm = dispersion.sfg_wavelength(signal_nm, pump_nm)
    n_f = dispersion.refractive_index(f_nm, wg.temperature_c, medium=wg.medium)
    n_s = dispersion.refractive_index(signal_nm, wg.temperature_c,
                                      correction=wg.dispersion_correction, medium=wg.medium)
    n_p = dispersion.refractive_index(pump_nm, wg.temperature_c, medium=wg.medium)
    dk = dispersion.TWO_PI * (n_f / (np.asarray(f_nm, dtype=float) * 1e-3)
                              - n_s / s_um - n_p / p_um - 1.0 / wg.qpm_period_um)
    if np.ndim(signal_nm) == 0 and np.ndim(pump_nm) == 0:
        return float(dk)
    return dk


def bisect_roots(f, lo, hi, iterations=80):
    """Bisection that always runs all `iterations` steps."""
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        take_lo = flo * fmid <= 0.0
        hi = np.where(take_lo, mid, hi)
        lo = np.where(take_lo, lo, mid)
        flo = np.where(take_lo, flo, fmid)
    return 0.5 * (lo + hi)


def bracketed_roots(f, lo, hi):
    """dispersion._bracketed_roots' false position, on the elements still
    moving: f(x, i) is f of the elements i at x.  Each pass takes an element's
    secant through its bracket ends (the midpoint when that is not strictly
    inside), stops it once that moved at most _ROOT_STEP_TOL of its first
    bracket from its previous estimate, and otherwise evaluates it there."""
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    every = np.arange(a.size)
    fa, fb = f(a, every), f(b, every)
    tol = dispersion._ROOT_STEP_TOL * (b - a)
    root = np.where(fa == 0.0, a, b)
    prev = np.full(a.size, np.nan)
    i = np.flatnonzero((fa != 0.0) & (fb != 0.0) & (a != b))
    for _ in range(80):
        if i.size == 0:
            break
        c = b[i] - fb[i] * (b[i] - a[i]) / (fb[i] - fa[i])
        outside = ~((c > np.minimum(a[i], b[i])) & (c < np.maximum(a[i], b[i])))
        c[outside] = 0.5 * (a[i] + b[i])[outside]
        root[i] = c
        moving = ~(np.abs(c - prev[i]) <= tol[i])
        i, c = i[moving], c[moving]
        fc = f(c, i)
        i, c, fc = i[fc != 0.0], c[fc != 0.0], fc[fc != 0.0]
        on_b = fc * fb[i] > 0.0
        ia, ib = i[~on_b], i[on_b]
        # the retained end's f is scaled by 1 - f(c) / f(replaced end), or by
        # 1/2 where that is not positive
        m_a = 1.0 - fc[on_b] / fb[ib]
        fa[ib] *= np.where(m_a > 0.0, m_a, 0.5)
        b[ib], fb[ib] = c[on_b], fc[on_b]
        m_b = 1.0 - fc[~on_b] / fa[ia]
        fb[ia] *= np.where(m_b > 0.0, m_b, 0.5)
        a[ia], fa[ia] = c[~on_b], fc[~on_b]
        prev[i] = c
    return root


def _bisected(f, lo, hi):
    """bisect_roots of f(x, i) over every element."""
    every = np.arange(np.size(lo))
    return bisect_roots(lambda x: f(x, every), lo, hi)


def _solve(known_nm, wg, solve_for, window_nm, roots=bracketed_roots):
    known = np.atleast_1d(np.asarray(known_nm, dtype=float))
    grid = np.arange(window_nm[0], window_nm[1] + dispersion._COARSE_STEP_NM,
                     dispersion._COARSE_STEP_NM)
    if solve_for == "signal":
        def dk(x, i):
            return qpm_mismatch(x, known[i], wg)
        dk_grid = qpm_mismatch(grid[None, :], known[:, None], wg)
    else:
        def dk(x, i):
            return qpm_mismatch(known[i], x, wg)
        dk_grid = qpm_mismatch(known[:, None], grid[None, :], wg)
    on_node = dk_grid == 0.0
    sign_flip = dk_grid[:, :-1] * dk_grid[:, 1:] < 0.0
    n_roots = on_node.sum(axis=1) + sign_flip.sum(axis=1)
    window = f"[{grid[0]:.1f}, {grid[-1]:.1f}] nm"
    if np.any(n_roots == 0):
        raise TuningError(f"no phase-matched {solve_for} in {window} "
                          f"for {known[n_roots == 0][:3].tolist()} nm "
                          f"(period {wg.qpm_period_um} um, {wg.temperature_c} C)")
    if np.any(n_roots > 1):
        raise TuningError(f"ambiguous phase matching: {int(n_roots.max())} roots inside "
                          f"{window} for {known[n_roots > 1][:3].tolist()} nm")
    at_node = on_node.any(axis=1)
    node = grid[np.argmax(on_node, axis=1)]
    idx = np.argmax(sign_flip, axis=1)
    lo = np.where(at_node, node, grid[idx])
    hi = np.where(at_node, node, grid[idx + 1])
    root = roots(dk, lo, hi)
    resid = np.abs(dk(root, np.arange(known.size)))
    if np.any(resid > dispersion.DK_TOLERANCE_PER_UM):
        raise TuningError(f"tuning solve failed to reach |dk| < "
                          f"{dispersion.DK_TOLERANCE_PER_UM} rad/um (worst {resid.max():.3e})")
    return float(root[0]) if np.ndim(known_nm) == 0 else root


def phase_matched_signal(pump_nm, wg):
    """Signal [nm] phase matched to pump_nm over the default search window."""
    return _solve(pump_nm, wg, "signal", dispersion.SIGNAL_SEARCH_NM)


def bisected_signal(pump_nm, wg):
    """Signal [nm] phase matched to pump_nm by 80 bisection steps on the same
    coarse brackets: the accuracy reference."""
    return _solve(pump_nm, wg, "signal", dispersion.SIGNAL_SEARCH_NM, roots=_bisected)


def phase_matched_pump(signal_nm, wg):
    """Pump [nm] phase matched to signal_nm over the default search window."""
    return _solve(signal_nm, wg, "pump", dispersion.PUMP_SEARCH_NM)


def fixed_setpoint(plan, wg):
    """(scan-center pump, SFG setpoint [nm]), from a scalar solve of its own."""
    center_pump = 0.5 * (plan.pump_start_nm + plan.pump_stop_nm)
    center_sig = phase_matched_signal(center_pump, wg)
    return center_pump, float(dispersion.sfg_wavelength(center_sig, center_pump))


def vbg_tracking_schedule(plan, wg, vbg):
    pump = plan.pump_grid_nm()
    sig = phase_matched_signal(pump, wg)
    sfg = dispersion.sfg_wavelength(sig, pump)
    _, fixed_center = fixed_setpoint(plan, wg)
    centers = sfg if plan.vbg_tracking == "tracked" else np.full_like(pump, fixed_center)
    return spectrometer.TrackingSchedule(signal_nm=sig, centers_nm=centers)
