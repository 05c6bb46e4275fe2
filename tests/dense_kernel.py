"""Dense reference build of the response kernel, the oracle for the band.

dense_kernel evaluates every (pump, signal) cell of the kernel the way
build_kernel did before it stored only each row's band; thresholded then
applies the band's per-row cut.  build_kernel's band must match it.
write_dense_kernel_csv writes the kernel CSV format of that time, which
the reader must now reject at its column line.
"""
import numpy as np

from upconvspec import dispersion, spectrometer
from upconvspec.components import transmission, vbg_transmission
from upconvspec.units import photon_energy_j


def dense_kernel(wg, chain, vbg, conv_model, plan):
    """-> (n_pump x n_signal matrix over every cell, signal grid)."""
    pump = plan.pump_grid_nm()
    schedule = spectrometer.vbg_tracking_schedule(plan, wg, vbg)
    mapped = schedule.signal_nm
    grid = spectrometer.default_signal_grid(mapped)
    eta = conv_model.efficiency(plan.pump_power_mw)

    lam_s = grid[None, :]
    lam_p = pump[:, None]
    qpm = dispersion.efficiency_factor(dispersion.qpm_mismatch(lam_s, lam_p, wg),
                                       wg.length_mm)
    sfg = dispersion.sfg_wavelength(lam_s, lam_p)
    t_actual = vbg_transmission(vbg, sfg, center_nm=schedule.centers_nm[:, None])
    for el in chain:
        t_actual = t_actual * transmission(el, sfg)

    sfg_pm = dispersion.sfg_wavelength(mapped, pump)
    t_ref = np.full(pump.shape, vbg.peak_reflectance)
    for el in chain:
        t_ref = t_ref * transmission(el, sfg_pm)

    per_photon = photon_energy_j(grid)
    return eta * qpm * (t_actual / t_ref[:, None]) / per_photon[None, :], grid


def thresholded(matrix):
    """The entries above BAND_REL_TOL x their row's peak; zeros elsewhere."""
    cut = spectrometer.BAND_REL_TOL * matrix.max(axis=1, keepdims=True)
    return np.where(matrix > cut, matrix, 0.0), cut


def write_dense_kernel_csv(path, kernel, meta=None):
    """Kernel CSV in the dense format: signal grid as the first data row."""
    full_meta = dict(meta or {})
    full_meta.update({
        "pump_power_mw": repr(float(kernel.pump_power_mw)),
        "vbg_tracking": kernel.vbg_tracking,
        "mapped_signal_nm": " ".join(map(repr, kernel.mapped_signal_nm.tolist())),
        "vbg_centers_nm": " ".join(map(repr, kernel.vbg_centers_nm.tolist())),
    })
    with open(path, "w") as fh:
        for key, value in full_meta.items():
            fh.write(f"# {key}: {value}\n")
        fh.write("pump_nm\\signal_nm," + ",".join(map(repr, kernel.signal_grid_nm.tolist()))
                 + "\n")
        for p, row in zip(kernel.pump_grid_nm.tolist(), kernel.matrix.tolist()):
            fh.write(f"{p!r}," + ",".join(map(repr, row)) + "\n")
