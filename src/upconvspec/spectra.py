"""Spectral-density containers and synthetic test spectra."""
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .units import dbm_to_watts

@dataclass(frozen=True)
class Spectrum:
    """A spectral density [W/nm] on an ascending wavelength grid.

    grid_nm finite and strictly ascending; values finite and nonnegative.
    """

    grid_nm: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid_nm, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != vals.shape or grid.size < 1:
            raise DomainError("spectrum grid and values must be matching 1-D arrays")
        # compared pairwise, not by np.diff, which overflows on a grid that
        # spans more than the largest double
        if not np.all(np.isfinite(grid)) or np.any(grid[1:] <= grid[:-1]):
            raise DomainError("spectrum grid must be finite and strictly ascending")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise DomainError("spectrum values must be finite and nonnegative")
        object.__setattr__(self, "grid_nm", grid)
        object.__setattr__(self, "values", vals)

    def total_power_w(self):
        """Trapezoid integral [W]."""
        if self.grid_nm.size == 1:
            return float(self.values[0])
        return float(np.trapezoid(self.values, self.grid_nm))

    def interpolated(self, grid_nm):
        """Linear resample onto a new ascending grid, zero outside support."""
        new = np.asarray(grid_nm, dtype=float)
        vals = np.interp(new, self.grid_nm, self.values, left=0.0, right=0.0)
        return Spectrum(grid_nm=new, values=vals)


def multimode_ld_spectrum(grid_nm, center_nm=1550.0, n_modes=5, spacing_nm=0.5,
                          mode_fwhm_nm=0.35, total_dbm=-98.9):
    """Comb of gaussian longitudinal modes mimicking a Fabry-Perot diode.

    Equal-power modes sit at center ± k*spacing.  The result integrates to
    total_dbm exactly.
    """
    if n_modes < 1 or spacing_nm <= 0 or mode_fwhm_nm <= 0:
        raise DomainError("need n_modes >= 1 and positive spacing/mode width")
    grid = np.asarray(grid_nm, dtype=float)
    centers = center_nm + (np.arange(n_modes) - (n_modes - 1) / 2.0) * spacing_nm
    sigma = mode_fwhm_nm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    vals = np.zeros_like(grid)
    for c in centers:
        vals += np.exp(-0.5 * ((grid - c) / sigma) ** 2)
    integral = np.trapezoid(vals, grid)
    if integral <= 0:
        raise DomainError("spectrum grid does not cover the requested modes")
    vals *= dbm_to_watts(total_dbm) / integral
    return Spectrum(grid_nm=grid, values=vals)


def monochromatic_spectrum(grid_nm, line_nm, power_w):
    """All the power in the single grid bin nearest line_nm (delta input).

    The bin value is power / local bin width so the trapezoid integral of
    the density equals power_w.
    """
    grid = np.asarray(grid_nm, dtype=float)
    if grid.size < 3:
        raise DomainError("need at least 3 grid points for a delta input")
    if not (grid[0] <= line_nm <= grid[-1]):
        raise DomainError(f"line {line_nm} nm outside the grid")
    j = int(np.argmin(np.abs(grid - line_nm)))
    widths = np.gradient(grid)
    vals = np.zeros_like(grid)
    vals[j] = power_w / widths[j]
    return Spectrum(grid_nm=grid, values=vals)
