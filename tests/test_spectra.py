"""Spectrum container invariants and the synthetic input generators."""
import numpy as np
import pytest

from upconvspec import spectra
from upconvspec.errors import DomainError
from upconvspec.units import dbm_to_watts

GRID = np.arange(1546.0, 1554.0, 0.02)


def _local_maxima(values, floor):
    idx = []
    for i in range(1, values.size - 1):
        if values[i] > floor and values[i] >= values[i - 1] and values[i] > values[i + 1]:
            idx.append(i)
    return idx


def test_multimode_spectrum_power_is_exact():
    s = spectra.multimode_ld_spectrum(GRID)
    assert s.total_power_w() == pytest.approx(dbm_to_watts(-98.9), rel=1e-14)


def test_multimode_spectrum_has_requested_modes():
    s = spectra.multimode_ld_spectrum(GRID, center_nm=1550.0, n_modes=5, spacing_nm=0.5)
    peaks = _local_maxima(s.values, 0.2 * s.values.max())
    assert len(peaks) == 5
    centers = GRID[peaks]
    assert np.allclose(centers, 1550.0 + (np.arange(5) - 2) * 0.5, atol=0.021)


def test_multimode_grid_must_cover_modes():
    with pytest.raises(DomainError):
        spectra.multimode_ld_spectrum(np.arange(1000.0, 1001.0, 0.02))


def test_monochromatic_spectrum_delta():
    s = spectra.monochromatic_spectrum(GRID, 1550.0, 2e-12)
    assert s.total_power_w() == pytest.approx(2e-12, rel=1e-12)
    assert np.count_nonzero(s.values) == 1
    assert abs(GRID[np.argmax(s.values)] - 1550.0) <= 0.011
    with pytest.raises(DomainError):
        spectra.monochromatic_spectrum(GRID, 1600.0, 1e-12)


def test_spectrum_validation():
    with pytest.raises(DomainError):
        spectra.Spectrum(GRID, np.ones(GRID.size - 1))
    with pytest.raises(DomainError):
        spectra.Spectrum(GRID[::-1], np.ones(GRID.size))
    with pytest.raises(DomainError):
        spectra.Spectrum(GRID, np.full(GRID.size, -1.0))
    with pytest.raises(DomainError):
        spectra.Spectrum(GRID, np.full(GRID.size, np.nan))


@pytest.mark.parametrize("grid", [[1549.0, np.nan, 1551.0], [1549.0, 1550.0, np.inf],
                                  [-np.inf, 1550.0, 1551.0], [np.nan], [np.inf]],
                         ids=["nan-inside", "inf-last", "minus-inf-first", "one-point-nan",
                              "one-point-inf"])
def test_spectrum_grid_must_be_finite(grid):
    # np.diff(grid) <= 0 is False for nan, so [1549, nan, 1551] used to pass,
    # and so did a grid ending in inf and any one-point grid
    with pytest.raises(DomainError, match="spectrum grid must be finite and strictly ascending"):
        spectra.Spectrum(np.array(grid), np.ones(len(grid)))


def test_spectrum_grid_wider_than_the_double_range_is_checked_without_overflow():
    # the span exceeds the largest double, so a difference of the ends overflows
    wide = np.array([-5.172371460467415e+307, 1.2804559888155743e+308])
    assert np.array_equal(spectra.Spectrum(wide, np.zeros(2)).grid_nm, wide)
    with pytest.raises(DomainError, match="strictly ascending"):
        spectra.Spectrum(wide[::-1], np.zeros(2))


def test_interpolation_is_zero_outside_support():
    s = spectra.monochromatic_spectrum(GRID, 1550.0, 1e-12)
    wider = np.arange(1540.0, 1560.0, 0.05)
    r = s.interpolated(wider)
    assert r.values[wider < GRID[0]].max() == 0.0
    assert r.values[wider > GRID[-1]].max() == 0.0
    # resampling onto the same grid is the identity
    same = s.interpolated(GRID)
    assert np.array_equal(same.values, s.values)
