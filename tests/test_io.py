"""CSV round trips must be bit-exact: repr-printed floats, parsed back."""
from dataclasses import replace

import numpy as np
import pytest

from upconvspec import io as uio
from upconvspec import spectra, spectrometer
from upconvspec.errors import DomainError


@pytest.fixture()
def scan_and_kernel(cfg, models, small_plan, small_kernel):
    _, noise = models
    s = spectra.multimode_ld_spectrum(small_kernel.signal_grid_nm, n_modes=1,
                                      total_dbm=-120.0)
    result = spectrometer.forward_scan(s, small_kernel, noise, small_plan)
    return s, result, small_kernel


def test_spectrum_round_trip(tmp_path, scan_and_kernel):
    s, _, _ = scan_and_kernel
    path = tmp_path / "s.csv"
    uio.write_spectrum_csv(path, s, meta={"seed": 7, "note": "unit test"})
    back, meta = uio.read_spectrum_csv(path)
    assert np.array_equal(back.grid_nm, s.grid_nm)
    assert np.array_equal(back.values, s.values)
    assert back.unit == s.unit
    assert meta["seed"] == "7" or meta["seed"] == 7


def test_kernel_round_trip(tmp_path, scan_and_kernel):
    _, _, kern = scan_and_kernel
    path = tmp_path / "k.csv"
    uio.write_kernel_csv(path, kern)
    back, _ = uio.read_kernel_csv(path)
    assert np.array_equal(back.matrix, kern.matrix)
    assert np.array_equal(back.pump_grid_nm, kern.pump_grid_nm)
    assert np.array_equal(back.signal_grid_nm, kern.signal_grid_nm)
    assert np.array_equal(back.mapped_signal_nm, kern.mapped_signal_nm)
    assert np.array_equal(back.vbg_centers_nm, kern.vbg_centers_nm)
    assert back.pump_power_mw == kern.pump_power_mw
    assert back.efficiency == kern.efficiency
    assert back.vbg_tracking == kern.vbg_tracking


def test_scan_round_trip(tmp_path, scan_and_kernel):
    _, result, _ = scan_and_kernel
    path = tmp_path / "r.csv"
    uio.write_scan_csv(path, result)
    back, _ = uio.read_scan_csv(path)
    assert np.array_equal(back.sampled_counts, result.sampled_counts)
    assert np.array_equal(back.expected_rate_cps, result.expected_rate_cps)
    assert np.array_equal(back.pump_grid_nm, result.pump_grid_nm)
    assert np.array_equal(back.signal_nm_mapped, result.signal_nm_mapped)
    assert back.seed == result.seed
    assert back.dwell_s == result.dwell_s
    assert back.pump_power_mw == result.pump_power_mw
    assert back.noise_rate_cps == result.noise_rate_cps
    assert back.sampled is True
    quiet = replace(result, sampled=False)
    uio.write_scan_csv(path, quiet)
    assert uio.read_scan_csv(path)[0].sampled is False


def test_scan_csv_needs_sampled_header(tmp_path, scan_and_kernel):
    _, result, _ = scan_and_kernel
    path = tmp_path / "r.csv"
    uio.write_scan_csv(path, result)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith("# sampled:")))
    with pytest.raises(DomainError, match="sampled"):
        uio.read_scan_csv(path)


def test_identical_writes_are_byte_identical(tmp_path, scan_and_kernel):
    _, result, _ = scan_and_kernel
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    uio.write_scan_csv(a, result)
    uio.write_scan_csv(b, result)
    assert a.read_bytes() == b.read_bytes()


def test_corrupt_csv_raises_domain_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("wavelength_nm,power_w_per_nm\n1550.0,abc\n")
    with pytest.raises(DomainError):
        uio.read_spectrum_csv(bad)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        uio.read_spectrum_csv(tmp_path / "nope.csv")
