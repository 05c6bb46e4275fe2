"""Filter chain and VBG lineshapes: half-max points, stopbands, bounds."""
import numpy as np
import pytest

from upconvspec import components
from upconvspec.components import (
    FilterElement, VbgState, gaussian_band,
    transmission, vbg_transmission,
)
from upconvspec.errors import DomainError


def test_gaussian_band_half_max_and_symmetry():
    for fwhm in (0.05, 1.0, 20.0):
        assert gaussian_band(100.0 + fwhm / 2, 100.0, fwhm) == pytest.approx(0.5, abs=1e-12)
        assert gaussian_band(100.0 - fwhm / 2, 100.0, fwhm) == pytest.approx(0.5, abs=1e-12)
    x = np.linspace(0.01, 3.0, 40)
    assert np.allclose(gaussian_band(100.0 + x, 100.0, 1.3),
                       gaussian_band(100.0 - x, 100.0, 1.3), rtol=0, atol=1e-14)


def test_vbg_half_max_at_quoted_fwhm(cfg):
    vbg = cfg.vbg
    c = 863.571
    half = vbg.peak_reflectance / 2.0
    assert vbg_transmission(vbg, c, c) == pytest.approx(vbg.peak_reflectance, rel=1e-12)
    assert vbg_transmission(vbg, c + vbg.fwhm_nm / 2, c) == pytest.approx(half, abs=1e-9)
    assert vbg_transmission(vbg, c - vbg.fwhm_nm / 2, c) == pytest.approx(half, abs=1e-9)


def test_vbg_top_hat_shape():
    th = VbgState(lineshape="top_hat")
    c = 863.57
    assert vbg_transmission(th, c, c) == pytest.approx(0.95, abs=1e-9)
    # erf edges put the half point at the same +-fwhm/2 as the gaussian
    assert vbg_transmission(th, c + 0.025, c) == pytest.approx(0.475, abs=1e-9)
    assert vbg_transmission(th, c + 0.015, c) > 0.94


def test_short_pass_edge_and_stopband(cfg):
    spf = [f for f in cfg.filters if f.kind == "short_pass"][0]
    assert transmission(spf, spf.edge_nm - 10.0) > 0.97
    assert transmission(spf, spf.edge_nm) == pytest.approx(spf.peak / 2, rel=1e-12)
    assert transmission(spf, 975.0) < 1e-6   # upconverted band stays, pump leak dies
    assert transmission(spf, 1950.0) < 1e-6


def test_band_pass_half_max(cfg):
    bpf = [f for f in cfg.filters if f.kind == "band_pass"][0]
    assert transmission(bpf, bpf.center_nm) == pytest.approx(bpf.peak, rel=1e-12)
    assert transmission(bpf, bpf.center_nm + bpf.fwhm_nm / 2) == pytest.approx(
        bpf.peak / 2, abs=1e-12)


def test_long_pass_and_top_hat_band():
    lpf = FilterElement(kind="long_pass", edge_nm=1000.0, edge_width_nm=2.0, peak=0.9)
    assert transmission(lpf, 1100.0) == pytest.approx(0.9, rel=1e-9)
    assert transmission(lpf, 900.0) < 1e-6
    hat = FilterElement(kind="band_pass", center_nm=860.0, fwhm_nm=10.0,
                        peak=0.8, lineshape="top_hat", edge_width_nm=0.5)
    assert transmission(hat, 860.0) == pytest.approx(0.8, abs=1e-9)
    assert transmission(hat, 865.0) == pytest.approx(0.4, abs=1e-9)


def test_all_transmissions_bounded_under_fuzz(cfg):
    rng = np.random.default_rng(20240903)
    lam = rng.uniform(300.0, 2500.0, size=4000)
    elements = list(cfg.filters) + [
        FilterElement(kind="band_pass", center_nm=860.0, fwhm_nm=5.0,
                      peak=1.0, lineshape="top_hat", edge_width_nm=0.2),
        FilterElement(kind="long_pass", edge_nm=1400.0, edge_width_nm=5.0),
    ]
    for el in elements:
        t = transmission(el, lam)
        assert np.all(t >= 0.0) and np.all(t <= 1.0), el.kind
    for shape in ("gaussian", "top_hat"):
        vbg = VbgState(lineshape=shape)
        t = vbg_transmission(vbg, lam, center_nm=863.57)
        assert np.all(t >= 0.0) and np.all(t <= vbg.peak_reflectance + 1e-12)


def test_filter_element_validation():
    with pytest.raises(DomainError):
        FilterElement(kind="notch")
    with pytest.raises(DomainError):
        FilterElement(kind="band_pass", center_nm=860.0, fwhm_nm=0.0)
    with pytest.raises(DomainError):
        FilterElement(kind="short_pass", edge_nm=945.0, edge_width_nm=0.0)
    with pytest.raises(DomainError):
        FilterElement(kind="broadband_loss", peak=1.2)
    with pytest.raises(DomainError):
        FilterElement(kind="band_pass", center_nm=860.0, fwhm_nm=1.0, lineshape="sinc")


def test_vbg_validation():
    with pytest.raises(DomainError):
        vbg_transmission(VbgState(), 863.0, center_nm=900.0)
    with pytest.raises(DomainError):
        VbgState(fwhm_nm=0.0)
    with pytest.raises(DomainError):
        VbgState(tuning_range_nm=(880.0, 850.0))
