"""Filter chain and VBG lineshapes: half-max points, stopbands, bounds."""
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

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


@pytest.mark.parametrize("u", [-3.0, -4.5, -5.5])
def test_top_hat_edges_keep_their_tails(u):
    # 0.5 erfc(-u) against mpmath; 0.5 (1 + erf(u)) is 0.4 % off at u = -5.5.
    # Centre 860 nm, FWHM 1.25 nm and edge scale 0.125 nm make every edge
    # argument exact, and the far edge sits at erfc = 2 exactly.
    want = float(mpmath.erfc(-mpmath.mpf(u)) / 2)
    hat = FilterElement(kind="band_pass", center_nm=860.0, fwhm_nm=1.25, peak=1.0,
                        lineshape="top_hat", edge_width_nm=0.125)
    vbg = VbgState(fwhm_nm=1.25, peak_reflectance=1.0, lineshape="top_hat")
    below, above = 859.375 + 0.125 * u, 860.625 - 0.125 * u
    got = [transmission(hat, below), transmission(hat, above),
           vbg_transmission(vbg, below, 860.0), vbg_transmission(vbg, above, 860.0)]
    assert np.all(np.abs(np.array(got) - want) <= 1e-14 * want), got


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
    # a top-hat's edges roll off over edge_width_nm: -1 inverted the filter
    # (1e-90 at its centre), and 0 gave NaN with a divide-by-zero warning
    for width in (-1.0, 0.0):
        with pytest.raises(DomainError, match="edge_width_nm"):
            FilterElement(kind="band_pass", center_nm=857.0, fwhm_nm=20.0,
                          lineshape="top_hat", edge_width_nm=width)


def test_vbg_validation():
    with pytest.raises(DomainError):
        vbg_transmission(VbgState(), 863.0, center_nm=900.0)
    with pytest.raises(DomainError):
        VbgState(fwhm_nm=0.0)
    with pytest.raises(DomainError):
        VbgState(tuning_range_nm=(880.0, 850.0))
    for bad in ((850.0,), (850.0, 865.0, 880.0), 850.0):
        with pytest.raises(DomainError, match="tuning_range_nm must be two numbers"):
            VbgState(tuning_range_nm=bad)


_ERF_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
              2.2250738585072014e-308, 1e-17, 0.46875, -0.46875, 1.0, -1.0, 4.0, -4.0,
              5.9, -5.9, 6.0, -6.0, 26.5, -26.5, 27.3, -27.3, 1e300, -1e300]


def _assert_erfc_matches_scipy(x):
    """erfc within 1e-13 relative of SciPy's where SciPy's is >= 1e-300 and
    below 1e-299 where SciPy's is smaller."""
    x = np.asarray(x, dtype=float)
    got, want = components.erfc(x), special.erfc(x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    big = want >= 1e-300
    assert np.all(np.abs(got[big] - want[big]) <= 1e-13 * want[big]), x[big]
    tiny = ~np.isnan(want) & ~big
    assert np.all((got[tiny] >= 0.0) & (got[tiny] < 1e-299)), x[tiny]


def test_erf_matches_scipy_on_edges_and_a_dense_grid():
    _assert_erfc_matches_scipy(_ERF_EDGES)
    _assert_erfc_matches_scipy(np.linspace(-28.0, 28.0, 224_001))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(-7.0, 7.0), st.floats(0.0, 28.0)),
                min_size=1, max_size=40))
def test_erf_matches_scipy_under_fuzz(xs):
    _assert_erfc_matches_scipy(xs)


def test_erf_saturates_to_exact_limits():
    erfc = components.erfc
    assert erfc(-6.0) == 2.0 and erfc(-np.inf) == 2.0
    assert erfc(27.3) == 0.0 and erfc(np.inf) == 0.0
    assert erfc(0.0) == 1.0 and erfc(-0.0) == 1.0
    assert np.isnan(erfc(np.nan))
    assert np.array_equal(erfc(np.full((3, 2), -85.0)), np.full((3, 2), 2.0))
    assert isinstance(erfc(0.3), np.float64) and erfc(np.zeros((2, 0))).shape == (2, 0)


@pytest.mark.parametrize("kind, edge_nm, flat", [
    ("short_pass", 945.0, True),    # the default edge: erfc = 2 on every SFG cell
    ("short_pass", 870.0, False),   # the edge inside the range
    ("long_pass", 800.0, True),
    ("long_pass", 905.0, False),    # erfc above 27.3 at one end only
    ("long_pass", 910.0, True),     # erfc = 0 over the whole range
    ("broadband_loss", 0.0, True),
    ("band_pass", 0.0, False),
])
def test_flat_transmission_has_every_wavelengths_bits(kind, edge_nm, flat):
    el = FilterElement(kind=kind, edge_nm=edge_nm, center_nm=865.0, fwhm_nm=40.0, peak=0.9)
    lam = np.linspace(850.0, 880.0, 3001)
    got = components.flat_transmission(el, lam[0], lam[-1])
    if not flat:
        assert got is None
        return
    want = transmission(el, lam)
    assert np.array_equal((np.ones_like(lam) * got).view(np.int64), want.view(np.int64))
