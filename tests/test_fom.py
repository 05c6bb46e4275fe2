"""Noise-equivalent power conventions and operating-point assembly."""
import numpy as np
import pytest

from upconvspec import fom
from upconvspec.errors import DomainError

POINT = fom.OperatingPoint(signal_nm=1550.0, efficiency=0.20, background_cps=60.0)


def test_nep_reference_value():
    r = fom.nep(POINT, "background_sqrt_d")
    assert r.nep_w_per_sqrt_hz == pytest.approx(4.9635301437938815e-18, rel=1e-12)
    assert r.nep_dbm == pytest.approx(-143.0420933628198, abs=1e-9)


def test_nep_conventions_differ_by_sqrt2():
    a = fom.nep(POINT, "background_sqrt_d")
    b = fom.nep(POINT, "background_sqrt_2d")
    assert b.nep_w_per_sqrt_hz / a.nep_w_per_sqrt_hz == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert b.nep_dbm == pytest.approx(-141.53694338449986, abs=1e-9)


def test_nep_scalings():
    base = fom.nep(POINT).nep_w_per_sqrt_hz
    quad = fom.OperatingPoint(signal_nm=1550.0, efficiency=0.20, background_cps=240.0)
    assert fom.nep(quad).nep_w_per_sqrt_hz == pytest.approx(2.0 * base, rel=1e-12)
    double_eta = fom.OperatingPoint(signal_nm=1550.0, efficiency=0.40, background_cps=60.0)
    assert fom.nep(double_eta).nep_w_per_sqrt_hz == pytest.approx(base / 2.0, rel=1e-12)


def test_nep_error_paths():
    with pytest.raises(DomainError):
        fom.nep(POINT, "bogus")
    with pytest.raises(DomainError):
        fom.nep(fom.OperatingPoint(signal_nm=1550.0, efficiency=0.2, background_cps=0.0))
    with pytest.raises(DomainError):
        fom.OperatingPoint(signal_nm=1550.0, efficiency=0.0, background_cps=60.0)
    with pytest.raises(DomainError):
        fom.OperatingPoint(signal_nm=1550.0, efficiency=1.5, background_cps=60.0)
    with pytest.raises(DomainError):
        fom.OperatingPoint(signal_nm=-1.0, efficiency=0.2, background_cps=60.0)
