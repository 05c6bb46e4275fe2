"""Conversion-efficiency and pump-noise model pins from two-point data."""
import numpy as np
import pytest

from upconvspec import conversion
from upconvspec.conversion import (
    ConversionModel, NoiseModel, fit_conversion, fit_noise,
)
from upconvspec.errors import DomainError, FitError

U_PIN = 0.17427130307599065
ETA_MAX_PIN = 0.30366404472867514
GAMMA_PIN = 1.3020384907884603
AMP_PIN = 0.505765121917392


def test_fit_conversion_reproduces_points_exactly(cfg):
    model, report = fit_conversion(cfg.conversion_points)
    assert model.u_per_sqrt_mw == pytest.approx(U_PIN, rel=1e-12)
    assert model.eta_max == pytest.approx(ETA_MAX_PIN, rel=1e-12)
    assert model.efficiency(20.0) == pytest.approx(0.15, abs=1e-12)
    assert model.efficiency(58.0) == pytest.approx(0.286, abs=1e-12)
    assert report.rms < 1e-12 and not report.degenerate


def test_efficiency_interpolates_between_points(models):
    conv, _ = models
    assert conv.efficiency(30.0) == pytest.approx(0.20221549041225295, rel=1e-12)
    p = np.linspace(1.0, 58.0, 40)
    eta = conv.efficiency(p)
    assert np.all(np.diff(eta) > 0)  # still on the rising branch
    assert conv.efficiency(0.0) == 0.0


def test_fit_noise_reproduces_points_exactly(cfg):
    model, report = fit_noise(cfg.noise_points, cfg.noise_floor_cps)
    assert model.exponent == pytest.approx(GAMMA_PIN, rel=1e-12)
    assert model.amplitude_cps == pytest.approx(AMP_PIN, rel=1e-12)
    assert model.rate(20.0) == pytest.approx(25.0, abs=1e-9)
    assert model.rate(58.0) == pytest.approx(100.0, abs=1e-9)
    assert report.rms < 1e-9


def test_noise_rate_vectorized_and_superlinear(models):
    _, noise = models
    assert noise.rate(30.0) == pytest.approx(42.385528808577135, rel=1e-12)
    p = np.array([10.0, 20.0, 40.0, 80.0])
    r = noise.rate(p)
    assert r.shape == p.shape
    # gamma > 1: doubling power more than doubles the pump-induced counts
    assert np.all(r[1:] / r[:-1] > 2.0)


def test_fit_conversion_three_points():
    exact = [(20.0, 0.15), (58.0, 0.286),
             (30.0, ETA_MAX_PIN * np.sin(U_PIN * np.sqrt(30.0)) ** 2)]
    model, report = fit_conversion(exact)
    assert report.rms < 1e-8 and not report.degenerate
    assert model.u_per_sqrt_mw == pytest.approx(U_PIN, rel=1e-6)
    # middle point pulled off the curve: fit survives, residuals show it
    model2, report2 = fit_conversion([(20.0, 0.15), (30.0, 0.19), (58.0, 0.286)])
    assert not report2.degenerate
    assert 1e-4 < report2.rms < 0.01


def test_fit_noise_three_points_degenerate_flag(models):
    _, noise = models
    exact = [(20.0, 25.0), (30.0, noise.rate(30.0)), (58.0, 100.0)]
    _, report = fit_noise(exact, 0.0)
    assert report.rms < 1e-6 and not report.degenerate
    # a power law cannot pass through 60 cps at 30 mW as well: flagged
    _, report2 = fit_noise([(20.0, 25.0), (30.0, 60.0), (58.0, 100.0)], 0.0)
    assert report2.degenerate and report2.note


def test_fit_error_paths():
    with pytest.raises(FitError):
        fit_conversion([(20.0, 0.15)])  # one point
    with pytest.raises(FitError):
        fit_conversion([(20.0, 0.15), (20.0, 0.2)])  # duplicate power
    with pytest.raises(FitError):
        fit_conversion([(20.0, 0.15), (58.0, 1.2)])  # efficiency > 1
    with pytest.raises(FitError):
        fit_conversion([(10.0, 0.1), (40.0, 0.5)])  # superlinear, no sin^2 fit
    with pytest.raises(FitError):
        fit_noise([(10.0, 100.0), (20.0, 80.0)], 0.0)  # falling with power
    with pytest.raises(FitError):
        fit_noise([(20.0, 25.0), (58.0, 100.0)], 30.0)  # floor above a point
    with pytest.raises(FitError):
        fit_noise([(20.0, 25.0), (58.0, 100.0)], -1.0)


def test_model_validation():
    with pytest.raises(DomainError):
        ConversionModel(eta_max=0.0, u_per_sqrt_mw=0.1)
    with pytest.raises(DomainError):
        ConversionModel(eta_max=0.3, u_per_sqrt_mw=-0.1)
    with pytest.raises(DomainError):
        NoiseModel(floor_cps=-1.0, amplitude_cps=1.0, exponent=1.0)
    model = ConversionModel(eta_max=0.3, u_per_sqrt_mw=0.17)
    with pytest.raises(DomainError):
        model.efficiency(-5.0)
