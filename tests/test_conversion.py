"""Conversion-efficiency and pump-noise model pins and fits."""
import numpy as np
import pytest
import tuning_oracle
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import least_squares

from upconvspec import conversion
from upconvspec.conversion import (
    ConversionModel, NoiseModel, fit_conversion, fit_noise,
)
from upconvspec.errors import DomainError, FitError

U_PIN = 0.17427130307599065
ETA_MAX_PIN = 0.30366404472867514
GAMMA_PIN = 1.3020384907884603
AMP_PIN = 0.505765121917392


def test_fit_conversion_reproduces_points_exactly(cfg, monkeypatch):
    calls = []
    solve = conversion.bracketed_roots

    def counted(f, lo, hi, **kwargs):
        return solve(lambda u: calls.append(1) or f(u), lo, hi, **kwargs)

    monkeypatch.setattr(conversion, "bracketed_roots", counted)
    model, report = fit_conversion(cfg.conversion_points)
    assert (model.u_per_sqrt_mw, model.eta_max) == (U_PIN, ETA_MAX_PIN)  # bit for bit
    assert len(calls) <= 15
    assert model.efficiency(20.0) == pytest.approx(0.15, abs=1e-12)
    assert model.efficiency(58.0) == pytest.approx(0.286, abs=1e-12)
    assert report.rms < 1e-12 and not report.degenerate


@settings(max_examples=200, deadline=None)
@given(powers=st.lists(st.floats(1.0, 100.0), min_size=2, max_size=2, unique=True),
       u_frac=st.floats(0.05, 0.999), eta_max=st.floats(0.05, 1.0))
def test_two_point_pin_sits_on_the_80_step_bisection(powers, u_frac, eta_max):
    p1, p2 = sorted(powers)
    assume(p2 - p1 > 1e-3)
    hi = np.pi / (2.0 * np.sqrt(p2))
    e1, e2 = eta_max * np.sin(u_frac * hi * np.sqrt(np.array([p1, p2]))) ** 2
    model, _ = fit_conversion([(p1, e1), (p2, e2)])

    def g(u):
        return e2 * np.sin(u * np.sqrt(p1)) ** 2 - e1 * np.sin(u * np.sqrt(p2)) ** 2

    want = float(tuning_oracle.bisect_roots(g, np.array([hi * 1e-9]), np.array([hi]))[0])
    # kappa is the relative change of the root per relative change of the
    # ratio sin(u sqrt(P2)) / sin(u sqrt(P1)): rounding in either solve's f
    # moves its root a few ulps times kappa, which close powers or a pin near
    # the linear limit raise to about 1e5
    a, b = want * np.sqrt(p1), want * np.sqrt(p2)
    kappa = 1.0 / abs(b / np.tan(b) - a / np.tan(a))
    rel = abs(model.u_per_sqrt_mw - want) / want
    assert rel <= max(1e-12, 32 * np.finfo(float).eps * kappa)


def test_efficiency_interpolates_between_points(models):
    conv, _ = models
    assert conv.efficiency(30.0) == pytest.approx(0.20221549041225295, rel=1e-12)
    p = np.linspace(1.0, 58.0, 40)
    eta = conv.efficiency(p)
    assert np.all(np.diff(eta) > 0)  # still on the rising branch
    assert conv.efficiency(0.0) == 0.0


def test_fit_noise_reproduces_points_exactly(cfg):
    model, report = fit_noise(cfg.noise_points, cfg.noise_floor_cps)
    assert (model.exponent, model.amplitude_cps) == (GAMMA_PIN, AMP_PIN)  # bit for bit
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


def test_fit_conversion_follows_points_whose_extreme_pair_cannot_be_pinned():
    # the extreme pair alone implies eta_max 1.096; a fit seeded from that
    # pair refused these points, while the bounded fit sits at eta_max = 1
    points = [(22.0, 0.1131), (55.0, 0.254), (74.0, 0.3492)]
    with pytest.raises(FitError, match="implied eta_max 1.096 exceeds 1"):
        fit_conversion([points[0], points[-1]])
    model, report = fit_conversion(points)
    assert model.eta_max == 1.0
    assert not report.degenerate and report.rms < 7e-3


def test_fit_noise_follows_points_whose_extreme_pair_is_nearly_flat():
    # the extreme pair alone implies gamma 4e-4, below the fit's 1e-3 bound;
    # a least_squares seeded from that pair raised ValueError
    points = [(53.0, 100.0), (60.0, 104.0), (68.0, 100.01)]
    assert 0.0 < fit_noise([points[0], points[-1]], 0.0)[0].exponent < 1e-3
    model, report = fit_noise(points, 0.0)
    assert model.exponent >= 1e-3
    assert not report.degenerate and report.rms < 2.0


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


def _oracle(residuals, seed, bounds, reported=None):
    """The rms of the reported residuals (default: the fitted ones) at
    scipy's least_squares solution from the given seed, as the fits were
    solved before variable projection; None where it does not succeed."""
    if not np.all((bounds[0] <= np.array(seed)) & (np.array(seed) <= bounds[1])):
        return None  # least_squares raises ValueError on a seed outside the bounds
    sol = least_squares(residuals, x0=seed, bounds=bounds)
    return float(np.sqrt(np.mean((reported or residuals)(sol.x) ** 2))) if sol.success else None


def _check_against_oracle(report, rms, limit):
    """The fit is no worse than the oracle, and the degenerate flags agree
    unless the limit falls between the two rms values: there the oracle
    stopped short of a minimum the fit reached."""
    assert report.rms <= rms * (1 + 1e-12)
    assert report.degenerate == (report.rms > limit)
    assert report.degenerate == (rms > limit) or report.rms * (1 + 1e-9) < rms


@st.composite
def calibration_problems(draw):
    """3-7 distinct powers in [1, 100] mW and relative errors of 0.5-10 %
    with alternating signs, so that no drawn problem is an exact fit."""
    n = draw(st.integers(3, 7))
    p = np.sort(draw(st.lists(st.floats(1.0, 100.0), min_size=n, max_size=n,
                              unique=True)))
    assume(np.all(np.diff(p) > 1e-3))
    size = np.array(draw(st.lists(st.floats(0.005, 0.1), min_size=n, max_size=n)))
    return p, 1.0 + size * (-1.0) ** np.arange(n)


@settings(max_examples=100, deadline=None)
@given(problem=calibration_problems(), u_frac=st.floats(0.05, 1.0),
       eta_max=st.floats(0.05, 1.0))
def test_fit_conversion_is_no_worse_than_the_seeded_least_squares(problem, u_frac, eta_max):
    p, err = problem
    u_hi = np.pi / (2.0 * np.sqrt(p[-1]))
    eta = np.clip(eta_max * np.sin(u_frac * u_hi * np.sqrt(p)) ** 2 * err, 1e-6, 1.0)
    try:
        seed, _ = fit_conversion([(p[0], eta[0]), (p[-1], eta[-1])])
    except FitError:
        assume(False)
    rms = _oracle(lambda x: x[0] * np.sin(x[1] * np.sqrt(p)) ** 2 - eta,
                  [seed.eta_max, seed.u_per_sqrt_mw], ([1e-6, 1e-9], [1.0, u_hi]))
    assume(rms is not None)
    _, report = fit_conversion(np.column_stack([p, eta]))
    _check_against_oracle(report, rms, 0.02 * float(np.max(eta)))


# The floor stays below the pump-induced excess (at least 0.1 cps), so that
# rounding in floor + excess stays far below the rms compared at 1e-12.
@settings(max_examples=100, deadline=None)
@given(problem=calibration_problems(), gamma=st.floats(0.3, 4.0),
       amplitude=st.floats(0.1, 100.0), floor=st.floats(0.0, 0.1))
def test_fit_noise_is_no_worse_than_the_seeded_least_squares(problem, gamma, amplitude,
                                                             floor):
    p, err = problem
    total = floor + amplitude * p ** gamma * err
    excess = total - floor
    try:
        seed, _ = fit_noise([(p[0], total[0]), (p[-1], total[-1])], floor)
    except FitError:
        assume(False)
    rms = _oracle(lambda x: np.exp(x[0]) * p ** x[1] - excess,
                  [np.log(seed.amplitude_cps), seed.exponent], ([-50.0, 1e-3], [50.0, 10.0]),
                  lambda x: NoiseModel(floor, float(np.exp(x[0])), float(x[1])).rate(p) - total)
    assume(rms is not None)
    _, report = fit_noise(np.column_stack([p, total]), floor)
    _check_against_oracle(report, rms, 0.05 * float(np.max(excess)))
