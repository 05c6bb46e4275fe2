"""Poisson sampler statistics, stream splitting, photon budgets, detection."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poisson_oracle
from upconvspec import counting, spectra, spectrometer
from upconvspec.errors import DomainError

ORACLE_SEEDS = (0, 1, 2**32 - 1, 2**32 + 5, 2**70 + 3)
ORACLE_PATHS = ((), (0,), (7,), (2**32 - 1,), (3, 5))


@pytest.mark.parametrize("path", ORACLE_PATHS)
@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_stream_matches_numpy_oracle(seed, path):
    def oracle():
        return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path))

    # one lane, stepped 64 times: a call that gave more or fewer than one
    # value would change the length of the concatenation
    lane = counting.rng_from_path(seed, path)
    raw = np.concatenate([lane.random_raw() for _ in range(64)])
    assert raw.tolist() == oracle().random_raw(64).tolist()
    lane = counting.rng_from_path(seed, path)
    uniforms = np.concatenate([lane.random() for _ in range(64)])
    assert uniforms.tolist() == np.random.Generator(oracle()).random(64).tolist()


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_lanes_match_numpy_oracle(seed):
    # 8 steps on 64 lanes, the first and last spawn keys among them, take
    # the 128-bit step through its carries between the 64-bit halves
    keys = np.concatenate([[0, 2**31, 2**32 - 1], np.arange(1, 62)]).astype(np.uint32)

    def oracle(key):
        return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,)))

    lanes = counting._streams(seed, [keys], keys.size)
    raw = np.column_stack([lanes.random_raw() for _ in range(8)])
    lanes = counting._streams(seed, [keys], keys.size)
    uniforms = np.column_stack([lanes.random() for _ in range(8)])
    for key, lane_raw, lane_uniforms in zip(keys.tolist(), raw, uniforms):
        assert lane_raw.tolist() == oracle(key).random_raw(8).tolist()
        assert lane_uniforms.tolist() == np.random.Generator(oracle(key)).random(8).tolist()


def test_bad_seeds_and_spawn_keys_are_rejected():
    for bad in (-1, 1.7, True, None, "7", [1]):
        with pytest.raises(DomainError):
            counting.rng_from_path(bad)
        with pytest.raises(DomainError):
            counting.rng_from_path(1, (bad,))
        with pytest.raises(DomainError):
            counting.poisson_counts(np.ones(3), bad)
    assert counting.validate_seed(np.int64(5)) == 5


SPECIAL_MEANS = [0.0, 5e-324, 1e-300, 1e-3, 29.999, 30.0, 30.001, 1e4]


@given(means=st.lists(st.sampled_from(SPECIAL_MEANS), min_size=1, max_size=12),
       seed=st.integers(min_value=0, max_value=2**80))
def test_poisson_counts_equal_per_point_sampler(means, seed):
    counts = counting.poisson_counts(np.array(means), seed)
    assert counts.dtype == np.int64 and counts.shape == (len(means),)
    assert counts.tolist() == poisson_oracle.poisson_counts(means, seed)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=1, max_value=2000),
       means_seed=st.integers(min_value=0, max_value=2**32 - 1),
       seed=st.integers(min_value=0, max_value=2**80))
def test_poisson_counts_equal_per_point_sampler_on_many_lanes(n, means_seed, seed):
    # log-uniform means from 1e-3 to 1e9 with the special means mixed in:
    # PTRS lanes reject for several rounds, and inversion lanes walk their
    # CDFs for different numbers of steps
    gen = np.random.default_rng(means_seed)
    means = 10.0 ** gen.uniform(-3.0, 9.0, n)
    special = gen.random(n) < 0.1
    means[special] = gen.choice(SPECIAL_MEANS, int(special.sum()))
    counts = counting.poisson_counts(means, seed)
    assert counts.tolist() == poisson_oracle.poisson_counts(means.tolist(), seed)


@given(z=st.one_of(st.floats(10.0, 1e3), st.floats(10.0, 1e18)))
@example(z=10.0)
def test_stirling_lgamma_sits_well_inside_the_ptrs_guard(z):
    # the array log test's lgamma against libm's, a thousandth of the guard
    # band that sends a lane to the scalar test
    want = math.lgamma(z)
    got = float(counting._lgamma_stirling(np.array([z]))[0])
    assert abs(got - want) <= 1e-3 * counting._PTRS_GUARD * (abs(want) + 1.0)


def test_ptrs_array_log_test_decides_as_the_scalar_one(monkeypatch):
    # an infinite guard sends every PTRS log test to _ptrs_log_accept
    gen = np.random.default_rng(20241020)
    means = 10.0 ** gen.uniform(math.log10(30.0), 7.0, 4000)
    scalar_tests = []
    scalar = counting._ptrs_log_accept
    monkeypatch.setattr(counting, "_ptrs_log_accept",
                        lambda *args: scalar_tests.append(args) or scalar(*args))
    for seed in (3, 2**40 + 1):
        scalar_tests.clear()
        arrays = counting.poisson_counts(means, seed)
        n_left = len(scalar_tests)
        with monkeypatch.context() as mp:
            mp.setattr(counting, "_PTRS_GUARD", np.inf)
            assert counting.poisson_counts(means, seed).tolist() == arrays.tolist()
        # the array test decided all but a few of them
        assert n_left < 0.1 * (len(scalar_tests) - n_left)


def test_default_scan_counts_are_pinned(cfg, models, kernel):
    # the values numpy's own SeedSequence/PCG64 Generator gave, point by point
    _, noise = models
    source = spectra.multimode_ld_spectrum(kernel.signal_grid_nm)
    counts = spectrometer.forward_scan(source, kernel, noise, cfg.scan).sampled_counts
    assert int(counts.sum()) == 1131311
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == \
        "68c97b66f7eab7a689be987bb370fb638ec19bcb7d6ea50518b498d9421d6d98"


@pytest.mark.parametrize("means", [[50.0, 5.0, np.nan], [50.0, 5.0, -1.0],
                                   [50.0, np.inf], [[5.0, 5.0], [5.0, 5.0]],
                                   [50.0, 1e19]])
def test_poisson_counts_check_means_before_any_draw(monkeypatch, means):
    # every draw starts from the lanes _streams seeds
    def no_lanes(seed, key_words, n):
        raise AssertionError("seeded lanes before the means were checked")

    monkeypatch.setattr(counting, "_streams", no_lanes)
    with pytest.raises(DomainError):
        counting.poisson_counts(np.array(means), 3)


def lanes_under(seed, head, n):
    """n lanes, lane j on the spawn path (head, j)."""
    return counting._streams(seed, [head, np.arange(n, dtype=np.uint32)], n)


@pytest.mark.parametrize("means", [np.nan, -1.0, np.inf, 2.0**62 * 1.5, 1e19,
                                   [5.0, 5.0, 5.0], [[5.0, 5.0], [5.0, 5.0]]])
def test_sample_poisson_checks_means_before_any_step(monkeypatch, means):
    lanes = lanes_under(3, 0, 2)
    state = [x.copy() for x in (lanes.hi, lanes.lo, lanes.inc_hi, lanes.inc_lo)]

    def no_step(self):
        raise AssertionError("stepped a lane before the means were checked")

    monkeypatch.setattr(counting._Lanes, "_step", no_step)
    with pytest.raises(DomainError):
        counting.sample_poisson(means, lanes)
    for before, after in zip(state, (lanes.hi, lanes.lo, lanes.inc_hi, lanes.inc_lo)):
        assert after.tolist() == before.tolist()


def test_rng_paths_are_reproducible_and_distinct():
    lanes = lanes_under(11, 3, 100)
    a = counting.sample_poisson(50.0, lanes)
    b = counting.sample_poisson(50.0, lanes_under(11, 3, 100))
    c = counting.sample_poisson(50.0, lanes_under(11, 4, 100))
    d = counting.sample_poisson(50.0, lanes_under(12, 3, 100))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # the draws step copies of the lanes: the same lanes give the same draws
    assert np.array_equal(counting.sample_poisson(50.0, lanes), a)
    assert int(counting.sample_poisson(50.0, counting.rng_from_path(11, (3, 7)))[0]) == a[7]


def test_sampling_order_does_not_matter():
    def draw(i):
        return int(counting.sample_poisson(1000.0, counting.rng_from_path(42, (i,)))[0])

    fwd = [draw(i) for i in range(20)]
    rev = [draw(i) for i in reversed(range(20))]
    assert fwd == rev[::-1]


def test_poisson_mean_and_fano_large_mu():
    # mu = 100 exercises the transformed-rejection branch
    n = 100_000
    s = counting.sample_poisson(100.0, lanes_under(12345, 0, n))
    mean = float(np.mean(s))
    fano = float(np.var(s) / np.mean(s))
    assert abs(mean - 100.0) <= 3.0 * np.sqrt(100.0 / n)
    assert abs(fano - 1.0) <= 3.0 * np.sqrt(2.0 / n)
    assert np.all(s >= 0)


def test_poisson_mean_and_fano_small_mu():
    # mu = 7.5 exercises the CDF-inversion branch
    n = 100_000
    s = counting.sample_poisson(7.5, lanes_under(12345, 1, n))
    mean = float(np.mean(s))
    fano = float(np.var(s) / np.mean(s))
    assert abs(mean - 7.5) <= 3.0 * np.sqrt(7.5 / n)
    assert abs(fano - 1.0) <= 3.0 * np.sqrt(2.0 / n)


def test_poisson_branches_agree_across_cut():
    n = 20_000
    lo = counting.sample_poisson(29.9, lanes_under(99, 0, n))
    hi = counting.sample_poisson(30.1, lanes_under(99, 1, n))
    assert abs(np.mean(lo) - 29.9) <= 3.0 * np.sqrt(29.9 / n)
    assert abs(np.mean(hi) - 30.1) <= 3.0 * np.sqrt(30.1 / n)


def test_poisson_edge_cases():
    rng = counting.rng_from_path(1, (0,))
    assert counting.sample_poisson(0.0, rng).tolist() == [0]
    arr = counting.sample_poisson(5.0, lanes_under(1, 2, 12))
    assert arr.shape == (12,) and arr.dtype == np.int64
    with pytest.raises(DomainError):
        counting.sample_poisson(-1.0, rng)


def test_photon_rate_values():
    assert counting.photon_rate(-98.9, 1550.0) == pytest.approx(1005205.7537527191, rel=1e-12)
    assert counting.photon_rate(-135.0, 1550.0) == pytest.approx(246.74875258346944, rel=1e-12)


def test_photon_rate_scalings():
    # +10 dB is exactly a factor of ten; flux is linear in wavelength at fixed power
    assert counting.photon_rate(-90.0, 1550.0) / counting.photon_rate(-100.0, 1550.0) == \
        pytest.approx(10.0, rel=1e-12)
    assert counting.photon_rate(-100.0, 1550.0) / counting.photon_rate(-100.0, 775.0) == \
        pytest.approx(2.0, rel=1e-12)


def test_detectability_finds_injected_line():
    rng = np.random.default_rng(5)
    lam = 1540.0 + 0.02 * np.arange(1000)
    rate = rng.poisson(60.0, size=lam.size).astype(float)
    line = np.exp(-0.5 * ((lam - 1550.0) / 0.07) ** 2)
    rate_sig = rate + 400.0 * line
    rep = counting.detectability(lam, rate_sig, 1.0, 1550.0, 0.16, background_cps=60.0)
    assert rep.detected and rep.z_score > 5.0
    assert rep.position_error_nm <= 2 * 0.16


def test_detectability_rejects_pure_background():
    rng = np.random.default_rng(6)
    lam = 1540.0 + 0.02 * np.arange(1000)
    rate = rng.poisson(60.0, size=lam.size).astype(float)
    rep = counting.detectability(lam, rate, 1.0, 1550.0, 0.16, background_cps=60.0)
    assert not rep.detected


def test_detectability_validation():
    lam = np.linspace(1540.0, 1560.0, 50)
    with pytest.raises(DomainError):
        counting.detectability(lam, np.ones(49), 1.0, 1550.0, 0.16)
    with pytest.raises(DomainError):
        counting.detectability(lam, np.ones(50), 1.0, 1550.0, 0.0)
    with pytest.raises(DomainError):
        counting.detectability(lam, np.ones(50), 0.0, 1550.0, 0.16)
    bad_axis = lam.copy()
    bad_axis[[10, 11]] = bad_axis[[11, 10]]  # median step still positive
    nan_rates = np.ones(50)
    nan_rates[7] = np.nan
    for args, kwargs in [((bad_axis, np.ones(50), 1.0, 1550.0, 0.16), {}),
                         ((np.append(lam[:-1], np.inf), np.ones(50), 1.0, 1550.0, 0.16), {}),
                         ((lam, nan_rates, 1.0, 1550.0, 0.16), {}),
                         ((lam, np.ones(50), np.nan, 1550.0, 0.16), {}),
                         ((lam, np.ones(50), np.inf, 1550.0, 0.16), {}),
                         ((lam, np.ones(50), 1.0, 1550.0, np.nan), {}),
                         ((lam, np.ones(50), 1.0, 1550.0, np.inf), {}),
                         ((lam, np.ones(50), 1.0, 1550.0, 0.16), {"background_cps": np.nan}),
                         ((lam, np.ones(50), 1.0, 1550.0, 0.16), {"background_cps": -1.0}),
                         ((lam, np.ones(50), 1.0, 1550.0, 0.16), {"background_cps": 0.0})]:
        with pytest.raises(DomainError):
            counting.detectability(*args, **kwargs)
    # a 5-point scan and a resolution window of 7 or 11 points, the line on
    # either end
    short = np.linspace(1549.0, 1551.0, 5)
    line = np.array([1000.0, 1.0, 1.0, 1.0, 1.0])
    for resolution_nm, window in ((3.0, 7), (5.0, 11)):
        for where in (0, 4):
            with pytest.raises(DomainError, match=f"{window} points .* scan's 5 points"):
                counting.detectability(short, np.roll(line, where), 1.0, short[where],
                                       resolution_nm)


def test_detectability_needs_a_background_for_a_dark_scan():
    # 60 cps at 10 ms dwell is 0.6 counts per point: most points read 0, so
    # the median background is 0 and would make every window a line
    rng = np.random.default_rng(7)
    lam = 1540.0 + 0.02 * np.arange(1001)
    rate = rng.poisson(0.6, size=lam.size) / 0.01
    assert np.median(rate) == 0.0
    with pytest.raises(DomainError, match="background_cps"):
        counting.detectability(lam, rate, 0.01, 1550.0, 0.16)
    rep = counting.detectability(lam, rate, 0.01, 1550.0, 0.16, background_cps=60.0)
    assert not rep.detected and rep.z_score < 5.0
