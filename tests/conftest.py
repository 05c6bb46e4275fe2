"""Shared fixtures: one config load and one kernel build per session.

The default kernel is the expensive object (1201 x 1026); building it once
keeps the whole suite comfortably inside the runtime budget.
"""
import os
from dataclasses import replace

import pytest
from hypothesis import settings

from upconvspec import config as config_mod
from upconvspec import dispersion, spectrometer

# On CI (the CI variable is set, as GitHub Actions does) property tests run
# derandomized and without a deadline: reproducible, and no timing flakes on
# slow runners.  Local runs keep Hypothesis's default profile.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def cfg():
    return config_mod.load_config()


@pytest.fixture(scope="session")
def wg3(cfg):
    """Instrument waveguide with the full three-anchor tuning correction."""
    return config_mod.calibrated_waveguide(cfg)


@pytest.fixture(scope="session")
def wg1(cfg):
    """Single-anchor variant: bulk dispersion slope, constant index offset."""
    return dispersion.calibrate_operating_point(cfg.waveguide, [cfg.anchors[1]])


@pytest.fixture(scope="session")
def models(cfg):
    return config_mod.pinned_models(cfg)


@pytest.fixture(scope="session")
def kernel(cfg, wg3, models):
    conv, _ = models
    return spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, cfg.scan)


@pytest.fixture(scope="session")
def small_plan(cfg):
    # 12 nm pump window, 121 points: enough structure, fast to invert
    return replace(cfg.scan, pump_start_nm=1944.0, pump_stop_nm=1956.0,
                   pump_step_nm=0.1, seed=7)


@pytest.fixture(scope="session")
def small_kernel(cfg, wg3, models, small_plan):
    conv, _ = models
    return spectrometer.build_kernel(wg3, cfg.filters, cfg.vbg, conv, small_plan)
