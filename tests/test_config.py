"""Config parsing, validation paths, and the pinned default instrument."""
import copy

import pytest

from upconvspec import config, conversion, dispersion
from upconvspec.errors import ConfigError


def test_default_instrument_values(cfg):
    wg = cfg.waveguide
    assert (wg.length_mm, wg.qpm_period_um, wg.temperature_c) == (52.0, 19.6, 56.0)
    assert wg.dispersion_correction == ()
    assert cfg.anchors == ((1920.0, 1570.9), (1950.0, 1550.0), (1980.0, 1532.9))
    assert cfg.vbg.fwhm_nm == 0.05
    assert cfg.vbg.peak_reflectance == 0.95
    assert cfg.vbg.tuning_range_nm == (850.0, 880.0)
    assert cfg.conversion_points == ((20.0, 0.15), (58.0, 0.286))
    assert cfg.noise_points == ((20.0, 25.0), (58.0, 100.0))
    assert cfg.noise_floor_cps == 0.0
    assert (cfg.scan.pump_start_nm, cfg.scan.pump_stop_nm) == (1920.0, 1980.0)
    assert cfg.scan.pump_step_nm == 0.05
    assert cfg.scan.dwell_s == 1.0
    assert cfg.scan.pump_power_mw == 30.0
    assert cfg.scan.vbg_tracking == "tracked"
    assert cfg.scan.seed == 20240901
    assert cfg.nep_convention == "background_sqrt_d"
    assert cfg.fom_signal_nm == 1550.0
    assert [f.kind for f in cfg.filters] == ["short_pass", "band_pass",
                                             "broadband_loss"]
    assert "Jundt" in cfg.waveguide.medium.name


def test_config_hash_is_stable(cfg):
    assert config.config_hash(cfg) == "e39ceeba231a8ed9"
    assert config.config_hash(config.load_config()) == config.config_hash(cfg)


def _parse_mutated(cfg, mutate):
    raw = copy.deepcopy(cfg.raw)
    mutate(raw)
    return config.parse_config(raw)


@pytest.mark.parametrize("mutate,field_path", [
    (lambda r: r["waveguide"].pop("length_mm"), "waveguide.length_mm"),
    (lambda r: r["filters"][0].update(kind="prism"), "filters[0]"),
    (lambda r: r.update(nep_convention="bogus"), "nep_convention"),
    (lambda r: r["vbg"].update(fwhm_nm=-0.05), "vbg"),
    (lambda r: r["scan"].update(pump_step_nm=0.0), "scan"),
    # the signal grid step is spectrometer.SIGNAL_GRID_STEP_NM, not a config field
    (lambda r: r.update(signal_grid_step_nm=0.02), "signal_grid_step_nm"),
    (lambda r: r.update(apd={"dark_rate_cps": 25.0}), "apd"),
    (lambda r: r["sellmeier"].update(t_ref=24.5), "sellmeier.t_ref"),
    (lambda r: r["waveguide"].update(pigtail_loss_db=0.7), "waveguide.pigtail_loss_db"),
    (lambda r: r["vbg"].update(fwhm=0.05), "vbg.fwhm"),
    (lambda r: r["scan"].update(dwell=1.0), "scan.dwell"),
    (lambda r: r["filters"][1].update(centre_nm=857.0), "filters[1].centre_nm"),
    (lambda r: r["vbg"].update(center_setpoint_nm=863.571), "vbg.center_setpoint_nm"),
    (lambda r: r.update(quoted_usable_span_nm=3.09), "quoted_usable_span_nm"),
    pytest.param(lambda r: r.update(sellmeier=3), "sellmeier", id="sellmeier-not-mapping"),
    pytest.param(lambda r: r.update(waveguide=[52.0]), "waveguide",
                 id="waveguide-not-mapping"),
    pytest.param(lambda r: r.update(vbg="x"), "vbg", id="vbg-not-mapping"),
    pytest.param(lambda r: r.update(scan="fast"), "scan", id="scan-not-mapping"),
    pytest.param(lambda r: r.update(scan=None), "scan", id="scan-empty"),
    pytest.param(lambda r: r["filters"].__setitem__(2, "collection"), "filters[2]",
                 id="filter-not-mapping"),
    pytest.param(lambda r: r["scan"].update(dwell_s=float("nan")), "scan.dwell_s",
                 id="dwell-nan"),
    pytest.param(lambda r: r["scan"].update(pump_start_nm=-float("inf")), "scan.pump_start_nm",
                 id="start-minus-inf"),
    pytest.param(lambda r: r["scan"].update(seed=-5), "scan.seed", id="seed-negative"),
    pytest.param(lambda r: r["scan"].update(seed=1.7), "scan.seed", id="seed-float"),
    pytest.param(lambda r: r["scan"].update(seed=[1]), "scan.seed", id="seed-list"),
    pytest.param(lambda r: r["scan"].update(seed=True), "scan.seed", id="seed-bool"),
    pytest.param(lambda r: r["vbg"].update(tuning_range_nm=5), "vbg.tuning_range_nm",
                 id="tuning-range-not-a-pair"),
    pytest.param(lambda r: r["conversion_points"].__setitem__(0, ["a", 0.1]),
                 "conversion_points[0]", id="conversion-point-not-numeric"),
])
def test_parse_rejections_carry_field_path(cfg, mutate, field_path):
    with pytest.raises(ConfigError) as err:
        _parse_mutated(cfg, mutate)
    assert err.value.field_path == field_path


def _numeric_leaves(node, keys=(), path=""):
    """(keys to the value, field path) for each number in a config document.

    A number in a list of numbers is named by its list (sellmeier.a); a
    list item that is itself a list or mapping is named by its index.
    """
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(node, dict):
            sub = f"{path}.{key}" if path else key
        else:
            sub = f"{path}[{key}]" if isinstance(value, (dict, list)) else path
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, keys + (key,), sub)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield keys + (key,), sub


_LEAVES = list(_numeric_leaves(config.load_config().raw))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("keys,field_path", _LEAVES,
                         ids=[".".join(map(str, keys)) for keys, _ in _LEAVES])
def test_every_numeric_field_must_be_finite(cfg, keys, field_path, value):
    def mutate(raw):
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value

    with pytest.raises(ConfigError) as err:
        _parse_mutated(cfg, mutate)
    assert err.value.field_path == field_path


def test_sellmeier_without_a_name_loads_as_custom(cfg):
    medium = _parse_mutated(cfg, lambda r: r["sellmeier"].pop("name")).waveguide.medium
    assert medium.name == "custom"
    assert medium.a == cfg.waveguide.medium.a and medium.b == cfg.waveguide.medium.b


def test_load_config_from_file(cfg, tmp_path):
    import yaml

    raw = copy.deepcopy(cfg.raw)
    raw["waveguide"]["temperature_c"] = 58.0
    path = tmp_path / "warm.yaml"
    path.write_text(yaml.safe_dump(raw))
    warm = config.load_config(path)
    assert warm.waveguide.temperature_c == 58.0
    assert config.config_hash(warm) != config.config_hash(cfg)


def test_load_config_bad_inputs(tmp_path):
    mangled = tmp_path / "broken.yaml"
    mangled.write_text("waveguide: [unclosed\n  nonsense: {")
    with pytest.raises(ConfigError):
        config.load_config(mangled)
    with pytest.raises(FileNotFoundError):
        config.load_config(tmp_path / "absent.yaml")


def test_pinned_models_match_direct_fits(cfg, models):
    conv, noise = models
    conv2, _ = conversion.fit_conversion(cfg.conversion_points)
    noise2, _ = conversion.fit_noise(cfg.noise_points, cfg.noise_floor_cps)
    assert conv2.eta_max == pytest.approx(conv.eta_max, rel=1e-12)
    assert conv2.u_per_sqrt_mw == pytest.approx(conv.u_per_sqrt_mw, rel=1e-12)
    assert noise2.floor_cps == noise.floor_cps
    assert noise2.amplitude_cps == pytest.approx(noise.amplitude_cps, rel=1e-12)
    assert noise2.exponent == pytest.approx(noise.exponent, rel=1e-12)


@pytest.mark.parametrize("mutate,field_path", [
    (lambda r: r.update(conversion_points=[[20.0, 0.15], [40.0, 0.05], [58.0, 0.286]]),
     "conversion_points"),
    (lambda r: r.update(noise_points=[[20.0, 25.0], [40.0, 200.0], [58.0, 100.0]],
                        noise_floor_cps=0.0), "noise_points"),
])
def test_pinned_models_reject_degenerate_fits(cfg, mutate, field_path):
    with pytest.raises(ConfigError) as err:
        config.pinned_models(_parse_mutated(cfg, mutate))
    assert err.value.field_path == field_path


def test_pinned_models_accept_a_consistent_three_point_fit(cfg):
    three = _parse_mutated(cfg, lambda r: r.update(
        conversion_points=[[20.0, 0.15], [40.0, 0.24], [58.0, 0.286]]))
    conv, _ = config.pinned_models(three)
    assert conv.efficiency(40.0) == pytest.approx(0.24, abs=0.002)



@pytest.mark.parametrize("mutate,field_path", [
    (lambda r: r["tuning_anchors"][1].__setitem__(1, -1550.0), "tuning_anchors"),
    (lambda r: r["tuning_anchors"][1].__setitem__(1, 155000.0), "tuning_anchors"),
    (lambda r: r["tuning_anchors"][1].__setitem__(0, 975.0), "tuning_anchors"),
    (lambda r: r["tuning_anchors"].__setitem__(2, [1980.0, 1550.0]), "tuning_anchors"),
    (lambda r: r.update(fom_signal_nm=-1550.0), "fom_signal_nm"),
    (lambda r: r.update(fom_signal_nm=0.0), "fom_signal_nm"),
], ids=["signal-negative", "signal-155000", "pump-975", "duplicate-signal", "fom-negative",
        "fom-zero"])
def test_anchors_and_the_fom_signal_are_checked_at_load(cfg, mutate, field_path):
    with pytest.raises(ConfigError) as err:
        _parse_mutated(cfg, mutate)
    assert err.value.field_path == field_path


@pytest.mark.parametrize("mutate,field_path", [
    (lambda r: r["conversion_points"][1].__setitem__(0, 116.0), "conversion_points"),
    (lambda r: r["conversion_points"][0].__setitem__(1, 1.5), "conversion_points"),
    (lambda r: r["noise_points"][0].__setitem__(0, -20.0), "noise_points"),
], ids=["conversion-116-mW", "efficiency-1.5", "noise-minus-20-mW"])
def test_pinned_models_turn_a_failed_fit_into_a_config_error(cfg, mutate, field_path):
    with pytest.raises(ConfigError) as err:
        config.pinned_models(_parse_mutated(cfg, mutate))
    assert err.value.field_path == field_path


def test_the_tuning_map_is_calibrated_once_per_config(cfg, monkeypatch):
    # load_config fits the anchors; calibrated_waveguide hands that fit back
    fitted = dispersion.calibrate_operating_point(cfg.waveguide, cfg.anchors)
    assert config.calibrated_waveguide(cfg) == fitted

    def again(*args):
        raise AssertionError("calibrated a second time")

    monkeypatch.setattr(config, "calibrate_operating_point", again)
    assert config.calibrated_waveguide(cfg) is config.calibrated_waveguide(cfg)
