"""Experiment configuration: one YAML file drives every command.

The bundled defaults reproduce the published operating point of the
instrument with zero flags; any field can be overridden by pointing the CLI
at an edited copy.  Validation happens entirely at load time and reports
the offending field by dotted path, so a bad config never dies mid-run.
A field the schema does not define is an error too: a misspelt or retired
setting is never silently ignored.
"""
from dataclasses import dataclass, field
import hashlib
import importlib.resources
import json

import yaml

from .components import FilterElement, VbgState
from .conversion import fit_conversion, fit_noise
from .counting import validate_seed
from .dispersion import SellmeierMedium, WaveguideSpec, calibrate_operating_point
from .errors import ConfigError, DomainError
from .fom import CONVENTIONS
from .spectrometer import ScanPlan

DEFAULTS_RESOURCE = "defaults.yaml"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration tree plus the raw dict it came from."""

    sellmeier: SellmeierMedium
    waveguide: WaveguideSpec          # uncalibrated (no correction applied yet)
    anchors: tuple                    # ((pump_nm, signal_nm), ...)
    filters: tuple                    # fixed chain, VBG excluded
    vbg: VbgState
    conversion_points: tuple
    noise_points: tuple
    noise_floor_cps: float
    scan: ScanPlan
    nep_convention: str
    fom_signal_nm: float
    raw: dict = field(repr=False, default_factory=dict)


def _need(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError(path, "expected a mapping")
    return value


def _known(mapping, keys, path):
    """Reject a field the schema does not define, naming it by dotted path."""
    for key in mapping:
        if key not in keys:
            raise ConfigError(f"{path}.{key}" if path else str(key), "unknown field")


def _num(mapping, key, path, default=None):
    if default is not None and key not in mapping:
        return float(default)
    v = _need(mapping, key, path)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {v!r}")
    return float(v)


def _pairs(raw, path, n_min=1):
    if not isinstance(raw, list) or len(raw) < n_min:
        raise ConfigError(path, f"expected a list of at least {n_min} [x, y] pairs")
    out = []
    for i, item in enumerate(raw):
        if (not isinstance(item, list)) or len(item) != 2:
            raise ConfigError(f"{path}[{i}]", "expected a two-element [x, y] pair")
        try:
            out.append((float(item[0]), float(item[1])))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}[{i}]", f"expected two numbers, got {item!r}") from exc
    return tuple(out)


def _build_filter(raw, path):
    _known(_mapping(raw, path), ("kind", "center_nm", "edge_nm", "fwhm_nm", "peak",
                                 "edge_width_nm", "lineshape", "label"), path)
    kind = _need(raw, "kind", path)
    try:
        return FilterElement(
            kind=str(kind),
            center_nm=_num(raw, "center_nm", path, default=0.0) if "center_nm" in raw else 0.0,
            edge_nm=_num(raw, "edge_nm", path, default=0.0) if "edge_nm" in raw else 0.0,
            fwhm_nm=_num(raw, "fwhm_nm", path, default=0.0) if "fwhm_nm" in raw else 0.0,
            peak=_num(raw, "peak", path, default=1.0),
            edge_width_nm=_num(raw, "edge_width_nm", path, default=1.0),
            lineshape=str(raw.get("lineshape", "gaussian")),
            label=str(raw.get("label", "")),
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def parse_config(doc):
    """Validate a parsed YAML mapping into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be a mapping")
    _known(doc, ("sellmeier", "waveguide", "tuning_anchors", "filters", "vbg",
                 "conversion_points", "noise_points", "noise_floor_cps", "scan",
                 "nep_convention", "fom_signal_nm"), "")

    s = _mapping(_need(doc, "sellmeier", ""), "sellmeier")
    _known(s, ("name", "a", "b", "t_ref_c", "t_offset_c"), "sellmeier")
    try:
        medium = SellmeierMedium(
            name=str(s.get("name", "custom")),
            a=tuple(float(v) for v in _need(s, "a", "sellmeier")),
            b=tuple(float(v) for v in _need(s, "b", "sellmeier")),
            t_ref_c=_num(s, "t_ref_c", "sellmeier", default=24.5),
            t_offset_c=_num(s, "t_offset_c", "sellmeier", default=570.82),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError("sellmeier", str(exc)) from exc

    w = _mapping(_need(doc, "waveguide", ""), "waveguide")
    _known(w, ("length_mm", "qpm_period_um", "temperature_c"), "waveguide")
    try:
        wg = WaveguideSpec(
            length_mm=_num(w, "length_mm", "waveguide"),
            qpm_period_um=_num(w, "qpm_period_um", "waveguide"),
            temperature_c=_num(w, "temperature_c", "waveguide"),
            medium=medium,
        )
    except ValueError as exc:
        raise ConfigError("waveguide", str(exc)) from exc

    anchors_raw = _pairs(_need(doc, "tuning_anchors", ""), "tuning_anchors")

    filters_raw = doc.get("filters", [])
    if not isinstance(filters_raw, list):
        raise ConfigError("filters", "expected a list of filter mappings")
    filters = tuple(_build_filter(f, f"filters[{i}]") for i, f in enumerate(filters_raw))

    v = _mapping(_need(doc, "vbg", ""), "vbg")
    _known(v, ("fwhm_nm", "peak_reflectance", "tuning_range_nm", "lineshape"), "vbg")
    tuning_raw = v.get("tuning_range_nm", [850.0, 880.0])
    try:
        tuning_range = tuple(float(x) for x in tuning_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError("vbg.tuning_range_nm",
                          f"expected a [low, high] pair of numbers, got {tuning_raw!r}") from exc
    try:
        vbg = VbgState(
            fwhm_nm=_num(v, "fwhm_nm", "vbg", default=0.05),
            peak_reflectance=_num(v, "peak_reflectance", "vbg", default=0.95),
            tuning_range_nm=tuning_range,
            lineshape=str(v.get("lineshape", "gaussian")),
        )
    except ValueError as exc:
        raise ConfigError("vbg", str(exc)) from exc

    conv_pts = _pairs(_need(doc, "conversion_points", ""), "conversion_points", n_min=2)
    noise_pts = _pairs(_need(doc, "noise_points", ""), "noise_points", n_min=2)
    noise_floor = _num(doc, "noise_floor_cps", "", default=0.0)
    if noise_floor < 0:
        raise ConfigError("noise_floor_cps", "must be nonnegative")

    sc = _mapping(doc.get("scan", {}), "scan")
    _known(sc, ("pump_start_nm", "pump_stop_nm", "pump_step_nm", "dwell_s",
                "pump_power_mw", "vbg_tracking", "seed"), "scan")
    try:
        seed = validate_seed(sc.get("seed", 20240901))
    except DomainError as exc:
        raise ConfigError("scan.seed", str(exc)) from exc
    try:
        scan = ScanPlan(
            pump_start_nm=_num(sc, "pump_start_nm", "scan", default=1920.0),
            pump_stop_nm=_num(sc, "pump_stop_nm", "scan", default=1980.0),
            pump_step_nm=_num(sc, "pump_step_nm", "scan", default=0.05),
            dwell_s=_num(sc, "dwell_s", "scan", default=1.0),
            pump_power_mw=_num(sc, "pump_power_mw", "scan", default=30.0),
            vbg_tracking=str(sc.get("vbg_tracking", "tracked")),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError("scan", str(exc)) from exc

    convention = str(doc.get("nep_convention", "background_sqrt_d"))
    if convention not in CONVENTIONS:
        raise ConfigError("nep_convention", f"must be one of {CONVENTIONS}")

    return ExperimentConfig(
        sellmeier=medium, waveguide=wg, anchors=anchors_raw, filters=filters,
        vbg=vbg, conversion_points=conv_pts, noise_points=noise_pts,
        noise_floor_cps=noise_floor, scan=scan, nep_convention=convention,
        fom_signal_nm=_num(doc, "fom_signal_nm", "", default=1550.0),
        raw=doc,
    )


def load_config(path=None):
    """Config from a YAML file path, or the bundled defaults when None."""
    if path is None:
        text = (importlib.resources.files("upconvspec") / "data" /
                DEFAULTS_RESOURCE).read_text()
    else:
        with open(path, "r") as fh:
            text = fh.read()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("", f"not valid YAML: {exc}") from exc
    return parse_config(doc)


def config_hash(cfg):
    """Stable short hash of the raw config document, for output headers."""
    canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def calibrated_waveguide(cfg, anchors=None):
    """The config's waveguide with its tuning-map correction fitted in."""
    return calibrate_operating_point(cfg.waveguide, anchors or cfg.anchors)


def pinned_models(cfg):
    """(ConversionModel, NoiseModel) pinned from the config's points.

    A degenerate fit over three or more points is a ConfigError, never used.
    """
    conv, conv_fit = fit_conversion(cfg.conversion_points)
    noise, noise_fit = fit_noise(cfg.noise_points, cfg.noise_floor_cps)
    for path, fit in (("conversion_points", conv_fit), ("noise_points", noise_fit)):
        if fit.degenerate:
            raise ConfigError(path, fit.note)
    return conv, noise
