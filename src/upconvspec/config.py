"""Experiment configuration: one YAML file drives every command.

The bundled defaults reproduce the published operating point of the
instrument with zero flags; any field can be overridden by pointing the CLI
at an edited copy.  Validation happens entirely at load time and reports
the offending field by dotted path, so a bad config never dies mid-run.
The tuning map is calibrated from the anchors then, once per process
(calibrated_waveguide reads the result); the calibration points are fitted
when a command pins its models (pinned_models), and a fit that fails there
is a ConfigError naming its points.
The dataclasses are the schema: a section's keys are its dataclass's
fields, its defaults are the dataclass defaults, and each value is coerced
by its field's type.  A field the schema does not define is an error, so a
misspelt or retired setting is never silently ignored, and every number in
the file must be finite.
"""
from dataclasses import MISSING, dataclass, field, fields
import hashlib
import importlib.resources
import json
import math

import yaml

from .components import FilterElement, VbgState
from .conversion import fit_conversion, fit_noise
from .counting import validate_seed
from .dispersion import SellmeierMedium, WaveguideSpec, calibrate_operating_point
from .errors import CalibrationError, ConfigError, DomainError, FitError
from .fom import CONVENTIONS
from .spectrometer import ScanPlan

DEFAULTS_RESOURCE = "defaults.yaml"

# libyaml's C parser where PyYAML was built with it, feeding the same safe
# constructor: the same documents, parsed about five times faster; text that
# is not YAML is a YAMLError through either, worded by its parser
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

# Dataclass fields a config cannot set: the medium's validity window, the
# fitted tuning correction, and the waveguide's medium (the sellmeier section).
_NOT_CONFIGURABLE = ("valid_um", "valid_temp_c", "dispersion_correction", "medium")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration tree plus the raw dict it came from."""

    waveguide: WaveguideSpec          # uncalibrated (no correction applied yet)
    anchors: tuple                    # ((pump_nm, signal_nm), ...)
    calibrated: WaveguideSpec         # waveguide with the anchors' correction fitted in
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


def _value(value, kind, path):
    """A config value as a field of type `kind`; numbers finite, never bool."""
    if kind is str:
        return str(value)
    if kind is int:  # the one int field is a scan seed
        try:
            return validate_seed(value)
        except DomainError as exc:
            raise ConfigError(path, str(exc)) from exc
    if kind is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"expected a list of numbers, got {value!r}")
        return tuple(_value(v, float, path) for v in value)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _section(cls, raw, path, required=(), **given):
    """Dataclass `cls` built from config mapping `raw`; its fields are the schema.

    A field missing from `raw` takes the dataclass default unless it has none
    or is `required`; `given` supplies fields the config cannot set.  A
    ValueError from the dataclass's own checks is a ConfigError on `path`.
    """
    schema = {f.name: f for f in fields(cls) if f.name not in _NOT_CONFIGURABLE}
    _known(_mapping(raw, path), schema, path)
    for name, f in schema.items():
        if f.default is MISSING or name in required:
            _need(raw, name, path)
    values = {k: _value(v, schema[k].type, f"{path}.{k}") for k, v in raw.items()}
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _pairs(raw, path, n_min=1):
    if not isinstance(raw, list) or len(raw) < n_min:
        raise ConfigError(path, f"expected a list of at least {n_min} [x, y] pairs")
    out = tuple(_value(item, tuple, f"{path}[{i}]") for i, item in enumerate(raw))
    for i, pair in enumerate(out):
        if len(pair) != 2:
            raise ConfigError(f"{path}[{i}]", "expected a two-element [x, y] pair")
    return out


def parse_config(doc):
    """Validate a parsed YAML mapping into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be a mapping")
    _known(doc, ("sellmeier", "waveguide", "tuning_anchors", "filters", "vbg",
                 "conversion_points", "noise_points", "noise_floor_cps", "scan",
                 "nep_convention", "fom_signal_nm"), "")

    medium = _section(SellmeierMedium, _need(doc, "sellmeier", ""), "sellmeier")
    wg = _section(WaveguideSpec, _need(doc, "waveguide", ""), "waveguide",
                  required=("length_mm", "qpm_period_um", "temperature_c"),
                  medium=medium)
    anchors = _pairs(_need(doc, "tuning_anchors", ""), "tuning_anchors")
    try:
        calibrated = calibrate_operating_point(wg, anchors)
    except (CalibrationError, DomainError) as exc:
        raise ConfigError("tuning_anchors", str(exc)) from exc

    filters_raw = doc.get("filters", [])
    if not isinstance(filters_raw, list):
        raise ConfigError("filters", "expected a list of filter mappings")
    filters = tuple(_section(FilterElement, f, f"filters[{i}]")
                    for i, f in enumerate(filters_raw))
    vbg = _section(VbgState, _need(doc, "vbg", ""), "vbg")

    conv_pts = _pairs(_need(doc, "conversion_points", ""), "conversion_points", n_min=2)
    noise_pts = _pairs(_need(doc, "noise_points", ""), "noise_points", n_min=2)
    noise_floor = _value(doc.get("noise_floor_cps", 0.0), float, "noise_floor_cps")
    if noise_floor < 0:
        raise ConfigError("noise_floor_cps", "must be nonnegative")

    scan = _section(ScanPlan, doc.get("scan", {}), "scan")

    convention = str(doc.get("nep_convention", "background_sqrt_d"))
    if convention not in CONVENTIONS:
        raise ConfigError("nep_convention", f"must be one of {CONVENTIONS}")
    fom_signal = _value(doc.get("fom_signal_nm", 1550.0), float, "fom_signal_nm")
    if fom_signal <= 0:
        raise ConfigError("fom_signal_nm", f"must be a positive wavelength, got {fom_signal}")

    return ExperimentConfig(
        waveguide=wg, anchors=anchors, calibrated=calibrated, filters=filters, vbg=vbg,
        conversion_points=conv_pts, noise_points=noise_pts,
        noise_floor_cps=noise_floor, scan=scan, nep_convention=convention,
        fom_signal_nm=fom_signal, raw=doc,
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
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError("", f"not valid YAML: {exc}") from exc
    return parse_config(doc)


def config_hash(cfg):
    """Stable short hash of the raw config document, for output headers."""
    canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def calibrated_waveguide(cfg):
    """The config's waveguide with its tuning-map correction fitted in, as
    fitted once when the config was parsed."""
    return cfg.calibrated


def _fitted(path, fit, *args):
    """The model fit(*args) pins; a fit that fails or is degenerate is a
    ConfigError on path, never used."""
    try:
        model, report = fit(*args)
    except (FitError, DomainError) as exc:
        raise ConfigError(path, str(exc)) from exc
    if report.degenerate:
        raise ConfigError(path, report.note)
    return model


def pinned_models(cfg):
    """(ConversionModel, NoiseModel) pinned from the config's points.

    A fit that fails, or a degenerate fit over three or more points, is a
    ConfigError naming its points.
    """
    return (_fitted("conversion_points", fit_conversion, cfg.conversion_points),
            _fitted("noise_points", fit_noise, cfg.noise_points, cfg.noise_floor_cps))
