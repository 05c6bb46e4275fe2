"""CSV formats for spectra, kernels, and scans.

All files are plain CSV with '#'-prefixed comment headers carrying the
provenance a reader needs to reproduce the run (config hash, a scan's plan).
Floats are written with repr so write-then-read round-trips bit-exactly.
"""
from dataclasses import fields

import numpy as np

from .errors import DomainError
from .spectra import Spectrum
from .spectrometer import ResponseKernel, ScanPlan, ScanResult

_SPECTRUM_COLUMNS = "wavelength_nm,power_w_per_nm"


def _write_meta(fh, meta):
    for key, value in (meta or {}).items():
        if isinstance(value, (list, tuple, np.ndarray)):
            value = " ".join(repr(float(v)) for v in np.asarray(value).ravel())
        fh.write(f"# {key}: {value}\n")


def _read_lines(path):
    meta = {}
    rows = []
    with open(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, value = body.split(":", 1)
                    meta[key.strip()] = value.strip()
                continue
            rows.append(line)
    if not rows:
        raise DomainError(f"{path}: no data rows")
    return meta, rows


def _parse_rows(rows, path):
    try:
        return np.array([[float(v) for v in r.split(",")] for r in rows])
    except ValueError as exc:
        raise DomainError(f"{path}: non-numeric data row ({exc})") from exc


def write_spectrum_csv(path, spectrum, meta=None):
    with open(path, "w") as fh:
        _write_meta(fh, meta)
        fh.write(_SPECTRUM_COLUMNS + "\n")
        for x, y in zip(spectrum.grid_nm, spectrum.values):
            fh.write(f"{float(x)!r},{float(y)!r}\n")


def read_spectrum_csv(path):
    """-> (Spectrum, meta dict).  The columns must be wavelength_nm,power_w_per_nm."""
    meta, rows = _read_lines(path)
    if rows[0] != _SPECTRUM_COLUMNS:
        raise DomainError(f"{path}: expected header {_SPECTRUM_COLUMNS}")
    data = _parse_rows(rows[1:], path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise DomainError(f"{path}: malformed data rows")
    return Spectrum(grid_nm=data[:, 0], values=data[:, 1]), meta


def _header(meta, key, path, parse=str):
    """A required '# key:' header, parsed; DomainError naming it otherwise."""
    if key not in meta:
        raise DomainError(f"{path}: missing '# {key}:' header")
    try:
        return parse(meta[key])
    except ValueError as exc:
        raise DomainError(f"{path}: malformed '# {key}:' header ({exc})") from exc


def _floats(text):
    return np.array([float(v) for v in text.split()])


_BAND_COLUMNS = "pump_nm,band_start,band_values"


def write_kernel_csv(path, kernel, meta=None):
    """Band format: one row per pump point, its first band column and W values.

    The signal grid and the per-point arrays go in the header; a row reads
    pump_nm, band_start, then the W entries at columns band_start ...
    band_start + W - 1 of the signal grid.
    """
    full_meta = {"format": "band"}  # the first header line; meta cannot override it
    full_meta.update(meta or {})
    full_meta.update({
        "format": "band",
        "pump_power_mw": repr(float(kernel.pump_power_mw)),
        "efficiency": repr(float(kernel.efficiency)),
        "vbg_tracking": kernel.vbg_tracking,
        "signal_grid_nm": kernel.signal_grid_nm,
        "mapped_signal_nm": kernel.mapped_signal_nm,
        "vbg_centers_nm": kernel.vbg_centers_nm,
    })
    with open(path, "w") as fh:
        _write_meta(fh, full_meta)
        fh.write(_BAND_COLUMNS + "\n")
        for p, start, row in zip(kernel.pump_grid_nm.tolist(), kernel.band_start.tolist(),
                                 kernel.band_values.tolist()):
            fh.write(f"{p!r},{start}," + ",".join(map(repr, row)) + "\n")


def read_kernel_csv(path):
    """-> (ResponseKernel, meta dict).  Only the band format is read."""
    meta, rows = _read_lines(path)
    if meta.get("format") != "band":
        raise DomainError(
            f"{path}: not a band-format kernel file (dense kernel CSVs are no "
            "longer read); rebuild the kernel, e.g. with scan --write-kernel"
        )
    if rows[0] != _BAND_COLUMNS:
        raise DomainError(f"{path}: expected header {_BAND_COLUMNS}")
    block = _parse_rows(rows[1:], path)
    if block.ndim != 2 or block.shape[1] < 3:
        raise DomainError(f"{path}: kernel block is ragged or has no band values")
    signal = _header(meta, "signal_grid_nm", path, _floats)
    mapped = _header(meta, "mapped_signal_nm", path, _floats)
    centers = _header(meta, "vbg_centers_nm", path, _floats)
    if not (np.all(np.isfinite(signal)) and np.all(signal[1:] > signal[:-1])):
        raise DomainError(f"{path}: signal_grid_nm must be finite and strictly ascending")
    for key, arr in (("mapped_signal_nm", mapped), ("vbg_centers_nm", centers)):
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{path}: {key} must be finite")
    pump = block[:, 0]
    start = block[:, 1]
    values = block[:, 2:]
    if mapped.size != pump.size or centers.size != pump.size:
        raise DomainError(f"{path}: per-point header lengths do not match the pump grid")
    width = values.shape[1]
    if (np.any(start != np.floor(start)) or np.any(start < 0)
            or np.any(start > signal.size - width)):
        raise DomainError(
            f"{path}: band_start must be whole column numbers in [0, {signal.size - width}]"
        )
    if not np.all(np.isfinite(values) & (values >= 0.0)):
        raise DomainError(f"{path}: band_values must be finite and nonnegative")
    tracking = _header(meta, "vbg_tracking", path)
    if tracking not in ("tracked", "fixed"):
        raise DomainError(f"{path}: vbg_tracking must be tracked|fixed, got {tracking!r}")
    power = _header(meta, "pump_power_mw", path, float)
    if not 0.0 < power < np.inf:
        raise DomainError(f"{path}: pump_power_mw must be finite and positive, got {power!r}")
    efficiency = _header(meta, "efficiency", path, float)
    if not 0.0 < efficiency <= 1.0:
        raise DomainError(f"{path}: efficiency must be in (0, 1], got {efficiency!r}")
    kernel = ResponseKernel(
        pump_grid_nm=pump, signal_grid_nm=signal,
        band_start=start.astype(np.int64), band_values=values,
        mapped_signal_nm=mapped, vbg_centers_nm=centers,
        pump_power_mw=power, efficiency=efficiency, vbg_tracking=tracking,
    )
    return kernel, meta


_SCAN_COLUMNS = "pump_nm,signal_nm_mapped,expected_rate_cps,counts,dwell_s"


def write_scan_csv(path, result, meta=None):
    """Headers: the plan's seven fields, noise rate, sampled flag, VBG setpoints."""
    plan = result.plan
    full_meta = dict(meta or {})
    for field in fields(ScanPlan):
        value = getattr(plan, field.name)
        full_meta[field.name] = repr(float(value)) if field.type is float else str(value)
    full_meta.update({
        "noise_rate_cps": repr(float(result.noise_rate_cps)),
        "sampled": "true" if result.sampled else "false",
        "vbg_centers_nm": result.vbg_centers_nm,
    })
    dwell = repr(float(plan.dwell_s))
    with open(path, "w") as fh:
        _write_meta(fh, full_meta)
        fh.write(_SCAN_COLUMNS + "\n")
        for p, s, r, c in zip(plan.pump_grid_nm(), result.signal_nm_mapped,
                              result.expected_rate_cps, result.sampled_counts):
            fh.write(f"{float(p)!r},{float(s)!r},{float(r)!r},{int(c)},{dwell}\n")


def read_scan_csv(path):
    """-> (ScanResult, meta dict).  ScanPlan validates the plan headers, and
    the pump_nm column must be the plan's pump grid bit for bit."""
    meta, rows = _read_lines(path)
    if rows[0] != _SCAN_COLUMNS:
        raise DomainError(f"{path}: expected header {_SCAN_COLUMNS}")
    data = _parse_rows(rows[1:], path)
    if data.ndim != 2 or data.shape[1] != 5:
        raise DomainError(f"{path}: malformed data rows")
    values = {f.name: _header(meta, f.name, path, f.type) for f in fields(ScanPlan)}
    try:
        plan = ScanPlan(**values)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    if np.any(data[:, 4] != plan.dwell_s):
        raise DomainError(f"{path}: dwell_s column differs from the "
                          f"'# dwell_s: {meta['dwell_s']}' header")
    if not np.array_equal(data[:, 0], plan.pump_grid_nm()):
        raise DomainError(f"{path}: pump_nm column is not the pump grid of its "
                          "pump_start_nm, pump_stop_nm and pump_step_nm headers")
    mapped, rates, counts = data[:, 1], data[:, 2], data[:, 3]
    if not np.all(np.isfinite(mapped)):
        raise DomainError(f"{path}: signal_nm_mapped column must be finite")
    if not np.all(np.isfinite(rates) & (rates >= 0.0)):
        raise DomainError(f"{path}: expected_rate_cps column must be finite and nonnegative")
    # 2**53: the largest count the float64 column holds exactly
    if not np.all((counts >= 0.0) & (counts <= 2.0**53) & (counts == np.floor(counts))):
        raise DomainError(f"{path}: counts column must hold whole numbers in [0, 2**53]")
    sampled = meta.get("sampled")
    if sampled not in ("true", "false"):
        raise DomainError(f"{path}: missing or malformed '# sampled: true|false' header")
    centers = _header(meta, "vbg_centers_nm", path, _floats)
    if centers.size != data.shape[0]:
        raise DomainError(f"{path}: vbg_centers_nm has {centers.size} values for "
                          f"{data.shape[0]} scan points")
    result = ScanResult(
        plan=plan,
        signal_nm_mapped=mapped,
        expected_rate_cps=rates,
        sampled_counts=counts.astype(np.int64),
        vbg_centers_nm=centers,
        noise_rate_cps=_header(meta, "noise_rate_cps", path, float),
        sampled=sampled == "true",
    )
    return result, meta
