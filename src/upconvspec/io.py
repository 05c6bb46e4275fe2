"""CSV formats for spectra, kernels, and scans.

All files are plain CSV with '#'-prefixed comment headers carrying the
provenance a reader needs to reproduce the run (config hash, seed, dwell).
Floats are written with repr so write-then-read round-trips bit-exactly.
"""
import numpy as np

from .errors import DomainError
from .spectra import Spectrum
from .spectrometer import ResponseKernel, ScanResult

_UNIT_COLUMNS = {
    "w_per_nm": "power_w_per_nm",
    "counts_per_s": "rate_counts_per_s",
    "photons_per_s_per_nm": "flux_photons_per_s_per_nm",
    "dimensionless": "value",
}
_COLUMN_UNITS = {v: k for k, v in _UNIT_COLUMNS.items()}


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
    col = _UNIT_COLUMNS[spectrum.unit]
    with open(path, "w") as fh:
        _write_meta(fh, meta)
        fh.write(f"wavelength_nm,{col}\n")
        for x, y in zip(spectrum.grid_nm, spectrum.values):
            fh.write(f"{float(x)!r},{float(y)!r}\n")


def read_spectrum_csv(path):
    """-> (Spectrum, meta dict).  Unit recovered from the value column name."""
    meta, rows = _read_lines(path)
    header = rows[0].split(",")
    if len(header) != 2 or header[0] != "wavelength_nm":
        raise DomainError(f"{path}: expected header 'wavelength_nm,<value column>'")
    unit = _COLUMN_UNITS.get(header[1])
    if unit is None:
        raise DomainError(f"{path}: unknown value column {header[1]!r}")
    data = _parse_rows(rows[1:], path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise DomainError(f"{path}: malformed data rows")
    return Spectrum(grid_nm=data[:, 0], values=data[:, 1], unit=unit), meta


def write_kernel_csv(path, kernel, meta=None):
    """First data row = signal grid, first column = pump grid."""
    full_meta = dict(meta or {})
    full_meta.update({
        "pump_power_mw": repr(float(kernel.pump_power_mw)),
        "efficiency": repr(float(kernel.efficiency)),
        "vbg_tracking": kernel.vbg_tracking,
        "mapped_signal_nm": kernel.mapped_signal_nm,
        "vbg_centers_nm": kernel.vbg_centers_nm,
    })
    with open(path, "w") as fh:
        _write_meta(fh, full_meta)
        fh.write("pump_nm\\signal_nm," +
                 ",".join(repr(float(v)) for v in kernel.signal_grid_nm) + "\n")
        for p, row in zip(kernel.pump_grid_nm, kernel.matrix):
            fh.write(repr(float(p)) + "," +
                     ",".join(repr(float(v)) for v in row) + "\n")


def read_kernel_csv(path):
    """-> (ResponseKernel, meta dict)."""
    meta, rows = _read_lines(path)
    header = rows[0].split(",")
    try:
        signal = np.array([float(v) for v in header[1:]])
    except ValueError as exc:
        raise DomainError(f"{path}: non-numeric signal grid ({exc})") from exc
    block = _parse_rows(rows[1:], path)
    if block.ndim != 2 or block.shape[1] != signal.size + 1:
        raise DomainError(f"{path}: kernel block is ragged")
    pump = block[:, 0]
    matrix = block[:, 1:]
    for key in ("mapped_signal_nm", "vbg_centers_nm"):
        if key not in meta:
            raise DomainError(f"{path}: missing '# {key}:' header")
    mapped = np.array([float(v) for v in meta["mapped_signal_nm"].split()])
    centers = np.array([float(v) for v in meta["vbg_centers_nm"].split()])
    if mapped.size != pump.size or centers.size != pump.size:
        raise DomainError(f"{path}: per-point header lengths do not match the pump grid")
    kernel = ResponseKernel(
        pump_grid_nm=pump, signal_grid_nm=signal, matrix=matrix,
        mapped_signal_nm=mapped, vbg_centers_nm=centers,
        pump_power_mw=float(meta.get("pump_power_mw", "0") or 0.0),
        efficiency=float(meta.get("efficiency", "0") or 0.0),
        vbg_tracking=meta.get("vbg_tracking", "tracked"),
    )
    return kernel, meta


def write_scan_csv(path, result, meta=None):
    full_meta = dict(meta or {})
    full_meta.update({
        "seed": str(result.seed),
        "dwell_s": repr(float(result.dwell_s)),
        "pump_power_mw": repr(float(result.pump_power_mw)),
        "noise_rate_cps": repr(float(result.noise_rate_cps)),
        "sampled": "true" if result.sampled else "false",
        "vbg_centers_nm": result.vbg_centers_nm,
    })
    with open(path, "w") as fh:
        _write_meta(fh, full_meta)
        fh.write("pump_nm,signal_nm_mapped,expected_rate_cps,counts,dwell_s\n")
        for p, s, r, c in zip(result.pump_grid_nm, result.signal_nm_mapped,
                              result.expected_rate_cps, result.sampled_counts):
            fh.write(f"{float(p)!r},{float(s)!r},{float(r)!r},"
                     f"{int(c)},{float(result.dwell_s)!r}\n")


def read_scan_csv(path):
    """-> (ScanResult, meta dict)."""
    meta, rows = _read_lines(path)
    header = rows[0].split(",")
    expect = ["pump_nm", "signal_nm_mapped", "expected_rate_cps", "counts", "dwell_s"]
    if header != expect:
        raise DomainError(f"{path}: expected header {','.join(expect)}")
    data = _parse_rows(rows[1:], path)
    if data.ndim != 2 or data.shape[1] != 5:
        raise DomainError(f"{path}: malformed data rows")
    dwell = float(data[0, 4])
    sampled = meta.get("sampled")
    if sampled not in ("true", "false"):
        raise DomainError(f"{path}: missing or malformed '# sampled: true|false' header")
    if "vbg_centers_nm" in meta:
        centers = np.array([float(v) for v in meta["vbg_centers_nm"].split()])
    else:
        centers = np.zeros(data.shape[0])
    result = ScanResult(
        pump_grid_nm=data[:, 0],
        signal_nm_mapped=data[:, 1],
        expected_rate_cps=data[:, 2],
        sampled_counts=data[:, 3].astype(np.int64),
        dwell_s=dwell,
        vbg_centers_nm=centers,
        seed=int(meta.get("seed", "0") or 0),
        pump_power_mw=float(meta.get("pump_power_mw", "0") or 0.0),
        noise_rate_cps=float(meta.get("noise_rate_cps", "0") or 0.0),
        sampled=sampled == "true",
    )
    return result, meta
