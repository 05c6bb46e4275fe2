"""CSV tables for spectra, scans and kernels, in one layout.

'# key: value' headers carry scalars and provenance: the config hash, and
for scans and kernels the same plan header block, ScanPlan's seven fields.
Then come one column line and one numeric row per point: whatever varies
by point is a column (see _SPECTRUM_COLUMNS, _SCAN_COLUMNS, _KERNEL_COLUMNS;
a kernel row ends in its W band values).  A kernel file holds its plan and
band only; its pump and signal grids are derived, as ResponseKernel derives
them.  Floats are written with repr, so write-then-read round-trips
bit-exactly.  Tables stream: the writer formats a few rows at a time, and
the reader hands the rows to numpy's C parser as it reads them, so neither
holds a Python float per cell.  The reader rejects a file whose column line
differs, whose rows are ragged, or whose entries are not all finite, naming
the file and the column.
"""
from dataclasses import fields
from itertools import chain

import numpy as np

from .dispersion import SIGNAL_SEARCH_NM
from .errors import DomainError
from .spectra import Spectrum
from .spectrometer import ResponseKernel, ScanPlan, ScanResult, default_signal_grid

# Each table's columns, in file order, with the rule each column's values keep.
_FINITE = "must be finite"
_SPECTRUM_COLUMNS = {"wavelength_nm": _FINITE, "power_w_per_nm": _FINITE}
_SCAN_COLUMNS = {"pump_nm": _FINITE, "signal_nm_mapped": _FINITE, "vbg_center_nm": _FINITE,
                 "expected_rate_cps": "must be finite and nonnegative",
                 "counts": "must hold whole numbers in [0, 2**53]"}
_KERNEL_COLUMNS = {"mapped_signal_nm": "must be finite and inside [{}, {}] nm".format(
                       *SIGNAL_SEARCH_NM), "vbg_center_nm": _FINITE, "band_start": _FINITE,
                   "band_values": "must be finite and nonnegative"}
_WRITE_CELLS = 1024  # table cells formatted per block of rows


def _write_table(path, meta, columns, arrays):
    """'# key: value' lines for meta, the column line, then one line per row:
    row i of each of arrays in turn, each value repr'd.  The last array may be
    2-D; its rows end the lines.  Rows are formatted a block of about
    _WRITE_CELLS cells at a time, so no Python object is held per cell of the
    table."""
    wide = np.ndim(arrays[-1]) == 2
    width = len(arrays) - 1 + (arrays[-1].shape[1] if wide else 1)
    step = max(_WRITE_CELLS // width, 1)
    with open(path, "w") as fh:
        fh.writelines(f"# {key}: {value}\n" for key, value in meta.items())
        fh.write(",".join(columns) + "\n")
        for i in range(0, len(arrays[0]), step):
            parts = [array[i:i + step].tolist() for array in arrays]
            rows = ((*row[:-1], *row[-1]) for row in zip(*parts)) if wide else zip(*parts)
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _column_error(path, columns, name):
    return DomainError(f"{path}: {name} column {columns[name]}")


def _data_lines(fh, meta):
    """The stripped lines of fh that are neither blank nor comments; each
    '# key: value' comment goes into meta."""
    for line in fh:
        line = line.strip()
        if line.startswith("#"):
            key, colon, value = line[1:].partition(":")
            if colon:
                meta[key.strip()] = value.strip()
        elif line:
            yield line


def _read_table(path, columns, open_ended=False):
    """-> (meta, block): the '# key: value' headers as strings, and the rows
    after the column line (the first line not blank or a comment) as a 2-D
    float array, one column per name; with open_ended, the last column takes
    the rest of each row (one value or more).

    numpy's C reader parses the rows as they stream from the file.  Where it
    refuses one, the rows are parsed again cell by cell with float(), which
    names the first non-numeric cell, or else finds the rows ragged (or reads
    what float() alone accepts)."""
    names, header = list(columns), ",".join(columns)
    meta = {}
    with open(path, "r") as fh:
        lines = _data_lines(fh, meta)
        if next(lines, None) != header:
            raise DomainError(f"{path}: expected header {header}")
        first = next(lines, None)
        if first is None:
            raise DomainError(f"{path}: no data rows")
        try:
            block = np.loadtxt(chain((first,), lines), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            block = None
    ragged = DomainError(f"{path}: data rows must each hold one value per column of {header}")
    if block is None:
        with open(path, "r") as fh:
            rows = list(_data_lines(fh, meta))[1:]
        try:
            cells = [[float(v) for v in row.split(",")] for row in rows]
        except ValueError as exc:
            raise DomainError(f"{path}: non-numeric data row ({exc})") from exc
        if len({len(row) for row in cells}) > 1:
            raise ragged
        block = np.array(cells)
    width = block.shape[1]
    if width < len(names) or (width > len(names) and not open_ended):
        raise ragged
    bad = np.flatnonzero(~np.all(np.isfinite(block), axis=0))
    if bad.size:
        raise _column_error(path, columns, names[min(bad[0], len(names) - 1)])
    return meta, block


def write_spectrum_csv(path, spectrum, meta=None):
    _write_table(path, meta or {}, _SPECTRUM_COLUMNS, (spectrum.grid_nm, spectrum.values))


def read_spectrum_csv(path):
    """-> (Spectrum, meta dict).  The columns must be wavelength_nm,power_w_per_nm."""
    meta, data = _read_table(path, _SPECTRUM_COLUMNS)
    return Spectrum(grid_nm=data[:, 0], values=data[:, 1]), meta


def _plan_headers(plan, meta):
    """meta followed by the plan's seven fields, each as a '# key:' header."""
    headers = dict(meta or {})
    for field in fields(ScanPlan):
        value = getattr(plan, field.name)
        headers[field.name] = repr(float(value)) if field.type is float else str(value)
    return headers


def _read_plan(meta, path):
    """The ScanPlan of a file's plan headers, each required; ScanPlan validates them."""
    values = {}
    for f in fields(ScanPlan):
        if f.name not in meta:
            raise DomainError(f"{path}: missing '# {f.name}:' header")
        try:
            values[f.name] = f.type(meta[f.name])
        except ValueError as exc:
            raise DomainError(f"{path}: malformed '# {f.name}:' header ({exc})") from exc
    try:
        return ScanPlan(**values)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def write_kernel_csv(path, kernel, meta=None):
    """Headers: meta and the kernel's plan; one row per pump point:
    mapped_signal_nm, vbg_center_nm, band_start, then its W band values."""
    _write_table(path, _plan_headers(kernel.plan, meta), _KERNEL_COLUMNS,
                 (kernel.mapped_signal_nm, kernel.vbg_centers_nm, kernel.band_start,
                  kernel.band_values))


def read_kernel_csv(path):
    """-> (ResponseKernel, meta dict).  ScanPlan validates the plan headers.  One
    row per pump point of the plan, every mapped signal inside SIGNAL_SEARCH_NM
    (which bounds the derived signal grid), each band inside that grid."""
    meta, block = _read_table(path, _KERNEL_COLUMNS, open_ended=True)
    plan = _read_plan(meta, path)
    mapped, centers, start, values = block[:, 0], block[:, 1], block[:, 2], block[:, 3:]
    if mapped.size != plan.pump_grid_nm().size:
        raise DomainError(f"{path}: {mapped.size} rows, but its plan has "
                          f"{plan.pump_grid_nm().size} pump points")
    if np.any((mapped < SIGNAL_SEARCH_NM[0]) | (mapped > SIGNAL_SEARCH_NM[1])):
        raise _column_error(path, _KERNEL_COLUMNS, "mapped_signal_nm")
    # the grid the kernel derives; checked before the int cast, which warns past int64
    last = default_signal_grid(mapped).size - values.shape[1]
    if np.any((start != np.floor(start)) | (start < 0) | (start > last)):
        raise DomainError(f"{path}: band_start must be whole column numbers in [0, {last}]")
    if np.any(values < 0.0):
        raise _column_error(path, _KERNEL_COLUMNS, "band_values")
    return ResponseKernel(plan=plan, band_start=start.astype(np.int64), band_values=values,
                          mapped_signal_nm=mapped, vbg_centers_nm=centers), meta


def write_scan_csv(path, result, meta=None):
    """Headers: meta, the plan and the sampled flag; one row per scan point."""
    plan = result.plan
    headers = _plan_headers(plan, meta)
    headers["sampled"] = "true" if result.sampled else "false"
    _write_table(path, headers, _SCAN_COLUMNS,
                 (plan.pump_grid_nm(), result.signal_nm_mapped, result.vbg_centers_nm,
                  result.expected_rate_cps, np.asarray(result.sampled_counts, dtype=np.int64)))


def read_scan_csv(path):
    """-> (ScanResult, meta dict).  ScanPlan validates the plan headers, and
    the pump_nm column must be the plan's pump grid bit for bit."""
    meta, data = _read_table(path, _SCAN_COLUMNS)
    plan = _read_plan(meta, path)
    pump, mapped, centers, rates, counts = data.T
    if not np.array_equal(pump, plan.pump_grid_nm()):
        raise DomainError(f"{path}: pump_nm column is not the pump grid of its "
                          "pump_start_nm, pump_stop_nm and pump_step_nm headers")
    if np.any(rates < 0.0):
        raise _column_error(path, _SCAN_COLUMNS, "expected_rate_cps")
    # 2**53: the largest count the float64 column holds exactly
    if not np.all((counts >= 0.0) & (counts <= 2.0**53) & (counts == np.floor(counts))):
        raise _column_error(path, _SCAN_COLUMNS, "counts")
    sampled = meta.get("sampled")
    if sampled not in ("true", "false"):
        raise DomainError(f"{path}: missing or malformed '# sampled: true|false' header")
    result = ScanResult(plan=plan, signal_nm_mapped=mapped, expected_rate_cps=rates,
                        sampled_counts=counts.astype(np.int64), vbg_centers_nm=centers,
                        sampled=sampled == "true")
    return result, meta
