"""CSV round trips must be bit-exact: repr-printed floats, parsed back."""
from dataclasses import replace

import numpy as np
import pytest
from dense_kernel import write_dense_kernel_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from upconvspec import io as uio
from upconvspec import spectra, spectrometer
from upconvspec.dispersion import SIGNAL_SEARCH_NM
from upconvspec.errors import DomainError
from upconvspec.spectrometer import ResponseKernel, ScanPlan, ScanResult


@pytest.fixture()
def scan_and_kernel(cfg, models, small_plan, small_kernel):
    _, noise = models
    s = spectra.multimode_ld_spectrum(small_kernel.signal_grid_nm, n_modes=1,
                                      total_dbm=-120.0)
    result = spectrometer.forward_scan(s, small_kernel, noise, small_plan)
    return s, result, small_kernel


def test_spectrum_round_trip(tmp_path, scan_and_kernel):
    s, _, _ = scan_and_kernel
    path = tmp_path / "s.csv"
    uio.write_spectrum_csv(path, s, meta={"seed": 7, "note": "unit test"})
    back, meta = uio.read_spectrum_csv(path)
    assert np.array_equal(back.grid_nm, s.grid_nm)
    assert np.array_equal(back.values, s.values)
    assert meta["seed"] == "7" or meta["seed"] == 7


def test_kernel_round_trip(tmp_path, scan_and_kernel):
    _, _, kern = scan_and_kernel
    path = tmp_path / "k.csv"
    uio.write_kernel_csv(path, kern)
    back, _ = uio.read_kernel_csv(path)
    assert np.array_equal(back.band_start, kern.band_start)
    assert back.band_start.dtype.kind == "i"
    assert np.array_equal(back.band_values, kern.band_values)
    assert np.array_equal(back.pump_grid_nm, kern.pump_grid_nm)
    assert np.array_equal(back.signal_grid_nm, kern.signal_grid_nm)
    assert np.array_equal(back.mapped_signal_nm, kern.mapped_signal_nm)
    assert np.array_equal(back.vbg_centers_nm, kern.vbg_centers_nm)
    assert back.plan == kern.plan


def test_scan_round_trip(tmp_path, scan_and_kernel):
    _, result, _ = scan_and_kernel
    path = tmp_path / "r.csv"
    uio.write_scan_csv(path, result)
    back, _ = uio.read_scan_csv(path)
    assert np.array_equal(back.sampled_counts, result.sampled_counts)
    assert np.array_equal(back.expected_rate_cps, result.expected_rate_cps)
    assert np.array_equal(back.plan.pump_grid_nm(), result.plan.pump_grid_nm())
    assert np.array_equal(back.signal_nm_mapped, result.signal_nm_mapped)
    assert np.array_equal(back.vbg_centers_nm, result.vbg_centers_nm)
    assert back.plan == result.plan
    assert back.sampled is True
    quiet = replace(result, sampled=False)
    uio.write_scan_csv(path, quiet)
    assert uio.read_scan_csv(path)[0].sampled is False


def test_scan_csv_needs_sampled_header(tmp_path, scan_and_kernel):
    _, result, _ = scan_and_kernel
    path = tmp_path / "r.csv"
    uio.write_scan_csv(path, result)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith("# sampled:")))
    with pytest.raises(DomainError, match="sampled"):
        uio.read_scan_csv(path)


def _without_header(path, key):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith(f"# {key}:")))


@pytest.mark.parametrize("header", ["seed", "pump_power_mw", "dwell_s", "pump_start_nm",
                                    "pump_stop_nm", "pump_step_nm", "vbg_tracking"])
def test_scan_csv_requires_its_headers(tmp_path, scan_and_kernel, header):
    _, result, _ = scan_and_kernel
    path = tmp_path / "r.csv"
    uio.write_scan_csv(path, result)
    _without_header(path, header)
    with pytest.raises(DomainError, match=f"missing '# {header}:' header"):
        uio.read_scan_csv(path)


def test_scan_csv_plan_headers_are_validated_by_the_plan(tmp_path, scan_and_kernel):
    _, result, _ = scan_and_kernel
    path = tmp_path / "r.csv"
    for old, new, message in (
            ("# pump_step_nm: 0.1", "# pump_step_nm: nan", "scan pump_step_nm must be finite"),
            ("# pump_step_nm: 0.1", "# pump_step_nm: -0.1", "must be positive"),
            ("# vbg_tracking: tracked", "# vbg_tracking: both", "must be tracked|fixed"),
            ("# seed: 7", "# seed: 7.5", "malformed '# seed:' header")):
        uio.write_scan_csv(path, result)
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(DomainError, match=f"{path}: .*{message}"):
            uio.read_scan_csv(path)


@pytest.mark.parametrize("old,new", [("# pump_step_nm: 0.1", "# pump_step_nm: 0.05"),
                                     ("# pump_start_nm: 1944.0", "# pump_start_nm: 1943.9"),
                                     ("\n1944.1,", "\n1944.1000000000001,")],
                         ids=["step", "start", "one-row"])
def test_scan_csv_pump_column_must_be_the_plan_grid(tmp_path, scan_and_kernel, old, new):
    _, result, _ = scan_and_kernel
    path = tmp_path / "r.csv"
    uio.write_scan_csv(path, result)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    with pytest.raises(DomainError, match="pump_nm column is not the pump grid"):
        uio.read_scan_csv(path)


@pytest.mark.parametrize("header", ["seed", "pump_power_mw", "dwell_s", "pump_start_nm",
                                    "pump_stop_nm", "pump_step_nm", "vbg_tracking"])
def test_kernel_csv_requires_its_headers(tmp_path, scan_and_kernel, header):
    # the kernel file carries the scan file's plan header block
    _, _, kern = scan_and_kernel
    path = tmp_path / "k.csv"
    uio.write_kernel_csv(path, kern)
    _without_header(path, header)
    with pytest.raises(DomainError, match=f"missing '# {header}:' header"):
        uio.read_kernel_csv(path)


def test_dense_kernel_csv_is_rejected(tmp_path, scan_and_kernel):
    _, _, kern = scan_and_kernel
    path = tmp_path / "dense.csv"
    write_dense_kernel_csv(path, kern)
    with pytest.raises(DomainError, match=f"{path}: expected header mapped_signal_nm,"
                                          "vbg_center_nm,band_start,band_values"):
        uio.read_kernel_csv(path)


def test_kernel_csv_band_start_must_fit_the_grid(tmp_path, scan_and_kernel):
    _, _, kern = scan_and_kernel
    path = tmp_path / "k.csv"
    for start in (-1, kern.signal_grid_nm.size - kern.band_values.shape[1] + 1):
        bad = replace(kern, band_start=np.full(kern.band_start.size, start))
        uio.write_kernel_csv(path, bad)
        with pytest.raises(DomainError, match="band_start"):
            uio.read_kernel_csv(path)
    # a start past the int64 range is refused before the cast, which warns
    uio.write_kernel_csv(path, kern)
    _set_cell(path, "band_start", "1e300")
    with pytest.raises(DomainError, match="band_start must be whole column numbers"):
        uio.read_kernel_csv(path)


@pytest.mark.parametrize("value", [-1e17, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_kernel_csv_band_values_must_be_finite_and_nonnegative(tmp_path, scan_and_kernel,
                                                               value):
    # a -1e17 entry used to read, and deconvolve ran on it
    _, _, kern = scan_and_kernel
    values = kern.band_values.copy()
    values[60, 30] = value
    path = tmp_path / "k.csv"
    uio.write_kernel_csv(path, replace(kern, band_values=values))
    with pytest.raises(DomainError,
                       match=f"{path}: band_values column must be finite and nonnegative"):
        uio.read_kernel_csv(path)


def _set_cell(path, column, text):
    """Rewrite one cell of a scan or kernel CSV's first data row."""
    lines = path.read_text().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[head + 1].rstrip("\n").split(",")
    cells[lines[head].rstrip("\n").split(",").index(column)] = text
    lines[head + 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("text", ["nan", "inf"])
@pytest.mark.parametrize("column", ["mapped_signal_nm", "vbg_center_nm", "band_start"])
def test_kernel_csv_columns_must_be_finite(tmp_path, scan_and_kernel, column, text):
    # the mapped signal and VBG setpoints were header arrays, each checked on
    # its own; as columns they are checked with every other entry
    _, _, kern = scan_and_kernel
    path = tmp_path / "k.csv"
    uio.write_kernel_csv(path, kern)
    _set_cell(path, column, text)
    with pytest.raises(DomainError, match=f"{path}: {column} column must be finite"):
        uio.read_kernel_csv(path)


@pytest.mark.parametrize("header,text", [
    ("pump_power_mw", "nan"), ("pump_power_mw", "inf"), ("pump_power_mw", "-30.0"),
    ("pump_power_mw", "0.0"),
])
def test_kernel_csv_scalar_headers_are_checked(tmp_path, scan_and_kernel, header, text):
    # the pump power is a plan header, and ScanPlan validates it
    _, _, kern = scan_and_kernel
    path = tmp_path / "k.csv"
    uio.write_kernel_csv(path, kern)
    path.write_text(path.read_text().replace(f"# {header}: 30.0\n", f"# {header}: {text}\n"))
    message = ("scan pump_power_mw must be finite" if text in ("nan", "inf")
               else "scan pump power must be positive")
    with pytest.raises(DomainError, match=f"{path}: {message}"):
        uio.read_kernel_csv(path)


@pytest.mark.parametrize("text", ["1449.9", "1650.1", "-1570.0"])
def test_kernel_csv_mapped_signal_must_lie_in_the_search_window(tmp_path, scan_and_kernel,
                                                                text):
    # the signal grid is derived from the mapped signal, so this bounds it
    _, _, kern = scan_and_kernel
    path = tmp_path / "k.csv"
    uio.write_kernel_csv(path, kern)
    _set_cell(path, "mapped_signal_nm", text)
    with pytest.raises(DomainError, match=rf"{path}: mapped_signal_nm column must be finite "
                                          rf"and inside \[1450.0, 1650.0\] nm"):
        uio.read_kernel_csv(path)


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_kernel_csv_needs_one_row_per_pump_point(tmp_path, scan_and_kernel, change):
    _, _, kern = scan_and_kernel
    path = tmp_path / "k.csv"
    uio.write_kernel_csv(path, kern)
    lines = path.read_text().splitlines(keepends=True)
    lines = lines[:-1] if change == "drop" else lines + lines[-1:]
    path.write_text("".join(lines))
    rows = 120 if change == "drop" else 122
    with pytest.raises(DomainError, match=f"{path}: {rows} rows, but its plan has 121 pump"):
        uio.read_kernel_csv(path)


@pytest.mark.parametrize("column,text,message", [
    ("counts", "3.7", "counts column must hold whole numbers"),
    ("counts", "nan", "counts column must hold whole numbers"),
    ("counts", "-1", "counts column must hold whole numbers"),
    ("counts", "inf", "counts column must hold whole numbers"),
    ("counts", "1e19", "counts column must hold whole numbers"),
    ("expected_rate_cps", "nan", "expected_rate_cps column must be finite and nonnegative"),
    ("expected_rate_cps", "-0.5", "expected_rate_cps column must be finite and nonnegative"),
    ("expected_rate_cps", "inf", "expected_rate_cps column must be finite and nonnegative"),
    ("signal_nm_mapped", "nan", "signal_nm_mapped column must be finite"),
    ("signal_nm_mapped", "-inf", "signal_nm_mapped column must be finite"),
    ("vbg_center_nm", "nan", "vbg_center_nm column must be finite"),
])
def test_scan_csv_counts_and_rates_are_checked_at_read(tmp_path, scan_and_kernel, column,
                                                       text, message):
    # 3.7 counts used to read as 3, a nan count to warn on the cast (an error
    # under the suite's warning filter), a nan rate to fail only in
    # deconvolve, naming the estimate, and a nan mapped signal to deconvolve;
    # a nan setpoint read, and deconvolve reported it "off ... by up to nan nm"
    _, result, _ = scan_and_kernel
    path = tmp_path / "r.csv"
    for sampled in (True, False):
        uio.write_scan_csv(path, replace(result, sampled=sampled))
        _set_cell(path, column, text)
        with pytest.raises(DomainError, match=f"{path}: {message}"):
            uio.read_scan_csv(path)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# zeros, subnormals, ordinary values and values near the top of the range
_ENTRY = st.one_of(st.just(0.0), st.floats(0.0, 2.2250738585072014e-308),
                   st.floats(0.0, 1e300), st.floats(1e300, 1.7976931348623157e308))


@st.composite
def band_kernels(draw):
    plan = draw(scan_plans())
    n_pump = plan.pump_grid_nm().size

    def floats(elements=_FINITE):
        return np.array(draw(st.lists(elements, min_size=n_pump, max_size=n_pump)))

    mapped = floats(st.floats(*SIGNAL_SEARCH_NM))
    n_cols = spectrometer.default_signal_grid(mapped).size
    width = draw(st.integers(1, 10))
    return ResponseKernel(
        plan=plan,
        band_start=np.array(draw(st.lists(st.integers(0, n_cols - width), min_size=n_pump,
                                          max_size=n_pump)), dtype=np.int64),
        band_values=np.array(draw(st.lists(_ENTRY, min_size=n_pump * width,
                                           max_size=n_pump * width))).reshape(n_pump, width),
        mapped_signal_nm=mapped,
        vbg_centers_nm=floats(),
    )


@settings(max_examples=60, deadline=None)
@given(kern=band_kernels())
def test_kernel_csv_round_trip_is_bit_exact(tmp_path_factory, kern):
    path = tmp_path_factory.mktemp("kernel") / "k.csv"
    uio.write_kernel_csv(path, kern, meta={"config_hash": "abc"})
    back, meta = uio.read_kernel_csv(path)
    assert meta["config_hash"] == "abc"
    for field in ("pump_grid_nm", "signal_grid_nm", "band_start", "band_values",
                  "mapped_signal_nm", "vbg_centers_nm"):
        assert np.array_equal(getattr(back, field), getattr(kern, field)), field
        assert np.array_equal(np.signbit(getattr(back, field)),
                              np.signbit(getattr(kern, field))), field
    assert back.plan == kern.plan


@settings(max_examples=60, deadline=None)
@given(grid=st.lists(_FINITE, min_size=1, max_size=8, unique=True),
       data=st.data())
def test_spectrum_csv_round_trip_is_bit_exact(tmp_path_factory, grid, data):
    values = data.draw(st.lists(st.one_of(_ENTRY, st.just(-0.0)), min_size=len(grid),
                                max_size=len(grid)))
    s = spectra.Spectrum(grid_nm=np.sort(grid), values=np.array(values))
    path = tmp_path_factory.mktemp("spectrum") / "s.csv"
    uio.write_spectrum_csv(path, s, meta={"seed": 7})
    back, meta = uio.read_spectrum_csv(path)
    for field in ("grid_nm", "values"):
        assert np.array_equal(getattr(back, field), getattr(s, field)), field
        assert np.array_equal(np.signbit(getattr(back, field)),
                              np.signbit(getattr(s, field))), field
    assert meta["seed"] == "7"


@st.composite
def scan_plans(draw):
    start = draw(st.floats(-1e6, 1e6))
    step = draw(st.floats(1e-6, 1e3))
    n_steps = draw(st.integers(1, 7))
    return ScanPlan(pump_start_nm=start, pump_stop_nm=start + n_steps * step,
                    pump_step_nm=step, dwell_s=draw(st.floats(1e-300, 1e300)),
                    pump_power_mw=draw(st.floats(1e-300, 1e300)),
                    vbg_tracking=draw(st.sampled_from(["tracked", "fixed"])),
                    seed=draw(st.integers(0, 2**80)))


@st.composite
def scan_results(draw):
    plan = draw(scan_plans())
    n = plan.pump_grid_nm().size

    def floats(elements=_FINITE):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    return ScanResult(
        plan=plan,
        signal_nm_mapped=floats(),
        # a rate is finite and nonnegative; -0.0 keeps the sign bit checked
        expected_rate_cps=floats(st.one_of(_ENTRY, st.just(-0.0))),
        # counts are parsed through a float64 column: exact up to 2**53
        sampled_counts=np.array(draw(st.lists(st.integers(0, 2**53), min_size=n,
                                              max_size=n)), dtype=np.int64),
        vbg_centers_nm=floats(),
        sampled=draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(result=scan_results())
def test_scan_csv_round_trip_is_bit_exact(tmp_path_factory, result):
    path = tmp_path_factory.mktemp("scan") / "r.csv"
    uio.write_scan_csv(path, result)
    back, _ = uio.read_scan_csv(path)
    for field in ("signal_nm_mapped", "expected_rate_cps", "sampled_counts",
                  "vbg_centers_nm"):
        assert np.array_equal(getattr(back, field), getattr(result, field)), field
        assert np.array_equal(np.signbit(getattr(back, field)),
                              np.signbit(getattr(result, field))), field
    for field in ("plan", "sampled"):
        assert getattr(back, field) == getattr(result, field), field
    pump = back.plan.pump_grid_nm()
    assert np.array_equal(pump, result.plan.pump_grid_nm())
    assert np.array_equal(np.signbit(pump), np.signbit(result.plan.pump_grid_nm()))


def test_identical_writes_are_byte_identical(tmp_path, scan_and_kernel):
    _, result, _ = scan_and_kernel
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    uio.write_scan_csv(a, result)
    uio.write_scan_csv(b, result)
    assert a.read_bytes() == b.read_bytes()


def test_corrupt_csv_raises_domain_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("wavelength_nm,power_w_per_nm\n1550.0,abc\n")
    with pytest.raises(DomainError):
        uio.read_spectrum_csv(bad)


@pytest.mark.parametrize("column", ["rate_counts_per_s", "value", "power_w"])
def test_spectrum_csv_value_column_must_be_power_w_per_nm(tmp_path, column):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"wavelength_nm,{column}\n1550.0,1e-12\n1550.1,2e-12\n")
    with pytest.raises(DomainError, match="expected header wavelength_nm,power_w_per_nm"):
        uio.read_spectrum_csv(bad)


@pytest.mark.parametrize("row,column", [("nan,2e-12", "wavelength_nm"),
                                        ("1550.5,inf", "power_w_per_nm")])
def test_spectrum_csv_entries_must_be_finite(tmp_path, row, column):
    # a nan wavelength used to read, into a grid Spectrum let through
    bad = tmp_path / "bad.csv"
    bad.write_text(f"wavelength_nm,power_w_per_nm\n1550.0,1e-12\n{row}\n1551.0,1e-12\n")
    with pytest.raises(DomainError, match=f"{bad}: {column} column must be finite"):
        uio.read_spectrum_csv(bad)


@pytest.mark.parametrize("reader,text", [
    (uio.read_spectrum_csv, "wavelength_nm,power_w_per_nm\n1550.0,1e-12\n1550.1,2e-12,3.0\n"),
    (uio.read_spectrum_csv, "wavelength_nm,power_w_per_nm\n1550.0\n"),
    (uio.read_kernel_csv, "mapped_signal_nm,vbg_center_nm,band_start,band_values\n"
                          "1570.0,863.0,0\n"),
], ids=["ragged", "short", "no-band-values"])
def test_rows_must_hold_one_value_per_column(tmp_path, reader, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=f"{path}: data rows must each hold one value per"):
        reader(path)


_HEADER = "wavelength_nm,power_w_per_nm\n"
_ROWS = "".join(f"{1500.0 + 0.01 * i!r},1e-12\n" for i in range(3000))
_RAGGED = "data rows must each hold one value per column of wavelength_nm,power_w_per_nm"


@pytest.mark.parametrize("text,message", [
    (_HEADER + "1550.0,abc\n", "non-numeric data row (could not convert string to float: 'abc')"),
    (_HEADER + "1550.0,1e-12,\n", "non-numeric data row (could not convert string to float: '')"),
    # a ragged row before a non-numeric one: the non-numeric row is named, as before
    (_HEADER + "1550.0,1e-12,3.0\n1550.1,x\n",
     "non-numeric data row (could not convert string to float: 'x')"),
    (_HEADER + _ROWS + "1600.0,1e-12,3.0\n" + _ROWS, _RAGGED),
    (_HEADER + _ROWS + "1600.0\n", _RAGGED),
    (_HEADER + _ROWS + "1600.0,nan\n", "power_w_per_nm column must be finite"),
    ("# seed: 7\n\n", "expected header wavelength_nm,power_w_per_nm"),
    ("# seed: 7\n" + _HEADER + "# only comments after the columns\n", "no data rows"),
], ids=["non-numeric", "trailing-comma", "ragged-then-non-numeric", "ragged-deep",
        "short-last", "nan-last", "no-header", "no-rows"])
def test_reader_messages_stay_as_they_were(tmp_path, text, message):
    # the rows stream to numpy's parser; where it refuses one, the per-cell
    # parse it replaced names the fault in the words it always used
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DomainError) as err:
        uio.read_spectrum_csv(path)
    assert str(err.value) == f"{path}: {message}"


def test_reader_takes_what_float_takes_and_every_comment(tmp_path):
    # numpy's parser refuses "1_550.0", which float() reads; comment lines
    # between the rows are skipped, and each '# key: value' one is a header
    path = tmp_path / "s.csv"
    path.write_text("# seed: 7\n" + _HEADER + "1_549.5,1e-12\n# note: mid\n\n"
                    "  1550.0 , 2e-12\r\n1550.5,3e-12\n# tail: end\n")
    back, meta = uio.read_spectrum_csv(path)
    assert back.grid_nm.tolist() == [1549.5, 1550.0, 1550.5]
    assert back.values.tolist() == [1e-12, 2e-12, 3e-12]
    assert meta == {"seed": "7", "note": "mid", "tail": "end"}


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        uio.read_spectrum_csv(tmp_path / "nope.csv")
