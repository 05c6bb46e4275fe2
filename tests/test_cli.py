"""End-to-end CLI runs, in process, against the bundled defaults."""
import copy
import hashlib
import io as sysio
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import yaml
from dense_kernel import write_dense_kernel_csv
from hypothesis import given, settings
from hypothesis import strategies as st

import upconvspec
from upconvspec import cli, config, dispersion, io as uio, spectra
from upconvspec.errors import ConfigError

CONFIG_HASH = "e39ceeba231a8ed9"


def run_cli(argv):
    buf = sysio.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


def get_field(text, name):
    for line in text.splitlines():
        if line.startswith(name):
            return line[len(name):].strip()
    raise AssertionError(f"no line starts with {name!r}:\n{text}")


@pytest.fixture(scope="module")
def scan_workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli-scan")
    grid = np.arange(1544.0, 1556.0, 0.02)
    s = spectra.multimode_ld_spectrum(grid, n_modes=1, total_dbm=-120.0)
    uio.write_spectrum_csv(work / "input.csv", s)
    argv = ["scan", "--input", str(work / "input.csv"),
            "--out", str(work / "scan.csv"),
            "--pump-start", "1944", "--pump-stop", "1956", "--pump-step", "0.1",
            "--seed", "7", "--write-kernel", str(work / "kernel.csv")]
    code, text = run_cli(argv)
    assert code == 0
    return work, text


def test_design_qpm_output():
    code, text = run_cli(["design-qpm", "--signal", "1550", "--pump", "1950"])
    assert code == 0
    assert get_field(text, "qpm_period_um") == "19.600000"
    assert get_field(text, "sfg_nm") == "863.571429"
    assert get_field(text, "temperature_c") == "56.00"
    bands = [l for l in text.splitlines() if l.startswith("acceptance_fwhm_nm")]
    assert bands[0].endswith("0.588048 (signal band)")
    assert bands[1].endswith("0.182535 (sfg band)")


def test_design_qpm_temperature_override():
    code, text = run_cli(["design-qpm", "--signal", "1550", "--pump", "1950",
                          "--temp", "58"])
    assert code == 0
    assert get_field(text, "temperature_c") == "58.00"
    assert get_field(text, "qpm_period_um") == "19.594617"


def test_design_qpm_off_curve_pair(wg3):
    # The designed period moves the tuning curve through the pair: the
    # window solve finds the given signal, and the bandwidth peaks there.
    code, text = run_cli(["design-qpm", "--signal", "1551", "--pump", "1950"])
    assert code == 0
    assert get_field(text, "sfg_nm") == f"{dispersion.sfg_wavelength(1551.0, 1950.0):.6f}"
    probe = replace(wg3, qpm_period_um=dispersion.design_qpm_period(1551.0, 1950.0, wg3))
    assert dispersion.phase_matched_signal(1950.0, probe) == pytest.approx(1551.0, abs=1e-6)


@pytest.mark.parametrize("argv,message", [
    (["--signal", "nan", "--pump", "1950"], "signal wavelength must be finite and positive, got nan"),
    (["--signal", "1550", "--pump", "inf"], "pump wavelength must be finite and positive, got inf"),
    (["--signal", "1550", "--pump", "1950", "--temp", "nan"], "temperature nan C"),
], ids=["signal-nan", "pump-inf", "temp-nan"])
def test_design_qpm_rejects_non_finite_inputs(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["design-qpm", *argv])
    assert code == 4 and text == ""
    assert message in capsys.readouterr().err


def test_fom_at_operating_power():
    code, text = run_cli(["fom", "--pump-power", "30"])
    assert code == 0
    assert get_field(text, "efficiency") == "0.202215"
    assert get_field(text, "noise_rate_cps") == "42.385529"
    assert get_field(text, "nep_w_per_sqrt_hz") == "4.126097e-18"
    assert get_field(text, "nep_dbm") == "-143.8446"
    assert get_field(text, "nep_convention") == "background_sqrt_d"


def test_fom_convention_override():
    _, base_text = run_cli(["fom", "--pump-power", "30"])
    code, text = run_cli(["fom", "--pump-power", "30",
                          "--nep-convention", "background_sqrt_2d"])
    assert code == 0
    assert get_field(text, "nep_convention") == "background_sqrt_2d"
    base = float(get_field(base_text, "nep_dbm"))
    alt = float(get_field(text, "nep_dbm"))
    assert alt - base == pytest.approx(5.0 * math.log10(2.0), abs=1e-3)


def test_fom_zero_power_is_solver_error(capsys):
    code, text = run_cli(["fom", "--pump-power", "0"])
    assert code == 4
    assert text == ""
    assert "pump power must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("power", ["-5", "nan", "inf"])
def test_fom_checks_the_power_before_writing(power, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["fom", "--pump-power", power])
    assert code == 4
    assert text == ""
    assert "pump power must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("signal", ["-5", "nan", "inf"])
def test_fom_checks_the_signal_before_writing(signal, capsys):
    code, text = run_cli(["fom", "--pump-power", "30", "--signal", signal])
    assert code == 4 and text == ""
    assert "signal wavelength must be finite and positive" in capsys.readouterr().err


def test_fom_rejects_a_non_finite_conversion_point(tmp_path, capsys):
    raw = config.load_config().raw
    raw["conversion_points"][0] = [20.0, float("nan")]
    path = tmp_path / "nan.yaml"
    path.write_text(yaml.safe_dump(raw))
    code, text = run_cli(["--config", str(path), "fom", "--pump-power", "30"])
    assert code == 3 and text == ""
    assert ("config error: conversion_points[0]: expected a finite number"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["fom", "design-qpm", "scan"])
def test_a_sellmeier_with_a_non_positive_n_squared_is_a_config_error(scan_workdir, tmp_path,
                                                                     capsys, command):
    # with a1 = 0, fom exited 0, and design-qpm and scan exited 4 blaming the
    # solver after numpy warned of an invalid sqrt
    work, _ = scan_workdir
    raw = config.load_config().raw
    raw["sellmeier"]["a"][0] = 0.0
    path = tmp_path / "a1_zero.yaml"
    path.write_text(yaml.safe_dump(raw))
    argv = {"fom": ["fom", "--pump-power", "30"],
            "design-qpm": ["design-qpm", "--signal", "1550", "--pump", "1950"],
            "scan": ["scan", "--input", str(work / "input.csv"),
                     "--out", str(tmp_path / "scan.csv")]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(["--config", str(path), *argv])
    assert code == 3 and text == ""
    assert "config error: sellmeier: Sellmeier a, b give n^2 <= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def _mutated_config(path, mutate):
    """The bundled config with mutate applied to its raw document, written to path."""
    raw = config.load_config().raw
    mutate(raw)
    path.write_text(yaml.safe_dump(raw))
    return path


@pytest.mark.parametrize("mutate,field,message", [
    (lambda r: r["conversion_points"][1].__setitem__(0, 116), "conversion_points",
     "conversion fit: points are inconsistent with a saturating sin^2 curve"),
    (lambda r: r["noise_points"][0].__setitem__(0, -20), "noise_points",
     "noise fit: negative pump power in calibration points"),
    (lambda r: r["conversion_points"][0].__setitem__(1, 1.5), "conversion_points",
     "conversion fit: efficiencies must be in (0, 1]"),
    (lambda r: r.__setitem__("fom_signal_nm", -1550), "fom_signal_nm",
     "must be a positive wavelength, got -1550.0"),
], ids=["conversion-116-mW", "noise-minus-20-mW", "efficiency-1.5", "fom-signal-negative"])
def test_a_calibration_point_the_fits_refuse_is_a_config_error(tmp_path, capsys, mutate,
                                                                 field, message):
    # each exited 4 with the fit's (or fom's) message, naming no field
    path = _mutated_config(tmp_path / "bad.yaml", mutate)
    code, text = run_cli(["--config", str(path), "fom", "--pump-power", "30"])
    assert code == 3 and text == ""
    assert f"config error: {field}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fom", "design-qpm", "scan", "deconvolve"])
@pytest.mark.parametrize("index,value,message", [
    (1, -1550, "anchor 1 (1950.0, -1550.0) nm: signal outside the tuning map's search "
               "window [1450.0, 1650.0] nm"),
    (1, 155000, "anchor 1 (1950.0, 155000.0) nm: signal outside"),
    (0, 975, "anchor 1 (975.0, 1550.0) nm: pump outside the tuning map's search window "
             "[1820.0, 2080.0] nm"),
], ids=["signal-negative", "signal-155000", "pump-975"])
def test_a_tuning_anchor_off_the_search_windows_is_a_config_error(scan_workdir, tmp_path,
                                                                    capsys, command, index,
                                                                    value, message):
    # fom exited 0; design-qpm and scan exited 4 with a solver's message
    work, _ = scan_workdir
    path = _mutated_config(tmp_path / "anchor.yaml",
                           lambda r: r["tuning_anchors"][1].__setitem__(index, value))
    argv = {"fom": ["fom", "--pump-power", "30"],
            "design-qpm": ["design-qpm", "--signal", "1550", "--pump", "1950"],
            "scan": ["scan", "--input", str(work / "input.csv"),
                     "--out", str(tmp_path / "scan.csv")],
            "deconvolve": ["deconvolve", "--raw", str(work / "scan.csv"),
                           "--out", str(tmp_path / "estimate.csv")]}[command]
    code, text = run_cli(["--config", str(path), *argv])
    assert code == 3 and text == ""
    assert f"config error: tuning_anchors: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_a_waveguide_that_accepts_the_whole_window_fails_the_acceptance_search(tmp_path,
                                                                                 capsys):
    # a 1 um crystal: the bracket doubled below 0 nm, and design-qpm exited 4
    # with "wavelengths must be positive"
    path = _mutated_config(tmp_path / "short.yaml",
                           lambda r: r["waveguide"].__setitem__("length_mm", 0.001))
    code, text = run_cli(["--config", str(path), "design-qpm", "--signal", "1550",
                          "--pump", "1950"])
    assert code == 4 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: acceptance search: |dk| stays under its half-maximum level")
    assert "out to 730.8 nm" in err and "a 0.001 mm waveguide accepts more" in err


# design-qpm --signal 1550 --pump 1950's acceptance FWHM (signal band, SFG band)
# for short waveguides, as printed before the acceptance search was bounded
_SHORT_WAVEGUIDE_FWHM = {
    0.01: ("1284.335393", "360.074732"), 0.05: ("603.322673", "174.267554"),
    0.2: ("362.236486", "105.227815"), 0.5: ("64.260681", "19.889280"),
    1.0: ("30.920877", "9.591729"), 5.0: ("6.118325", "1.899129"),
}


@pytest.mark.parametrize("length_mm", list(_SHORT_WAVEGUIDE_FWHM))
def test_short_waveguides_keep_their_acceptance_bandwidth(tmp_path, length_mm):
    path = _mutated_config(tmp_path / "short.yaml",
                           lambda r: r["waveguide"].__setitem__("length_mm", length_mm))
    code, text = run_cli(["--config", str(path), "design-qpm", "--signal", "1550",
                          "--pump", "1950"])
    assert code == 0
    bands = [line.split()[1] for line in text.splitlines()
             if line.startswith("acceptance_fwhm_nm")]
    assert tuple(bands) == _SHORT_WAVEGUIDE_FWHM[length_mm]


def _number_paths(node, path=()):
    """The key path to every number in a raw config."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _number_paths(value, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


@pytest.fixture(scope="module")
def bundled_raw():
    return config.load_config().raw


def _perturbed(raw, data):
    """A copy of raw with one or two of its numbers scaled (by 0, -1, 0.5 ...
    10) and nudged by up to 1e-3."""
    raw = copy.deepcopy(raw)
    paths = list(_number_paths(raw))
    for _ in range(data.draw(st.integers(1, 2))):
        *keys, last = data.draw(st.sampled_from(paths))
        node = raw
        for key in keys:
            node = node[key]
        factor = data.draw(st.sampled_from([0.0, -1.0, 0.5, 0.99, 1.01, 2.0, 10.0]))
        value = node[last] * factor + data.draw(st.sampled_from([0.0, -1e-3, 1e-3]))
        node[last] = int(value) if isinstance(node[last], int) else value
    return raw


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_perturbed_config_exits_0_3_or_4_and_warns_nothing(scan_workdir, bundled_raw,
                                                              tmp_path_factory, data):
    # fom and design-qpm on every perturbed config, scan on about one in
    # four, over a 121-point window so the example stays cheap
    work, _ = scan_workdir
    raw = _perturbed(bundled_raw, data)
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    commands = [["fom", "--pump-power", "30"],
                ["design-qpm", "--signal", "1550", "--pump", "1950"]]
    if data.draw(st.integers(0, 3)) == 0:
        commands.append(["scan", "--input", str(work / "input.csv"), "--out",
                         str(tmp / "scan.csv"), "--pump-start", "1944", "--pump-stop", "1956",
                         "--pump-step", "0.1"])
    for argv in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli(["--config", str(path), *argv])
        assert code in (0, 3, 4), (argv[0], code)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv[0]


def test_scan_summary_and_reproducibility(scan_workdir):
    work, text = scan_workdir
    assert get_field(text, "points") == "121"
    assert get_field(text, "total_counts") == "9215"
    assert get_field(text, "noise_rate_cps") == "42.3855"
    code, _ = run_cli(["scan", "--input", str(work / "input.csv"),
                       "--out", str(work / "scan2.csv"),
                       "--pump-start", "1944", "--pump-stop", "1956",
                       "--pump-step", "0.1", "--seed", "7"])
    assert code == 0
    assert (work / "scan.csv").read_bytes() == (work / "scan2.csv").read_bytes()
    _, meta = uio.read_scan_csv(work / "scan.csv")
    assert meta["config_hash"] == CONFIG_HASH
    assert meta["seed"] == "7"
    assert meta["vbg_tracking"] == "tracked"


def test_deconvolve_with_saved_kernel(scan_workdir):
    work, _ = scan_workdir
    code, text = run_cli(["deconvolve", "--raw", str(work / "scan.csv"),
                          "--kernel", str(work / "kernel.csv"),
                          "--out", str(work / "est.csv")])
    assert code == 0
    assert get_field(text, "stop_reason") == "discrepancy_reached"
    report = json.loads((work / "est.csv.report.json").read_text())
    assert report["iterations_used"] == 2
    assert report["stop_reason"] == "discrepancy_reached"
    assert report["residual_norm"] == pytest.approx(0.8883475758356731, rel=1e-9)
    assert report["background_cps"] == pytest.approx(42.592592592592595, rel=1e-12)
    assert report["config_hash"] == CONFIG_HASH
    assert report["seed"] == 7
    est, emeta = uio.read_spectrum_csv(work / "est.csv")
    peak_nm = float(est.grid_nm[np.argmax(est.values)])
    assert peak_nm == pytest.approx(1549.9919857371326, abs=1e-9)
    # the report carries the iteration count, stop reason and dwell
    assert emeta == {"config_hash": CONFIG_HASH, "seed": "7"}


@pytest.mark.parametrize("flag,value", [("--noise-floor-cps", "inf"),
                                        ("--noise-floor-cps", "nan"),
                                        ("--discrepancy", "nan")])
def test_deconvolve_checks_its_scalars_before_writing(scan_workdir, tmp_path, capsys,
                                                      flag, value):
    work, _ = scan_workdir
    out = tmp_path / "est.csv"
    code, text = run_cli(["deconvolve", "--raw", str(work / "scan.csv"),
                          "--kernel", str(work / "kernel.csv"), "--out", str(out),
                          flag, value])
    assert code == 4 and text == ""
    assert "must be finite and nonnegative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_deconvolve_model_kernel_matches_saved(scan_workdir):
    work, _ = scan_workdir
    code, _ = run_cli(["deconvolve", "--raw", str(work / "scan.csv"),
                       "--kernel", "model", "--out", str(work / "est2.csv"),
                       "--report", str(work / "rep2.json")])
    assert code == 0
    rep = json.loads((work / "rep2.json").read_text())
    assert rep["iterations_used"] == 2
    assert rep["residual_norm"] == pytest.approx(0.8883475758356731, rel=1e-9)


def test_deconvolve_rejects_kernel_for_another_pump_range(scan_workdir):
    work, _ = scan_workdir
    code, _ = run_cli(["scan", "--input", str(work / "input.csv"),
                       "--out", str(work / "scan_shifted.csv"),
                       "--pump-start", "1945", "--pump-stop", "1957",
                       "--pump-step", "0.1", "--seed", "7",
                       "--write-kernel", str(work / "kernel_shifted.csv")])
    assert code == 0
    code, _ = run_cli(["deconvolve", "--raw", str(work / "scan.csv"),
                       "--kernel", str(work / "kernel_shifted.csv"),
                       "--out", str(work / "est_shifted.csv")])
    assert code == 4


def _scan_with_kernel(work, name, *extra):
    code, _ = run_cli(["scan", "--input", str(work / "input.csv"),
                       "--out", str(work / f"scan_{name}.csv"),
                       "--pump-start", "1944", "--pump-stop", "1956",
                       "--pump-step", "0.1", "--seed", "7",
                       "--write-kernel", str(work / f"kernel_{name}.csv"), *extra])
    assert code == 0
    return work / f"scan_{name}.csv", work / f"kernel_{name}.csv"


@pytest.mark.parametrize("extra,message", [
    (("--power", "20"), "pump power 20.0 mW differs from the kernel's 30.0 mW"),
    (("--tracking", "fixed"), "VBG setpoints are off the tracked-VBG kernel's"),
])
def test_deconvolve_rejects_a_kernel_from_another_scan(scan_workdir, capsys, extra,
                                                       message):
    # same config hash and pump grid; the kernel belongs to the default scan
    work, _ = scan_workdir
    scan, _ = _scan_with_kernel(work, extra[1], *extra)
    capsys.readouterr()
    code, _ = run_cli(["deconvolve", "--raw", str(scan),
                       "--kernel", str(work / "kernel.csv"),
                       "--out", str(work / "est_other.csv")])
    assert code == 4
    assert message in capsys.readouterr().err


def test_deconvolve_rejects_a_kernel_with_another_config_hash(scan_workdir, capsys):
    work, _ = scan_workdir
    text = (work / "kernel.csv").read_text()
    (work / "kernel_rehashed.csv").write_text(
        text.replace(f"# config_hash: {CONFIG_HASH}", "# config_hash: 0123456789abcdef"))
    code, _ = run_cli(["deconvolve", "--raw", str(work / "scan.csv"),
                       "--kernel", str(work / "kernel_rehashed.csv"),
                       "--out", str(work / "est_rehashed.csv")])
    assert code == 4
    assert (f"scan config_hash {CONFIG_HASH} differs from the kernel's 0123456789abcdef"
            in capsys.readouterr().err)


def test_deconvolve_rejects_a_dense_kernel_file(scan_workdir, capsys):
    work, _ = scan_workdir
    kern, _ = uio.read_kernel_csv(work / "kernel.csv")
    write_dense_kernel_csv(work / "kernel_dense.csv", kern,
                           meta={"config_hash": CONFIG_HASH})
    code, _ = run_cli(["deconvolve", "--raw", str(work / "scan.csv"),
                       "--kernel", str(work / "kernel_dense.csv"),
                       "--out", str(work / "est_dense.csv")])
    assert code == 4
    assert (f"{work / 'kernel_dense.csv'}: expected header mapped_signal_nm,"
            "vbg_center_nm,band_start,band_values" in capsys.readouterr().err)


@pytest.mark.parametrize("name,old,new", [
    ("scan", "pump_nm,signal_nm_mapped,expected_rate_cps,counts,dwell_s",
     "pump_nm,signal_nm_mapped,vbg_center_nm,expected_rate_cps,counts"),
    ("kernel", "pump_nm,mapped_signal_nm,vbg_center_nm,band_start,band_values",
     "mapped_signal_nm,vbg_center_nm,band_start,band_values"),
], ids=["scan", "kernel"])
def test_deconvolve_rejects_a_file_in_the_previous_layout(scan_workdir, tmp_path, capsys,
                                                          name, old, new):
    # the column line is checked first, so no second reader is needed
    work, _ = scan_workdir
    files = {"scan": work / "scan.csv", "kernel": work / "kernel.csv"}
    text = files[name].read_text()
    assert f"\n{new}\n" in text
    files[name] = tmp_path / f"{name}.csv"
    files[name].write_text(text.replace(f"\n{new}\n", f"\n{old}\n"))
    capsys.readouterr()
    code, _ = run_cli(["deconvolve", "--raw", str(files["scan"]), "--kernel",
                       str(files["kernel"]), "--out", str(tmp_path / "est.csv")])
    assert code == 4
    assert f"{files[name]}: expected header {new}" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


def _deconvolve_both_ways(work, scan, out, capsys):
    """(exit code, stdout, stderr) of deconvolve on scan: --kernel model, then FILE."""
    runs = []
    for kernel in ("model", str(work / "kernel.csv")):
        capsys.readouterr()
        code, text = run_cli(["deconvolve", "--raw", str(scan), "--kernel", kernel,
                              "--out", str(out)])
        runs.append((code, text, capsys.readouterr().err))
    return runs


def test_deconvolve_model_kernel_needs_the_tracking_header(scan_workdir, tmp_path, capsys):
    # vbg_tracking is a plan header: the scan fails to read, for either kernel
    work, _ = scan_workdir
    lines = (work / "scan.csv").read_text().splitlines(keepends=True)
    (work / "scan_untracked.csv").write_text(
        "".join(l for l in lines if not l.startswith("# vbg_tracking:")))
    for code, text, err in _deconvolve_both_ways(work, work / "scan_untracked.csv",
                                                 tmp_path / "est.csv", capsys):
        assert code == 4 and text == ""
        assert "missing '# vbg_tracking:' header" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("header", ["pump_start_nm", "pump_stop_nm", "pump_step_nm",
                                    "dwell_s", "pump_power_mw", "seed"])
def test_deconvolve_needs_every_plan_header(scan_workdir, tmp_path, capsys, header):
    work, _ = scan_workdir
    lines = (work / "scan.csv").read_text().splitlines(keepends=True)
    scan = tmp_path / "scan.csv"
    scan.write_text("".join(l for l in lines if not l.startswith(f"# {header}:")))
    for code, text, err in _deconvolve_both_ways(work, scan, tmp_path / "est.csv", capsys):
        assert code == 4 and text == ""
        assert f"{scan}: missing '# {header}:' header" in err


def test_deconvolve_model_kernel_rejects_another_config(scan_workdir, tmp_path, capsys):
    work, _ = scan_workdir
    raw = config.load_config().raw
    raw["vbg"]["fwhm_nm"] = 0.2
    path = tmp_path / "wide_vbg.yaml"
    path.write_text(yaml.safe_dump(raw))
    code, _ = run_cli(["--config", str(path), "deconvolve", "--raw", str(work / "scan.csv"),
                       "--kernel", "model", "--out", str(tmp_path / "est.csv")])
    assert code == 4
    assert (f"scan config_hash {CONFIG_HASH} differs from the config's "
            f"{config.config_hash(config.load_config(path))}" in capsys.readouterr().err)


def test_deconvolve_kernel_file_rejects_another_config(scan_workdir, tmp_path, capsys):
    # a config with other noise points would lend the estimate its noise model
    # and its hash, although the scan and the kernel carry the scan's
    work, _ = scan_workdir
    raw = config.load_config().raw
    raw["noise_points"] = [[p, 2.0 * r] for p, r in raw["noise_points"]]
    path = tmp_path / "noisier.yaml"
    path.write_text(yaml.safe_dump(raw))
    other = config.config_hash(config.load_config(path))
    assert other != CONFIG_HASH
    code, _ = run_cli(["--config", str(path), "deconvolve", "--raw", str(work / "scan.csv"),
                       "--kernel", str(work / "kernel.csv"), "--out", str(tmp_path / "est.csv")])
    assert code == 4
    assert (f"scan config_hash {CONFIG_HASH} differs from the config's {other}"
            in capsys.readouterr().err)
    assert not (tmp_path / "est.csv").exists()


@pytest.mark.parametrize("unhashed,kernel", [("scan", "model"), ("scan", "file"),
                                             ("kernel", "file")])
def test_deconvolve_needs_config_hash_headers(scan_workdir, tmp_path, capsys, unhashed,
                                              kernel):
    work, _ = scan_workdir
    files = {"scan": work / "scan.csv", "kernel": work / "kernel.csv"}
    lines = files[unhashed].read_text().splitlines(keepends=True)
    files[unhashed] = tmp_path / f"{unhashed}.csv"
    files[unhashed].write_text("".join(l for l in lines if not l.startswith("# config_hash:")))
    code, _ = run_cli(["deconvolve", "--raw", str(files["scan"]),
                       "--kernel", "model" if kernel == "model" else str(files["kernel"]),
                       "--out", str(tmp_path / "est.csv")])
    assert code == 4
    assert (f"{files[unhashed]}: missing '# config_hash:' header"
            in capsys.readouterr().err)


def _loaded(path, loader):
    """(config, its hash) from path through loader, or the ConfigError's text."""
    try:
        with mock.patch.object(config, "_LOADER", loader):
            cfg = config.load_config(path)
    except ConfigError as exc:
        return str(exc)
    return cfg, config.config_hash(cfg)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_libyaml_and_python_loaders_read_a_config_alike(bundled_raw, tmp_path_factory, data):
    # the bundled file and the perturbed configs of the CLI fuzz test give an
    # equal config and hash, or the same error, through either parser; a file
    # that is not YAML is a ConfigError through both, worded by each parser
    tmp = tmp_path_factory.mktemp("loaders")
    (tmp / "config.yaml").write_text(yaml.safe_dump(_perturbed(bundled_raw, data)))
    (tmp / "bad.yaml").write_text("waveguide: [unclosed\n  x: {")
    for path in (None, tmp / "config.yaml"):
        assert _loaded(path, yaml.CSafeLoader) == _loaded(path, yaml.SafeLoader)
    assert _loaded(None, yaml.CSafeLoader)[1] == CONFIG_HASH
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        assert _loaded(tmp / "bad.yaml", loader).startswith(": not valid YAML: ")


def test_exit_codes(tmp_path):
    code, _ = run_cli(["scan", "--input", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path / "out.csv")])
    assert code == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("waveguide: [unclosed\n  x: {")
    code, _ = run_cli(["--config", str(bad), "fom", "--pump-power", "30"])
    assert code == 3


def test_scan_with_a_negative_seed_is_a_domain_error(tmp_path, capsys):
    s = spectra.multimode_ld_spectrum(np.arange(1544.0, 1556.0, 0.02), n_modes=1)
    uio.write_spectrum_csv(tmp_path / "input.csv", s)
    code, _ = run_cli(["scan", "--input", str(tmp_path / "input.csv"),
                       "--out", str(tmp_path / "scan.csv"), "--seed", "-1"])
    assert code == 4
    assert "seed must be a nonnegative integer" in capsys.readouterr().err


def test_scan_refuses_a_plan_deconvolve_cannot_invert(scan_workdir, tmp_path, capsys):
    # the bundled plan with the VBG parked leaves 45 support columns that no
    # row reaches: the scan used to be written, and deconvolve of it exit 4
    work, _ = scan_workdir
    scan, kernel = tmp_path / "scan.csv", tmp_path / "kernel.csv"
    code, text = run_cli(["scan", "--input", str(work / "input.csv"), "--out", str(scan),
                          "--tracking", "fixed", "--write-kernel", str(kernel)])
    assert code == 4 and text == ""
    assert "kernel has no response in: [1570.040, 1570.880] nm" in capsys.readouterr().err
    assert not scan.exists() and not kernel.exists()


def test_deconvolve_rejects_a_kernel_file_with_a_negative_entry(scan_workdir, tmp_path,
                                                                capsys):
    # a -1e17 band entry used to read, and deconvolve exited 0 on it
    work, _ = scan_workdir
    lines = (work / "kernel.csv").read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[row].split(",")
    cells[5] = "-1e+17"
    lines[row] = ",".join(cells)
    bad = tmp_path / "kernel_negative.csv"
    bad.write_text("".join(lines))
    capsys.readouterr()
    code, _ = run_cli(["deconvolve", "--raw", str(work / "scan.csv"), "--kernel", str(bad),
                       "--out", str(tmp_path / "est.csv")])
    assert code == 4
    assert (f"{bad}: band_values column must be finite and nonnegative"
            in capsys.readouterr().err)


def test_deconvolve_rejects_a_kernel_file_with_a_nan_wavelength(scan_workdir, tmp_path,
                                                               capsys):
    # a nan in the signal grid header used to deconvolve with exit 0 and
    # write nan as the estimate's first wavelength_nm; the grid is now derived
    # from the mapped signal column, which must be finite
    work, _ = scan_workdir
    bad = tmp_path / "kernel_nan.csv"
    bad.write_text(_with_mapped_signal(work / "kernel.csv", lambda nm: float("nan")))
    capsys.readouterr()
    code, _ = run_cli(["deconvolve", "--raw", str(work / "scan.csv"), "--kernel", str(bad),
                       "--out", str(tmp_path / "est.csv")])
    assert code == 4
    assert f"{bad}: mapped_signal_nm column must be finite" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


def _with_mapped_signal(kernel, change):
    """The text of a kernel file with each row's mapped signal passed through change."""
    lines = kernel.read_text().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    for i in range(head + 1, len(lines)):
        first, rest = lines[i].split(",", 1)
        lines[i] = f"{change(float(first))!r},{rest}"
    return "".join(lines)


@pytest.mark.parametrize("change,message", [
    ("shift", "scan mapped signal wavelengths are off the tracked-VBG kernel's by up to"),
    ("drop", "120 rows, but its plan has 121 pump points"),
], ids=["mapped-signal-shifted", "row-dropped"])
def test_deconvolve_rejects_a_kernel_file_that_disagrees_with_its_scan(scan_workdir,
                                                                       tmp_path, capsys,
                                                                       change, message):
    # a kernel file's signal grid header shifted by 0.1 nm used to move the
    # estimate's peak by 0.1 nm with exit 0; the grid now follows the mapped
    # signal, so a shift there is a shift the scan's mapped signal does not
    # share.  A file missing a row no longer fits its plan.
    work, _ = scan_workdir
    bad = tmp_path / "kernel_bad.csv"
    if change == "shift":
        bad.write_text(_with_mapped_signal(work / "kernel.csv", lambda nm: nm + 0.1))
    else:
        bad.write_text("".join((work / "kernel.csv").read_text().splitlines(True)[:-1]))
    capsys.readouterr()
    code, text = run_cli(["deconvolve", "--raw", str(work / "scan.csv"), "--kernel", str(bad),
                          "--out", str(tmp_path / "est.csv")])
    assert code == 4 and text == ""
    assert message in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


@pytest.mark.parametrize("header,message", [
    ("pump_power_mw", "scan pump_power_mw must be finite, got nan"),
], ids=["pump_power_mw"])
def test_deconvolve_rejects_a_kernel_file_with_a_nan_scalar_header(scan_workdir, tmp_path,
                                                                   capsys, header, message):
    # a nan pump power failed only at the plan check, against "the kernel's
    # nan mW"; it is a plan header, which ScanPlan validates
    work, _ = scan_workdir
    lines = (work / "kernel.csv").read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith(f"# {header}:"))
    lines[row] = f"# {header}: nan\n"
    bad = tmp_path / "kernel_bad.csv"
    bad.write_text("".join(lines))
    capsys.readouterr()
    code, _ = run_cli(["deconvolve", "--raw", str(work / "scan.csv"), "--kernel", str(bad),
                       "--out", str(tmp_path / "est.csv")])
    assert code == 4
    assert f"{bad}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


@pytest.mark.parametrize("text,message", [
    ("nan", "signal_nm_mapped column must be finite"),
    ("1550.0", "scan mapped signal wavelengths are off the tracked-VBG kernel's by up to"),
], ids=["nan", "shifted"])
def test_deconvolve_rejects_a_scan_with_a_bad_mapped_signal(scan_workdir, tmp_path, capsys,
                                                            text, message):
    # a nan there used to deconvolve with exit 0, and nothing compared the
    # column with the kernel's mapped signal
    work, _ = scan_workdir
    lines = (work / "scan.csv").read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("pump_nm,")) + 1
    cells = lines[row].split(",")
    cells[1] = text
    lines[row] = ",".join(cells)
    bad = work / f"scan_mapped_{text}.csv"
    bad.write_text("".join(lines))
    for code, out, err in _deconvolve_both_ways(work, bad, tmp_path / "est.csv", capsys):
        assert code == 4 and out == ""
        assert message in err
    assert list(tmp_path.iterdir()) == []


def test_scan_rejects_an_input_that_is_not_w_per_nm(tmp_path, capsys):
    src = tmp_path / "rates.csv"
    src.write_text("wavelength_nm,rate_counts_per_s\n1549.0,1.0\n1550.0,2.0\n1551.0,1.0\n")
    code, text = run_cli(["scan", "--input", str(src), "--out", str(tmp_path / "scan.csv")])
    assert code == 4 and text == ""
    assert "expected header wavelength_nm,power_w_per_nm" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("flag,field", [("--dwell", "dwell_s"),
                                        ("--pump-step", "pump_step_nm"),
                                        ("--power", "pump_power_mw")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_scan_plan_values_must_be_finite(scan_workdir, tmp_path, capsys, flag, field,
                                         value):
    work, _ = scan_workdir
    argv = ["scan", "--input", str(work / "input.csv"), "--out", str(tmp_path / "scan.csv")]
    code, text = run_cli(argv + ["--no-sample", flag, value])
    assert code == 4 and text == ""
    assert f"scan {field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()
    raw = config.load_config().raw
    raw["scan"][field] = float(value)
    path = tmp_path / "nonfinite.yaml"
    path.write_text(yaml.safe_dump(raw))
    code, text = run_cli(["--config", str(path)] + argv)
    assert code == 3 and text == ""
    assert f"config error: scan.{field}: expected a finite number" in capsys.readouterr().err


def test_removed_config_field_is_a_config_error(tmp_path, capsys):
    raw = config.load_config().raw
    raw["waveguide"]["pigtail_loss_db"] = 0.7
    path = tmp_path / "old.yaml"
    path.write_text(yaml.safe_dump(raw))
    code, _ = run_cli(["--config", str(path), "fom", "--pump-power", "30"])
    assert code == 3
    assert "waveguide.pigtail_loss_db: unknown field" in capsys.readouterr().err


def test_config_section_that_is_not_a_mapping_is_a_config_error(tmp_path, capsys):
    raw = config.load_config().raw
    raw["scan"] = "fast"
    path = tmp_path / "flat.yaml"
    path.write_text(yaml.safe_dump(raw))
    code, _ = run_cli(["--config", str(path), "fom", "--pump-power", "30"])
    assert code == 3
    assert "scan: expected a mapping" in capsys.readouterr().err


def test_fom_rejects_a_degenerate_conversion_fit(tmp_path, capsys):
    raw = config.load_config().raw
    raw["conversion_points"] = [[20.0, 0.15], [40.0, 0.05], [58.0, 0.286]]
    path = tmp_path / "degenerate.yaml"
    path.write_text(yaml.safe_dump(raw))
    code, _ = run_cli(["--config", str(path), "fom", "--pump-power", "30"])
    assert code == 3
    assert "conversion_points: residuals exceed 2%" in capsys.readouterr().err


def test_deconvolve_model_kernel_for_uneven_scan_grid(scan_workdir, tmp_path, capsys):
    # a scan missing a point is not its plan's scan: it fails to read, for
    # either kernel
    work, _ = scan_workdir
    lines = (work / "scan.csv").read_text().splitlines(keepends=True)
    rows = [i for i, l in enumerate(lines) if l[0].isdigit()]
    del lines[rows[60]]
    (work / "scan_gapped.csv").write_text("".join(lines))
    for code, text, err in _deconvolve_both_ways(work, work / "scan_gapped.csv",
                                                 tmp_path / "est.csv", capsys):
        assert code == 4 and text == ""
        assert "pump_nm column is not the pump grid" in err


def _estimate_bytes(scan, out, *kernel):
    """The estimate CSV and report deconvolve writes for scan, as bytes."""
    code, _ = run_cli(["deconvolve", "--raw", str(scan), *kernel, "--out", str(out)])
    assert code == 0
    return out.read_bytes(), out.with_name(out.name + ".report.json").read_bytes()


@pytest.mark.parametrize("extra", [
    (),
    ("--tracking", "fixed", "--pump-start", "1944", "--pump-stop", "1956",
     "--pump-step", "0.1"),
    ("--pump-step", "0.07"),
], ids=["default", "fixed-vbg-window", "pump-step-0.07"])
def test_deconvolve_model_and_kernel_file_write_the_same_bytes(scan_workdir, tmp_path,
                                                               extra):
    # The model path rebuilds the kernel from the scan's plan headers, so it
    # is the kernel the scan wrote, and so are the estimate and the report.
    work, _ = scan_workdir
    scan, kernel = tmp_path / "scan.csv", tmp_path / "kernel.csv"
    code, _ = run_cli(["scan", "--input", str(work / "input.csv"), "--out", str(scan),
                       "--write-kernel", str(kernel), *extra])
    assert code == 0
    assert (_estimate_bytes(scan, tmp_path / "est_file.csv", "--kernel", str(kernel))
            == _estimate_bytes(scan, tmp_path / "est_model.csv", "--kernel", "model"))


# SHA-256 of each array read back from the bundled file workflow; a change to
# the file layout must leave every one of them as it is.
_WORKFLOW_DIGESTS = {
    "scan.sampled_counts": "68c97b66f7eab7a689be987bb370fb638ec19bcb7d6ea50518b498d9421d6d98",
    "scan.expected_rate_cps": "df51f8217a3c9032f88b9f69e0dc2bfcb77987c1ae6125c7676432c18dba7985",
    "scan.signal_nm_mapped": "f10db7f18d5abdc5abde715dd7281c837fead0dea8cff6cf2414e81faf1e5b06",
    "scan.vbg_centers_nm": "2b95dd37873b102901c0fc7bd9eb2e036a64dcab4f1cd3b1c3dc47cc443294fa",
    "kernel.band_values": "044522ceb75aa87990f47b2d3afabeee4130e0d67aa398fde894349b942fbeab",
    "kernel.band_start": "2e485ae55c6362dee61600a65245c8dcce4218546de344ea3b832deb84598c34",
    "kernel.pump_grid_nm": "51c9914115518cabd26d5c8cb34ad3b1768656bc913686582cd7ccc7d98438dc",
    "kernel.signal_grid_nm": "244a51bdce21c58236be3cf0aa9f52591b5d989ee83e4871dac0185aa41a5fdc",
    "kernel.mapped_signal_nm": "f10db7f18d5abdc5abde715dd7281c837fead0dea8cff6cf2414e81faf1e5b06",
    "kernel.vbg_centers_nm": "2b95dd37873b102901c0fc7bd9eb2e036a64dcab4f1cd3b1c3dc47cc443294fa",
    "estimate_file.grid_nm": "244a51bdce21c58236be3cf0aa9f52591b5d989ee83e4871dac0185aa41a5fdc",
    "estimate_file.values": "48c9823c459e9d469531c0fa5472817ac8b03b3df37ce367dc15d1da90fca83c",
    "estimate_model.grid_nm": "244a51bdce21c58236be3cf0aa9f52591b5d989ee83e4871dac0185aa41a5fdc",
    "estimate_model.values": "48c9823c459e9d469531c0fa5472817ac8b03b3df37ce367dc15d1da90fca83c",
}


def test_file_workflow_moves_no_value(tmp_path):
    # the bundled plan: scan --write-kernel, then deconvolve from the file and
    # from the model; the arrays read back are digested, not the file bytes
    grid = np.arange(1530.0, 1575.0, 0.02)
    uio.write_spectrum_csv(tmp_path / "input.csv", spectra.multimode_ld_spectrum(grid))
    scan, kernel = tmp_path / "scan.csv", tmp_path / "kernel.csv"
    assert run_cli(["scan", "--input", str(tmp_path / "input.csv"), "--out", str(scan),
                    "--write-kernel", str(kernel)])[0] == 0
    estimates = {"estimate_file": str(kernel), "estimate_model": "model"}
    for name, source in estimates.items():
        assert run_cli(["deconvolve", "--raw", str(scan), "--kernel", source,
                        "--out", str(tmp_path / f"{name}.csv")])[0] == 0
    raw, _ = uio.read_scan_csv(scan)
    kern, _ = uio.read_kernel_csv(kernel)
    arrays = {f"scan.{name}": getattr(raw, name) for name in
              ("sampled_counts", "expected_rate_cps", "signal_nm_mapped", "vbg_centers_nm")}
    arrays.update({f"kernel.{name}": getattr(kern, name) for name in
                   ("band_values", "band_start", "pump_grid_nm", "signal_grid_nm",
                    "mapped_signal_nm", "vbg_centers_nm")})
    for name in estimates:
        est, _ = uio.read_spectrum_csv(tmp_path / f"{name}.csv")
        arrays.update({f"{name}.grid_nm": est.grid_nm, f"{name}.values": est.values})
    digests = {key: hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
               for key, value in arrays.items()}
    assert digests == _WORKFLOW_DIGESTS


# SHA-256 of the grids and band of two more plans' kernels, read back from
# scan --write-kernel; the file stores neither grid, so both are derived and
# must stay what the file held when it stored them.
_KERNEL_PLANS = {
    "fixed-vbg-window": ("--tracking", "fixed", "--pump-start", "1944", "--pump-stop", "1956",
                         "--pump-step", "0.1"),
    "pump-step-0.07": ("--pump-step", "0.07"),
}
_KERNEL_DIGESTS = {
    "fixed-vbg-window": {
        "pump_grid_nm": "046725062234abd4dc5a607047093cb8a73ed54bd8dc9b3dde3c37ba659374dd",
        "signal_grid_nm": "804b16ec95a35e429edc1a9d089209c88461d267a4fe42b30863f4f72b7830c6",
        "band_values": "4f929c86ce4a543f4d027cfa597b056d3b78cf1df702b1e3aabd689ebbb28024",
    },
    "pump-step-0.07": {
        "pump_grid_nm": "55690964a18c419c01f4b49f6c69c0dbd9ae3710a5878a840e6282a352a4c3a1",
        "signal_grid_nm": "38dd50b427805a68ac8132865b1dedd07be38af9bbd745f63f6ee1dd44080a61",
        "band_values": "e8edc0424a03142c096bb05605ff8d5add31b80fb47b9e67d129a5f70bb09b60",
    },
}


@pytest.mark.parametrize("plan", list(_KERNEL_PLANS))
def test_kernel_file_grids_move_no_value(scan_workdir, tmp_path, plan):
    work, _ = scan_workdir
    kernel = tmp_path / "kernel.csv"
    assert run_cli(["scan", "--input", str(work / "input.csv"), "--out",
                    str(tmp_path / "scan.csv"), "--write-kernel", str(kernel),
                    *_KERNEL_PLANS[plan]])[0] == 0
    kern, _ = uio.read_kernel_csv(kernel)
    digests = {name: hashlib.sha256(np.ascontiguousarray(getattr(kern, name)).tobytes())
               .hexdigest() for name in _KERNEL_DIGESTS[plan]}
    assert digests == _KERNEL_DIGESTS[plan]


def test_deconvolve_rebuilds_the_kernel_by_default(scan_workdir, tmp_path):
    work, _ = scan_workdir
    scan = work / "scan.csv"
    assert (_estimate_bytes(scan, tmp_path / "est_default.csv")
            == _estimate_bytes(scan, tmp_path / "est_model.csv", "--kernel", "model"))


def test_cli_import_leaves_scipy_optimize_unloaded():
    # no calibration fit loads it, for two points or more
    src = os.path.dirname(os.path.dirname(upconvspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, upconvspec.cli; sys.exit('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "scipy.optimize was imported"


_LIST_MODULES = ("print(' '.join(sorted(m for m in sys.modules\n"
                 "    if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma'])))")
_RUN_CLI = ("import io, sys\nfrom upconvspec import cli\n"
            "assert cli.main(sys.argv[1:], out=io.StringIO()) == 0\n")


def _modules_after(code, *argv):
    """The scipy and numpy.ma modules a fresh interpreter holds after running
    code with argv."""
    src = os.path.dirname(os.path.dirname(upconvspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{_LIST_MODULES}",
                           *map(str, argv)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _three_point_config(path):
    """The bundled config with three conversion and three noise points.  The
    conversion points' extreme pair alone implies eta_max 1.096: a fit
    seeded from that pair made fom exit 4 on them."""
    raw = config.load_config().raw
    raw["conversion_points"] = [[22.0, 0.1131], [55.0, 0.254], [74.0, 0.3492]]
    raw["noise_points"] = [[20.0, 25.0], [30.0, 42.0], [58.0, 100.0]]
    path.write_text(yaml.safe_dump(raw))
    return path


@pytest.mark.parametrize("case", ["import upconvspec", "import upconvspec.cli", "scan",
                                  "fom", "fom with three-point fits", "design-qpm"])
def test_import_and_forward_commands_load_no_scipy(scan_workdir, tmp_path, case):
    work, _ = scan_workdir
    argv = {
        "scan": ["scan", "--input", work / "input.csv", "--out", tmp_path / "scan.csv",
                 "--pump-start", "1944", "--pump-stop", "1956", "--pump-step", "0.1",
                 "--write-kernel", tmp_path / "kernel.csv"],
        "fom": ["fom", "--pump-power", "30"],
        "fom with three-point fits": ["--config", _three_point_config(tmp_path / "three.yaml"),
                                      "fom", "--pump-power", "30"],
        "design-qpm": ["design-qpm", "--signal", "1550", "--pump", "1950"],
    }
    code = case if case.startswith("import") else _RUN_CLI
    assert _modules_after(code, *argv.get(case, [])) == []


@pytest.mark.parametrize("kernel", ["file", "model"])
def test_deconvolve_of_a_broad_scan_loads_no_scipy_or_numpy_ma(scan_workdir, tmp_path,
                                                               kernel):
    # RL runs on the operator's row blocks alone, however many columns it
    # flushes (test_rl_band.py runs a flushing line with scipy blocked).
    work, _ = scan_workdir
    assert _modules_after(
        _RUN_CLI, "deconvolve", "--raw", work / "scan.csv",
        "--kernel", "model" if kernel == "model" else work / "kernel.csv",
        "--out", tmp_path / "est.csv") == []
