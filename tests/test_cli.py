"""End-to-end CLI runs, in process, against the bundled defaults."""
import io as sysio
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml
from dense_kernel import write_dense_kernel_csv

import upconvspec
from upconvspec import cli, config, dispersion, io as uio, spectra

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
    # The designed period phase matches the pair exactly, so dk == 0 falls
    # on the guess itself, a node of the root-search grid.
    code, _ = run_cli(["design-qpm", "--signal", "1551", "--pump", "1950"])
    assert code == 0
    probe = replace(wg3, qpm_period_um=dispersion.design_qpm_period(1551.0, 1950.0, wg3))
    assert dispersion.phase_matched_signal(1950.0, probe, guess_nm=1551.0) == pytest.approx(
        1551.0, abs=1e-6)


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
    assert report["residual_norm"] == pytest.approx(0.8878576069011208, rel=1e-9)
    assert report["background_cps"] == pytest.approx(42.592592592592595, rel=1e-12)
    assert report["config_hash"] == CONFIG_HASH
    assert report["seed"] == 7
    est, emeta = uio.read_spectrum_csv(work / "est.csv")
    peak_nm = float(est.grid_nm[np.argmax(est.values)])
    assert peak_nm == pytest.approx(1550.0119857371326, abs=1e-9)
    assert emeta["config_hash"] == CONFIG_HASH


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
    assert rep["residual_norm"] == pytest.approx(0.8878576069011208, rel=1e-9)


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
    assert "rebuild the kernel" in capsys.readouterr().err


def test_deconvolve_model_kernel_needs_the_tracking_header(scan_workdir, capsys):
    work, _ = scan_workdir
    lines = (work / "scan.csv").read_text().splitlines(keepends=True)
    (work / "scan_untracked.csv").write_text(
        "".join(l for l in lines if not l.startswith("# vbg_tracking:")))
    code, _ = run_cli(["deconvolve", "--raw", str(work / "scan_untracked.csv"),
                       "--kernel", "model", "--out", str(work / "est_untracked.csv")])
    assert code == 4
    assert "missing '# vbg_tracking:' header" in capsys.readouterr().err


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


def test_deconvolve_model_kernel_for_uneven_scan_grid(scan_workdir):
    # the rebuilt kernel's uniform grid cannot match a scan missing a point
    work, _ = scan_workdir
    raw, meta = uio.read_scan_csv(work / "scan.csv")
    keep = np.arange(raw.pump_grid_nm.size) != 60
    gapped = replace(raw, **{f: getattr(raw, f)[keep] for f in (
        "pump_grid_nm", "signal_nm_mapped", "expected_rate_cps", "sampled_counts",
        "vbg_centers_nm")})
    uio.write_scan_csv(work / "scan_gapped.csv", gapped, meta=meta)
    code, _ = run_cli(["deconvolve", "--raw", str(work / "scan_gapped.csv"),
                       "--kernel", "model", "--out", str(work / "est_gapped.csv")])
    assert code == 4


def test_cli_import_leaves_scipy_optimize_unloaded():
    # Two-point pins, the default, never fit; only >= 3-point fits load it.
    src = os.path.dirname(os.path.dirname(upconvspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, upconvspec.cli; sys.exit('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "scipy.optimize was imported"


_LIST_SCIPY = "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
_RUN_CLI = ("import io, sys\nfrom upconvspec import cli\n"
            "assert cli.main(sys.argv[1:], out=io.StringIO()) == 0\n")


def _scipy_modules_after(code, *argv):
    """The scipy modules a fresh interpreter holds after running code with argv."""
    src = os.path.dirname(os.path.dirname(upconvspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{_LIST_SCIPY}",
                           *map(str, argv)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("case", ["import upconvspec", "import upconvspec.cli", "scan",
                                  "fom", "design-qpm"])
def test_import_and_forward_commands_load_no_scipy(scan_workdir, tmp_path, case):
    work, _ = scan_workdir
    argv = {
        "scan": ["scan", "--input", work / "input.csv", "--out", tmp_path / "scan.csv",
                 "--pump-start", "1944", "--pump-stop", "1956", "--pump-step", "0.1",
                 "--write-kernel", tmp_path / "kernel.csv"],
        "fom": ["fom", "--pump-power", "30"],
        "design-qpm": ["design-qpm", "--signal", "1550", "--pump", "1950"],
    }
    code = case if case.startswith("import") else _RUN_CLI
    assert _scipy_modules_after(code, *argv.get(case, [])) == []


@pytest.mark.parametrize("kernel", ["file", "model"])
def test_deconvolve_loads_scipy_sparse_alone(scan_workdir, tmp_path, kernel):
    work, _ = scan_workdir
    loaded = _scipy_modules_after(
        _RUN_CLI, "deconvolve", "--raw", work / "scan.csv",
        "--kernel", "model" if kernel == "model" else work / "kernel.csv",
        "--out", tmp_path / "est.csv")
    assert "scipy.sparse" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.special", "scipy.optimize"))]
