"""Smoke test of the benchmark: a few ops of every workload, schema checked.

It takes about a minute, so its name keeps it out of the repository's
default test collection.  Run it by path from the root of a checkout:

    python3 -m pytest bench/tests/check_smoke.py
"""
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

# Every layer metric of the benchmark's layer table (bench/README.md).
LAYER_TABLE = (
    "import.cold_s", "config.load_ms", "config.calibrate_ms", "config.pin_ms",
    "dispersion.tuning_solves", "dispersion.qpm_cells", "dispersion.self_ms",
    "components.filter_ms",
    "spectrometer.build_kernel_ms", "spectrometer.build_kernel_self_ms",
    "spectrometer.tracking_schedule_ms", "spectrometer.usable_span_ms",
    "spectrometer.kernel_cells", "spectrometer.kernel_nnz_frac", "spectrometer.kernel_bytes",
    "spectrometer.expected_rates_ms",
    "counting.sample_ms", "counting.draws", "counting.ptrs_frac",
    "inverse.rl_iters_p50", "inverse.rl_iters_p90", "inverse.rl_ms_per_iter",
    "inverse.background_ms", "inverse.max_iter_frac",
    "io.kernel_write_ms", "io.kernel_read_ms", "io.kernel_csv_bytes", "io.scan_write_ms",
    "io.scan_read_ms", "io.scan_csv_bytes", "io.spectrum_read_ms",
    "unattributed.self_frac", "trace.overhead_frac",
)


def test_smoke_mode_checks_schema_and_layer_metrics():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0 and summary["ok"], summary["problems"]
    assert set(summary["traced_metrics"]) == {"mc_recover", "plan_sweep", "cli_files"}
    for workload, names in summary["traced_metrics"].items():
        missing = [m for m in LAYER_TABLE if m not in names]
        assert not missing, f"{workload} traced run lacks {missing}"


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "plan_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
