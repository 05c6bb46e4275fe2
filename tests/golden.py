"""The values tests/golden.json pins, and the script that regenerates it.

    PYTHONPATH=src python tests/golden.py

rewrites tests/golden.json from the code in src/: the a01-a10 lines that
tests/test_acceptance.py prints (each test compares its own line), and what
tests/test_golden.py recomputes and compares:

- SHA-256 digests of band_start, band_values, mapped_signal_nm and
  vbg_centers_nm of the kernels of named plans (KERNEL_PLANS), among them
  plans whose row count is one below, equal to and one above a multiple of
  the rows a band chunk holds;
- the band entries of every ROW_STRIDE-th row of two top-hat builds, which
  call libm's erfc and are compared at TOP_HAT_RTOL relative, not by digest;
- digests of the sampled counts of a broad source for three seeds;
- digests of the deconvolve estimates of a broad source and a line at 1, 10
  and 100 s, with their iteration counts and stop reasons.

A change that moves any of them regenerates the file and says which entries
moved and why.  Digests pin numpy's float64 results bit for bit, and numpy
picks its exp and sin kernels by CPU (the file was made on x86-64 with
AVX-512).
"""
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
KERNEL_FIELDS = ("band_start", "band_values", "mapped_signal_nm", "vbg_centers_nm")
SEEDS = (1, 2, 20240901)
DWELLS_S = (1.0, 10.0, 100.0)
LINE_NM, LINE_W, DECONVOLVE_SEED = 1550.3, 1e-13, 11
ROW_STRIDE = 150
TOP_HAT_RTOL = 1e-15
# Rows of the band chunk the chunk-boundary plans straddle: 16384 band
# cells per chunk over the default plan's 36-column band.
CHUNK_ROWS = 16384 // 36
# The named plans, as ScanPlan fields replaced in the bundled plan.
KERNEL_PLANS = {
    "default": {},
    "fixed-1944-1956": {"vbg_tracking": "fixed", "pump_start_nm": 1944.0,
                        "pump_stop_nm": 1956.0, "pump_step_nm": 0.1},
    "pump-step-0.07": {"pump_step_nm": 0.07},
    "3001-rows": {"pump_step_nm": 0.02},
    # 2 x CHUNK_ROWS rows, one fewer and one more, at a 0.04 nm step: at the
    # default 0.05 nm step the 909-row plan's band is 35 columns wide
    **{f"{2 * CHUNK_ROWS + d}-rows": {"pump_step_nm": 0.04,
                                      "pump_stop_nm": 1920.0 + 0.04 * (2 * CHUNK_ROWS + d - 1)}
       for d in (-1, 0, 1)},
}


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def kernel_digests(kernel):
    return {name: digest(getattr(kernel, name)) for name in KERNEL_FIELDS}


def top_hat_builds(cfg):
    """(VbgState, filter chain) of the two top-hat builds of the bundled plan."""
    chain = [replace(f, lineshape="top_hat") if f.kind == "band_pass" else f
             for f in cfg.filters]
    return {"top-hat-vbg": (replace(cfg.vbg, lineshape="top_hat"), cfg.filters),
            "top-hat-band-pass": (cfg.vbg, chain)}


def sources(grid):
    from upconvspec import spectra

    return {"broad": spectra.multimode_ld_spectrum(grid),
            "line": spectra.monochromatic_spectrum(grid, LINE_NM, LINE_W)}


def scan_records(cfg, kernel, noise):
    """{"counts": seed -> digest, "deconvolve": name -> record} on kernel, the
    default plan's."""
    from upconvspec import inverse, spectrometer

    src = sources(kernel.signal_grid_nm)
    counts = {str(seed): digest(spectrometer.forward_scan(
        src["broad"], kernel, noise, replace(cfg.scan, seed=seed)).sampled_counts)
        for seed in SEEDS}
    estimates = {}
    for name, spectrum in src.items():
        for dwell in DWELLS_S:
            plan = replace(cfg.scan, dwell_s=dwell, seed=DECONVOLVE_SEED)
            res = inverse.deconvolve(spectrometer.forward_scan(spectrum, kernel, noise, plan),
                                     kernel, noise_model=noise)
            estimates[f"{name}-{dwell:g}s"] = {
                "values": digest(res.estimate.values), "iterations": res.iterations_used,
                "stop_reason": res.stop_reason}
    return {"counts": counts, "deconvolve": estimates}


def acceptance_lines():
    """a01-a10 as tests/test_acceptance.py prints them, from a pytest run."""
    root = os.path.dirname(os.path.dirname(GOLDEN_PATH))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                           os.path.join("tests", "test_acceptance.py")],
                          cwd=root, capture_output=True, text=True)
    # each test prints its line before it compares it with this file, so the
    # first match is the printed line; a moved line's assertion message
    # quotes both lines again, abridged, further down
    lines = {}
    for m in re.finditer(r"\[(PASS|FAIL)\] (\d\d) .*", proc.stdout):
        lines.setdefault(f"a{m.group(2)}", m.group(0))
    failed = sorted(k for k, line in lines.items() if line.startswith("[FAIL]"))
    if len(lines) != 10 or failed:
        raise SystemExit(f"acceptance run gave {len(lines)} lines, failed: {failed}\n"
                         + proc.stdout[-2000:])
    return dict(sorted(lines.items()))


def compute():
    """Every entry of the golden file but the acceptance lines."""
    from upconvspec import config, spectrometer

    cfg = config.load_config()
    wg = config.calibrated_waveguide(cfg)
    conv, noise = config.pinned_models(cfg)
    built = {name: spectrometer.build_kernel(wg, cfg.filters, cfg.vbg, conv,
                                             replace(cfg.scan, **fields))
             for name, fields in KERNEL_PLANS.items()}
    kernels = {name: {"plan": KERNEL_PLANS[name], "rows": int(kernel.band_values.shape[0]),
                      "width": int(kernel.band_values.shape[1]), **kernel_digests(kernel)}
               for name, kernel in built.items()}
    top_hat = {}
    for name, (vbg, chain) in top_hat_builds(cfg).items():
        kernel = spectrometer.build_kernel(wg, chain, vbg, conv, cfg.scan)
        top_hat[name] = {"band_start": digest(kernel.band_start),
                         "rows": kernel.band_values[::ROW_STRIDE].tolist()}
    return {"kernels": kernels, "top_hat": top_hat,
            **scan_records(cfg, built["default"], noise)}


def load():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def main():
    record = {"note": "made by tests/golden.py; top_hat rows are compared at "
                      f"{TOP_HAT_RTOL} relative, every other entry exactly",
              "acceptance": acceptance_lines(), **compute()}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
