"""The three benchmark workloads: inputs drawn from the seed, ops, checks.

Each workload is one closed-loop client in one process: an op starts when
the previous one has finished and been checked.  Ops come in cycles of a
fixed composition (see each class), and a run measures whole cycles, so
every run sees the same mix of op kinds whatever its seed.  The package
sees only the generated inputs.

An op goes through prepare (make its inputs; not timed), run (the timed
call into the package) and check (correctness, plus the exact counts that
must repeat between runs of the same code and seed).
"""
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

from upconvspec import config, inverse, spectra, spectrometer

from tracing import graft, kernel_stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DWELLS_S = (1.0, 10.0, 100.0)
SOURCE_DBM = (-105.0, -95.0)


def cycle_rng(seed, cycle):
    return np.random.default_rng([seed, cycle])


class McRecover:
    """Monte-Carlo recovery study on the default instrument.

    Set-up builds the default tracked kernel once.  Each op draws a source,
    forward-models a Poisson-sampled scan and recovers the spectrum with RL.
    A cycle is three broad multimode-LD sources, one at each dwell in
    DWELLS_S, then one single-line source at a drawn dwell: broad sources
    carry the median (sampler-bound), line sources run RL to its cap and
    carry the 90th percentile.
    """

    name = "mc_recover"

    def __init__(self, seed, src_dir, work_dir):
        self.seed = seed

    def setup(self):
        self.cfg = config.load_config()
        wg = config.calibrated_waveguide(self.cfg)
        conv, self.noise = config.pinned_models(self.cfg)
        self.kernel = spectrometer.build_kernel(wg, self.cfg.filters, self.cfg.vbg,
                                                conv, self.cfg.scan)

    def count_plan(self):
        return self.cfg.scan

    def cycle(self, c):
        rng = cycle_rng(self.seed, c)
        lo = float(self.kernel.mapped_signal_nm.min())
        hi = float(self.kernel.mapped_signal_nm.max())
        edges = np.linspace(*SOURCE_DBM, 4)
        dbm = rng.permutation([rng.uniform(edges[k], edges[k + 1]) for k in range(3)])
        ops = [{"kind": "broad", "dwell_s": float(d), "dbm": float(p),
                "center_nm": float(rng.uniform(lo + 2.0, hi - 2.0)),
                "scan_seed": int(rng.integers(2**31))}
               for d, p in zip(rng.permutation(DWELLS_S), dbm)]
        ops.append({"kind": "line", "dwell_s": float(rng.choice(DWELLS_S)),
                    "dbm": float(rng.uniform(*SOURCE_DBM)),
                    "center_nm": float(rng.uniform(lo + 1.0, hi - 1.0)),
                    "scan_seed": int(rng.integers(2**31))})
        return ops

    def prepare(self, op):
        grid = self.kernel.signal_grid_nm
        if op["kind"] == "broad":
            source = spectra.multimode_ld_spectrum(grid, center_nm=op["center_nm"],
                                                   total_dbm=op["dbm"])
        else:
            source = spectra.monochromatic_spectrum(grid, op["center_nm"],
                                                    10.0 ** (op["dbm"] / 10.0) * 1e-3)
        plan = replace(self.cfg.scan, dwell_s=op["dwell_s"], seed=op["scan_seed"])
        return source, plan

    def run(self, op, prepared, tracer=None):
        source, plan = prepared
        scan = spectrometer.forward_scan(source, self.kernel, self.noise, plan)
        return scan, inverse.deconvolve(scan, self.kernel, noise_model=self.noise)

    def check(self, op, prepared, out):
        source, _ = prepared
        scan, result = out
        counts = {"draws": int(scan.sampled_counts.size),
                  "counts_sum": int(scan.sampled_counts.sum()),
                  "rl_iters": int(result.iterations_used),
                  "stop_reason": result.stop_reason}
        est = result.estimate
        power_err = est.total_power_w() / source.total_power_w() - 1.0
        centroid_err = _centroid(est) - _centroid(source)
        if abs(power_err) > 0.05:
            return f"recovered power off by {power_err:+.2%}", counts
        if abs(centroid_err) > 0.32:
            return f"centroid off by {centroid_err:+.3f} nm", counts
        return None, counts


def _centroid(spectrum):
    return float(np.trapezoid(spectrum.values * spectrum.grid_nm, spectrum.grid_nm)
                 / np.trapezoid(spectrum.values, spectrum.grid_nm))


class PlanSweep:
    """Scan-plan design study: one kernel per drawn plan, no sampling or RL.

    A cycle is the full cross of 8 window widths evenly spaced over 6-60 nm
    and the three pump steps, in a shuffled order, with 12 tracked and 12
    fixed-VBG plans; the window position and pump power (10-58 mW) are
    drawn.  Fixed width levels keep the kernel sizes, and so the cost mix,
    the same in every cycle: from 61 x 371 to 3001 x 2052.
    """

    name = "plan_sweep"
    WIDTH_NM = (6.0, 60.0)
    STEPS_NM = (0.02, 0.05, 0.1)
    SCAN_NM = (1920.0, 1980.0)

    def __init__(self, seed, src_dir, work_dir):
        self.seed = seed

    def setup(self):
        self.cfg = config.load_config()
        self.wg = config.calibrated_waveguide(self.cfg)
        self.conv, self.noise = config.pinned_models(self.cfg)

    def count_plan(self):
        return self.prepare(self.cycle(0)[0])

    def cycle(self, c):
        rng = cycle_rng(self.seed, c)
        cells = [(float(w), step) for w in np.linspace(*self.WIDTH_NM, 8)
                 for step in self.STEPS_NM]
        modes = rng.permutation(["tracked", "fixed"] * 12)
        ops = []
        for i in rng.permutation(len(cells)):
            width, step = cells[i]
            start = float(rng.uniform(self.SCAN_NM[0], self.SCAN_NM[1] - width))
            ops.append({"kind": "plan", "pump_start_nm": start,
                        "pump_stop_nm": start + width, "pump_step_nm": step,
                        "vbg_tracking": str(modes[i]),
                        "pump_power_mw": float(rng.uniform(10.0, 58.0))})
        return ops

    def prepare(self, op):
        return replace(self.cfg.scan, pump_start_nm=op["pump_start_nm"],
                       pump_stop_nm=op["pump_stop_nm"], pump_step_nm=op["pump_step_nm"],
                       vbg_tracking=op["vbg_tracking"], pump_power_mw=op["pump_power_mw"])

    def run(self, op, plan, tracer=None):
        kernel = spectrometer.build_kernel(self.wg, self.cfg.filters, self.cfg.vbg,
                                           self.conv, plan)
        mid = kernel.mapped_signal_nm.size // 2
        line_nm = float(kernel.mapped_signal_nm[mid])
        line = spectra.monochromatic_spectrum(kernel.signal_grid_nm, line_nm, 1e-13)
        rates = spectrometer.expected_rates(line, kernel, self.noise, plan.pump_power_mw)
        return kernel, line_nm, rates, spectrometer.resolution(kernel, self.cfg.vbg)

    def check(self, op, plan, out):
        kernel, line_nm, rates, res = out
        m = kernel.matrix
        counts = kernel_stats(m)
        counts["rows"] = int(m.shape[0])
        if not np.all(np.isfinite(m)) or m.min() < 0:
            return "kernel has negative or non-finite entries", counts
        peak_off = float(kernel.mapped_signal_nm[np.argmax(rates)]) - line_nm
        if abs(peak_off) > 0.16:
            return f"line response peaks {peak_off:+.3f} nm off the line", counts
        if plan.vbg_tracking == "tracked":
            rel = res.numeric_fwhm_nm / res.analytic_fwhm_nm - 1.0
            if abs(rel) > 0.10:
                return f"numeric FWHM {rel:+.1%} off the analytic value", counts
        return None, counts


class CliFiles:
    """The file-based workflow: one `python -m upconvspec` process per op.

    A cycle is scan --write-kernel, deconvolve --kernel <file>, deconvolve
    --kernel model, fom and design-qpm, in that order; the scan reads a
    spectrum CSV drawn from the seed and later ops read the files earlier
    ones wrote.  Nothing is cached between ops: each pays interpreter start,
    import and CSV I/O.
    """

    name = "cli_files"
    COMMANDS = ("scan", "deconvolve_file", "deconvolve_model", "fom", "design_qpm")
    SPECTRUM_NM = (1525.0, 1580.0, 0.01)

    def __init__(self, seed, src_dir, work_dir):
        self.seed = seed
        self.src_dir = src_dir
        self.work = work_dir
        self.env = dict(os.environ, PYTHONPATH=src_dir)

    def setup(self):
        self.cfg = config.load_config()
        self.points = int(self.cfg.scan.pump_grid_nm().size)
        self.files = {k: os.path.join(self.work, k) for k in
                      ("spectrum.csv", "scan.csv", "kernel.csv", "est_file.csv",
                       "est_model.csv", "spans.json")}

    def count_plan(self):
        return None

    def cycle(self, c):
        rng = cycle_rng(self.seed, c)
        # design-qpm takes a calibration anchor pair: for most other pairs on
        # the tuning curve the package exits 4 (two roots in its +-20 nm
        # acceptance-bandwidth bracket), a package defect left to a fix there.
        pump_nm, signal_nm = self.cfg.anchors[int(rng.integers(len(self.cfg.anchors)))]
        source = {"center_nm": float(rng.uniform(1537.0, 1567.0)),
                  "dbm": float(rng.uniform(*SOURCE_DBM))}
        f = self.files
        argvs = (
            ["scan", "--input", f["spectrum.csv"], "--out", f["scan.csv"],
             "--seed", str(int(rng.integers(2**31))), "--write-kernel", f["kernel.csv"]],
            ["deconvolve", "--raw", f["scan.csv"], "--kernel", f["kernel.csv"],
             "--out", f["est_file.csv"]],
            ["deconvolve", "--raw", f["scan.csv"], "--kernel", "model",
             "--out", f["est_model.csv"]],
            ["fom", "--pump-power", f"{rng.uniform(10.0, 58.0):.3f}"],
            ["design-qpm", "--signal", repr(signal_nm), "--pump", repr(pump_nm)],
        )
        return [{"kind": kind, "argv": argv, "source": source}
                for kind, argv in zip(self.COMMANDS, argvs)]

    def prepare(self, op):
        if op["kind"] != "scan":
            return None
        lo, hi, step = self.SPECTRUM_NM
        grid = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
        src = spectra.multimode_ld_spectrum(grid, center_nm=op["source"]["center_nm"],
                                            total_dbm=op["source"]["dbm"])
        with open(self.files["spectrum.csv"], "w") as fh:
            fh.write("wavelength_nm,power_w_per_nm\n")
            for x, y in zip(src.grid_nm, src.values):
                fh.write(f"{float(x)!r},{float(y)!r}\n")
        op["source"]["power_w"] = src.total_power_w()
        return None

    def run(self, op, prepared, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "upconvspec", *op["argv"]]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_traced.py"),
                   self.src_dir, self.files["spans.json"], "--", *op["argv"]]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=150)
        if tracer is not None and os.path.exists(self.files["spans.json"]):
            with open(self.files["spans.json"]) as fh:
                child = json.load(fh)
            os.remove(self.files["spans.json"])
            graft(tracer, child["spans"])
            tracer.kernel_log.extend(child["kernels"])
        return proc

    def check(self, op, prepared, proc):
        counts = {"exit": proc.returncode}
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}", counts
        kind, f = op["kind"], self.files
        if kind == "scan":
            counts["scan_csv_bytes"] = os.path.getsize(f["scan.csv"])
            counts["kernel_csv_bytes"] = os.path.getsize(f["kernel.csv"])
            rows = len(_data_rows(f["scan.csv"]))
            counts["scan_rows"] = rows
            if rows != self.points:
                return f"scan CSV has {rows} rows for {self.points} pump points", counts
        elif kind.startswith("deconvolve"):
            out = f["est_file.csv"] if kind == "deconvolve_file" else f["est_model.csv"]
            with open(out + ".report.json") as fh:
                counts["rl_iters"] = json.load(fh)["iterations_used"]
            data = np.array([[float(v) for v in row.split(",")] for row in _data_rows(out)])
            power = float(np.trapezoid(data[:, 1], data[:, 0]))
            err = power / op["source"]["power_w"] - 1.0
            if abs(err) > 0.05:
                return f"deconvolved power off by {err:+.2%}", counts
        else:
            fields = dict(line.split(None, 1) for line in proc.stdout.splitlines() if line)
            key = "efficiency" if kind == "fom" else "qpm_period_um"
            value = float(fields.get(key, "nan").split()[0])
            ok = 0.0 < value <= 1.0 if kind == "fom" else 5.0 < value < 50.0
            if not ok:
                return f"{key} = {value!r} out of range", counts
        return None, counts


def _data_rows(path):
    """Data rows of a package CSV: no '#' comments, no column header."""
    with open(path) as fh:
        rows = [line for line in fh if line.strip() and not line.startswith("#")]
    return rows[1:]


WORKLOADS = {w.name: w for w in (McRecover, PlanSweep, CliFiles)}
