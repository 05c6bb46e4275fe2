"""Benchmark of the upconvspec package.

    python3 bench/run.py --workload mc_recover --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1   # the three workloads in turn
    python3 bench/run.py --smoke                   # a few ops of each, schema check

Run it from the root of a checkout: the package is imported from ./src, and
outputs go to ./.bench_out.  One run sets up the workload (timed in fresh
interpreters), then runs whole cycles of ops for --seconds, one at a time,
and checks every op.  With --trace 0 it reports the end-to-end metrics;
with --trace 1 it runs each op untraced and then traced, and reports
per-layer metrics from the spans plus the tracing overhead.  It prints one
line per metric (value, unit, sample count) and, last, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when an
op fails its check, 2 when the package source is missing.
"""
import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("mc_recover", "plan_sweep", "cli_files")
SMOKE_OPS = {"mc_recover": 4, "plan_sweep": 3, "cli_files": 5}
SETUP_PROBES = 3  # fresh-interpreter set-ups timed for setup_s
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many ops (0: whole cycles for --seconds)")
    parser.add_argument("--smoke", action="store_true",
                        help="run a few ops of every workload and check the result schema")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "upconvspec", "__init__.py")):
        print("bench: no package source at src/upconvspec; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)],
                                timeout=900).returncode
                 for w in WORKLOAD_NAMES]
        return max(codes)

    sys.path.insert(0, SRC)
    import upconvspec
    if not os.path.realpath(upconvspec.__file__).startswith(os.path.realpath(SRC)):
        print(f"bench: imported {upconvspec.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.max_ops)
    print_result(result)
    return 0 if result["correct"] else 1


def run_workload(name, seed, seconds, trace, max_ops):
    from tracing import Tracer
    from workloads import WORKLOADS

    work = os.path.join(OUT, "work", f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        env = environment(seed)
        setups = [probe_setup(name) for _ in range(SETUP_PROBES)]
        wl = WORKLOADS[name](seed, SRC, work)
        wl.setup()
        tracer = Tracer()
        recs, elapsed = measure(wl, seconds, max_ops, tracer if trace else None)
        # A high-water mark: read it before the count pass builds a second kernel.
        who = resource.RUSAGE_CHILDREN if name == "cli_files" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        counts = {"count_pass": count_pass(wl, tracer),
                  "ops": [r["counts"] for r in recs]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in recs if r["error"]]
    metrics, extra = end_to_end(setups, recs, elapsed, peak_rss_mb, name)
    if trace:  # the traced run's own timings are not end-to-end figures
        metrics, extra = per_layer(tracer, setups, recs), {"fail_frac": extra["fail_frac"]}
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "elapsed_s": elapsed, "attempted": len(recs), "failed": len(failed),
        "correct": not failed, "failures": [f"op {r['index']} ({r['kind']}): {r['error']}"
                                            for r in failed],
        "metrics": metrics, "report_only": extra, "environment": env,
        "exact_counts": counts, "behaviour_change": compare_counts(name, seed, env, counts),
        "samples": {"setup": setups,
                    "ops": [{k: r[k] for k in ("kind", "latency_s", "traced_s", "error")
                             if k in r} for r in recs]},
    }
    stamp = f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    result["result_file"] = save_json(os.path.join(OUT, "results", stamp + ".json"), result)
    if trace:
        result["trace_file"] = save_json(os.path.join(OUT, "traces", stamp + ".json"),
                                         {"spans": tracer.spans, "kernels": tracer.kernel_log})
    return result


def probe_setup(name):
    """One cold set-up in a fresh interpreter: (wall s, stage times)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                           SRC, name], capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return wall, json.loads(proc.stdout.splitlines()[-1])


def measure(wl, seconds, max_ops, tracer):
    """Run whole cycles of ops until `seconds` have passed (or max_ops ops)."""
    recs = []
    t_start = time.perf_counter()
    cycle = 0
    while True:
        for op in wl.cycle(cycle):
            rec = {"index": len(recs), "kind": op["kind"]}
            rec["latency_s"], rec["error"], rec["counts"] = attempt(wl, op)
            if tracer is not None:
                tracer.install()
                try:
                    with tracer.span("op"):
                        rec["traced_s"], err, rec["counts"] = attempt(wl, op, tracer)
                finally:
                    tracer.uninstall()
                tracer.flush_kernels()
                rec["error"] = rec["error"] or (err and "traced: " + err)
            recs.append(rec)
            if max_ops and len(recs) >= max_ops:
                return recs, time.perf_counter() - t_start
        cycle += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds:
            return recs, elapsed


def attempt(wl, op, tracer=None):
    """Prepare, run (timed) and check one op: (latency s, error, counts)."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    with span("bench.inputs"):
        prepared = wl.prepare(op)
    t0 = time.perf_counter()
    try:
        out = wl.run(op, prepared, tracer)
    except Exception as exc:  # a failed op still counts, with its latency
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", {}
    latency = time.perf_counter() - t0
    with span("bench.check"):
        try:
            error, counts = wl.check(op, prepared, out)
        except Exception as exc:
            error, counts = f"check raised {type(exc).__name__}: {exc}", {}
    return latency, error, counts


def count_pass(wl, tracer):
    """Build the workload's first kernel traced and count the work in it."""
    from upconvspec import config, spectrometer

    plan = wl.count_plan()
    if plan is None:
        return {}
    wg = config.calibrated_waveguide(wl.cfg)
    conv, _ = config.pinned_models(wl.cfg)
    start = len(tracer.spans)
    tracer.install()
    try:
        with tracer.span("bench.count_pass"):
            spectrometer.build_kernel(wg, wl.cfg.filters, wl.cfg.vbg, conv, plan)
    finally:
        tracer.uninstall()
    tracer.flush_kernels()
    spans = tracer.spans[start:]
    return {"tuning_solves": sum(s[0] in ("dispersion.phase_matched_signal",
                                          "dispersion.phase_matched_pump") for s in spans),
            "qpm_cells": sum(s[4] for s in spans if s[0] == "dispersion.qpm_mismatch"),
            **tracer.kernel_log[-1]}


def _median(values):
    import numpy as np
    return float(np.median(values)) if len(values) else 0.0


def cli_walls(recs):
    from workloads import CliFiles
    return {f"cli.{kind}_s": [r["latency_s"] for r in recs if r["kind"] == kind]
            for kind in CliFiles.COMMANDS}


def end_to_end(setups, recs, elapsed, peak_rss_mb, name):
    """-> (metrics in BENCHMARK.json, metrics printed only), as name: (value, unit, n)."""
    import numpy as np

    lat_ms = np.array([r["latency_s"] for r in recs]) * 1e3
    n, failed = len(recs), sum(1 for r in recs if r["error"])
    metrics = {
        "setup_s": (_median([w for w, _ in setups]), "s", len(setups)),
        "op_p50_ms": (float(np.percentile(lat_ms, 50)), "ms", n),
        "op_p90_ms": (float(np.percentile(lat_ms, 90)), "ms", n),
        "ops_per_s": ((n - failed) / elapsed, "1/s", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    extra = {"fail_frac": (failed / n, "frac", n)}
    if name == "cli_files":
        extra.update({k: (_median(v), "s", len(v)) for k, v in cli_walls(recs).items()})
    return metrics, extra


def per_layer(tracer, setups, recs):
    from layers import layer_metrics

    stages = [s for _, s in setups]
    out = {
        "import.cold_s": (_median([s["import_s"] for s in stages]), "s", len(stages)),
        "config.load_ms": (_median([s["load_s"] for s in stages]) * 1e3, "ms", len(stages)),
        "config.calibrate_ms": (_median([s["calibrate_s"] for s in stages]) * 1e3, "ms",
                                len(stages)),
        "config.pin_ms": (_median([s["pin_s"] for s in stages]) * 1e3, "ms", len(stages)),
    }
    out.update(layer_metrics(tracer.spans, tracer.kernel_log))
    for key in ("kernel_csv_bytes", "scan_csv_bytes"):
        sizes = [r["counts"][key] for r in recs if key in r["counts"]]
        out[f"io.{key}"] = (_median(sizes), "B", len(sizes))
    for key, walls in cli_walls(recs).items():  # no samples off cli_files
        out[key] = (_median(walls), "s", len(walls))
    untraced = sum(r["latency_s"] for r in recs)
    traced = sum(r["traced_s"] for r in recs)
    out["trace.overhead_ms"] = ((traced - untraced) / len(recs) * 1e3, "ms", len(recs))
    out["trace.overhead_frac"] = (traced / untraced - 1.0, "frac", len(recs))
    return out


def code_hash():
    """Hash of the package and benchmark sources: what 'the same code' means."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "upconvspec"), BENCH_DIR):
        for dirpath, dirnames, files in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("__pycache__", "tests"))
            for f in sorted(files):
                if f.endswith((".py", ".yaml")):
                    path = os.path.join(dirpath, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def compare_counts(name, seed, env, counts):
    """Differences from an earlier run of the same code and seed.

    These counts repeat exactly, so any difference is a behaviour change,
    not noise.  Ops are compared over the prefix both runs completed.
    """
    path = os.path.join(OUT, "counts", f"{name}-seed{seed}-{env['code_hash'][:16]}.json")
    changes = []
    if os.path.exists(path):
        with open(path) as fh:
            prev = json.load(fh)
        if prev["count_pass"] != counts["count_pass"]:
            changes.append(f"count pass {prev['count_pass']} -> {counts['count_pass']}")
        for i, (a, b) in enumerate(zip(prev["ops"], counts["ops"])):
            if a != b:
                changes.append(f"op {i}: {a} -> {b}")
        if len(counts["ops"]) <= len(prev["ops"]):
            return changes
    save_json(path, counts)
    return changes


def environment(seed):
    import numpy
    import scipy

    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "cpu_affinity": sorted(os.sched_getaffinity(0)),
           "cpu_model": None, "caches": {},
           "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
           "git_commit": git_commit(), "code_hash": code_hash(), "seed": seed}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for entry in sorted(os.listdir(cache_dir)):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(cache_dir, entry, key)) as fh:
                    fields[key] = fh.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
            env["caches"][f"L{fields['level']}{kind}"] = fields["size"]
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.26 has no dicts mode
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return env


def git_commit():
    """HEAD commit of the checkout; None when it is not the root of a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    top, commit = lines
    return commit if os.path.realpath(top) == os.path.realpath(ROOT) else None


def save_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return os.path.relpath(path, ROOT)


def print_result(result):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  elapsed {result['elapsed_s']:.2f} s  "
          f"ops {result['attempted']}  failed {result['failed']}")
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}")
    for change in result["behaviour_change"][:20]:
        print(f"BEHAVIOUR CHANGE (same code and seed) {change}")
    print(f"{'metric':36s} {'value':>14s} {'unit':6s} {'n':>6s}")
    for section in ("metrics", "report_only"):
        for key, (value, unit, n) in result[section].items():
            print(f"{key:36s} {value:14.6g} {unit:6s} {n:6d}")
    print(f"result {result['result_file']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in result["metrics"].items()}}))


def smoke():
    """A few ops of every workload, traced and untraced; check the schema."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems, traced = [], {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            tag = f"{name} trace {trace}"
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", "1",
                 "--seconds", "0", "--trace", str(trace),
                 "--max-ops", str(SMOKE_OPS[name])],
                capture_output=True, text=True, timeout=300)
            print(proc.stdout, end="")
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode} {proc.stderr.strip()[-300:]}")
                continue
            last = json.loads(lines[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: last line keys {sorted(last)}")
            if not (last["correct"] and last["attempted"] >= 1 and last["failed"] == 0):
                problems.append(f"{tag}: correct={last['correct']} failed={last['failed']}")
            got = {k: m["unit"] for k, m in last["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want[trace]))}")
            report = next(line.split(None, 1)[1] for line in lines if line.startswith("result "))
            with open(os.path.join(ROOT, report)) as fh:
                full = json.load(fh)
            for key, entry in {**full["metrics"], **full["report_only"]}.items():
                value, unit, n = entry
                if not (key and unit and isinstance(n, int)
                        and isinstance(value, (int, float))):
                    problems.append(f"{tag}: metric {key!r} lacks a value, unit or count")
            if trace:
                traced[name] = sorted(last["metrics"])
    for p in problems:
        print(f"SMOKE PROBLEM {p}")
    print(json.dumps({"ok": not problems, "problems": problems, "traced_metrics": traced}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
