"""Time one cold set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py SRC_DIR WORKLOAD

Imports the package from SRC_DIR, loads the bundled config, calibrates the
tuning map and pins the conversion and noise models; on mc_recover it also
builds the default kernel.  Prints one JSON object of stage times [s].
The caller times the whole process, interpreter start included.
"""
import json
import sys
import time

t_start = time.perf_counter()
src_dir, workload = sys.argv[1], sys.argv[2]
sys.path.insert(0, src_dir)
if workload == "cli_files":
    import upconvspec.cli  # noqa: F401  (what every CLI call imports)
from upconvspec import config, spectrometer  # noqa: E402

stages = {"import_s": time.perf_counter() - t_start}
t = time.perf_counter()
cfg = config.load_config()
stages["load_s"] = time.perf_counter() - t
t = time.perf_counter()
wg = config.calibrated_waveguide(cfg)
stages["calibrate_s"] = time.perf_counter() - t
t = time.perf_counter()
conv, noise = config.pinned_models(cfg)
stages["pin_s"] = time.perf_counter() - t
if workload == "mc_recover":
    t = time.perf_counter()
    spectrometer.build_kernel(wg, cfg.filters, cfg.vbg, conv, cfg.scan)
    stages["kernel_s"] = time.perf_counter() - t
print(json.dumps(stages))
