"""Per-layer metrics of a traced run, derived from its spans.

Per-op figures divide by the number of op root spans; per-kernel figures by
the number of `build_kernel` spans (ops plus the count pass); per-call
figures are means over the calls made.  A layer the workload does not use
reads 0 with a sample count of 0.
"""
import numpy as np

from tracing import LAYERS, self_times, within

IO_CALLS = {
    "io.kernel_write_ms": "io.write_kernel_csv",
    "io.kernel_read_ms": "io.read_kernel_csv",
    "io.scan_write_ms": "io.write_scan_csv",
    "io.scan_read_ms": "io.read_scan_csv",
    "io.spectrum_read_ms": "io.read_spectrum_csv",
    "io.spectrum_write_ms": "io.write_spectrum_csv",
}


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def _sum_per(values, n):
    return float(np.sum(values)) / n if n else 0.0


def layer_metrics(spans, kernel_log):
    """-> {metric name: (value, unit, samples)} from the spans of a run."""
    out = {}
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    own = self_times(spans)
    in_op = within(spans, "op")
    in_kernel = within(spans, "spectrometer.build_kernel")

    def idx(name, inside=None):
        return [i for i, n in enumerate(names) if n == name and (inside is None or inside[i])]

    roots = idx("op")
    n_ops = len(roots)
    for layer in LAYERS:
        sel = [own[i] for i, n in enumerate(names) if in_op[i] and n.split(".", 1)[0] == layer]
        out[f"{layer}.self_ms"] = (_sum_per(sel, n_ops) * 1e3, "ms", n_ops)
    root_own = [own[i] for i in roots]
    out["unattributed.self_ms"] = (_sum_per(root_own, n_ops) * 1e3, "ms", n_ops)
    total = float(np.sum([dur[i] for i in roots]))
    out["unattributed.self_frac"] = (float(np.sum(root_own)) / total if total else 0.0,
                                     "frac", n_ops)

    kernels = idx("spectrometer.build_kernel")
    nk = len(kernels)

    def kernel_part(pred, values):
        return _sum_per([values[i] for i, n in enumerate(names) if in_kernel[i] and pred(n)], nk)

    solves = kernel_part(lambda n: n in ("dispersion.phase_matched_signal",
                                         "dispersion.phase_matched_pump"), [1] * len(names))
    out["dispersion.tuning_solves"] = (solves, "count", nk)
    cells = [s[4] if s[0] == "dispersion.qpm_mismatch" else 0 for s in spans]
    out["dispersion.qpm_cells"] = (kernel_part(lambda n: n == "dispersion.qpm_mismatch", cells),
                                   "count", nk)
    out["components.filter_ms"] = (kernel_part(lambda n: n.startswith("components."), dur) * 1e3,
                                   "ms", nk)
    out["spectrometer.build_kernel_ms"] = (_mean([dur[i] for i in kernels]) * 1e3, "ms", nk)
    out["spectrometer.build_kernel_self_ms"] = (_mean([own[i] for i in kernels]) * 1e3, "ms", nk)
    out["spectrometer.tracking_schedule_ms"] = (
        kernel_part(lambda n: n == "spectrometer.vbg_tracking_schedule", dur) * 1e3, "ms", nk)
    out["spectrometer.usable_span_ms"] = (
        kernel_part(lambda n: n == "spectrometer.fixed_vbg_usable_span", dur) * 1e3, "ms", nk)
    nkl = len(kernel_log)
    k_cells = [k["cells"] for k in kernel_log]
    out["spectrometer.kernel_cells"] = (_mean(k_cells), "count", nkl)
    out["spectrometer.kernel_nnz_frac"] = (
        float(np.sum([k["nnz"] for k in kernel_log])) / np.sum(k_cells) if nkl else 0.0,
        "frac", nkl)
    out["spectrometer.kernel_bytes"] = (_mean([k["bytes"] for k in kernel_log]), "B", nkl)
    rates = idx("spectrometer.expected_rates", in_op)
    out["spectrometer.expected_rates_ms"] = (_mean([dur[i] for i in rates]) * 1e3, "ms",
                                             len(rates))

    in_scan = within(spans, "spectrometer.forward_scan")
    scans = idx("spectrometer.forward_scan", in_op)
    draws = idx("counting.sample_poisson", in_scan)
    sampling = [dur[i] for i, n in enumerate(names) if in_scan[i] and n.startswith("counting.")]
    out["counting.sample_ms"] = (_sum_per(sampling, len(scans)) * 1e3, "ms", len(scans))
    out["counting.draws"] = (_sum_per([1] * len(draws), len(scans)), "count", len(scans))
    out["counting.ptrs_frac"] = (_mean([spans[i][4] for i in draws]), "frac", len(draws))

    decs = idx("inverse.deconvolve", in_op)
    iters = [spans[i][4][0] for i in decs]
    out["inverse.rl_iters_p50"] = (float(np.percentile(iters, 50)) if iters else 0.0,
                                   "count", len(decs))
    out["inverse.rl_iters_p90"] = (float(np.percentile(iters, 90)) if iters else 0.0,
                                   "count", len(decs))
    out["inverse.rl_ms_per_iter"] = (
        float(np.sum([own[i] for i in decs])) / np.sum(iters) * 1e3 if decs else 0.0,
        "ms", int(np.sum(iters)))
    bg = idx("inverse.estimate_background", in_op)
    out["inverse.background_ms"] = (_mean([dur[i] for i in bg]) * 1e3, "ms", len(bg))
    out["inverse.max_iter_frac"] = (
        _mean([spans[i][4][1] == "max_iterations" for i in decs]), "frac", len(decs))

    for metric, call in IO_CALLS.items():
        calls = idx(call, in_op)
        out[metric] = (_mean([dur[i] for i in calls]) * 1e3, "ms", len(calls))
    return out
