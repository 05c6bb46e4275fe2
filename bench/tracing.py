"""Span recording around calls into the package's public functions.

A traced run wraps the functions listed in TARGETS at run time.  The
wrapper replaces a function wherever a package module holds a reference to
it, so a call made through a `from .x import f` name (as `spectrometer`
does with the counting sampler, and `cli` with most of the package) is
recorded as well.  Nothing in the package is edited.

A span is a tuple (name, start, end, parent, info): `name` is
"<layer>.<function>", `parent` indexes the enclosing span (-1 for an op's
root span), and `info` carries a count taken from the call (cells computed,
sampler branch, RL iterations).  Spans stay in memory and are written out
when the run ends.
"""
import functools
import importlib
import sys
import time

TARGETS = {
    "config": ("load_config", "calibrated_waveguide", "pinned_models"),
    "dispersion": ("phase_matched_signal", "phase_matched_pump", "qpm_mismatch",
                   "refractive_index", "calibrate_operating_point",
                   "design_qpm_period", "acceptance_bandwidth"),
    "components": ("transmission", "vbg_transmission"),
    "spectrometer": ("build_kernel", "vbg_tracking_schedule", "fixed_vbg_usable_span",
                     "expected_rates", "forward_scan", "resolution"),
    "counting": ("rng_from_path", "sample_poisson"),
    "inverse": ("deconvolve", "estimate_background"),
    "io": ("read_spectrum_csv", "write_spectrum_csv", "read_kernel_csv",
           "write_kernel_csv", "read_scan_csv", "write_scan_csv"),
}

# The layers a span can belong to, in report order.  "bench" is the
# benchmark's own input generation and output checks; an op's root span is
# called "op", and its self time is the time no named layer accounts for.
LAYERS = ("import", "cli", "config", "spectrometer", "dispersion", "components",
          "counting", "inverse", "io", "bench")

KERNEL_NNZ_REL = 1e-12  # an entry counts as nonzero above this x the kernel max


def kernel_stats(matrix):
    """Exact size counts of a dense response kernel."""
    import numpy as np  # not at module level: cli_traced.py times the import

    m = np.asarray(matrix)
    return {"cells": int(m.size), "bytes": int(m.nbytes),
            "nnz": int(np.count_nonzero(m > KERNEL_NNZ_REL * float(m.max())))}


class Tracer:
    """Records spans; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._patched = []
        self._kernels = []     # kernels built inside traced calls, until flushed
        self.kernel_log = []   # their kernel_stats

    def span(self, name):
        return _Span(self, name)

    def flush_kernels(self):
        """Log the size counts of kernels built so far and drop the kernels."""
        self.kernel_log.extend(kernel_stats(k.matrix) for k in self._kernels)
        self._kernels.clear()

    def install(self):
        hooks = self._hooks()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "upconvspec" or n.startswith("upconvspec."))]
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"upconvspec.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original, hooks.get(fname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _hooks(self):
        import numpy as np
        from upconvspec import counting

        switch = float(getattr(counting, "_PTRS_SWITCH", 30.0))

        def keep_kernel(args, kwargs, result):
            self._kernels.append(result)

        return {
            "qpm_mismatch": lambda a, k, r: int(np.size(r)),
            "sample_poisson": lambda a, k, r: int(float(np.max(a[0])) >= switch),
            "deconvolve": lambda a, k, r: (r.iterations_used, r.stop_reason),
            "build_kernel": keep_kernel,
        }

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, t0, clock(), parent, None)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent,
                          hook(args, kwargs, result) if hook else None)
            return result

        return traced


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        spans, stack = self.tracer.spans, self.tracer._stack
        self.parent = stack[-1]
        self.idx = len(spans)
        spans.append(None)
        stack.append(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans[self.idx] = (self.name, self.t0, t1, self.parent, None)
        return False


def graft(tracer, child_spans):
    """Append spans recorded in another process under the open span.

    perf_counter reads the system-wide monotonic clock on Linux, so the
    child's times line up with the parent's.
    """
    spans, parent = tracer.spans, tracer._stack[-1]
    base = len(spans)
    for name, t0, t1, p, info in child_spans:
        spans.append((name, t0, t1, parent if p < 0 else base + p,
                      tuple(info) if isinstance(info, list) else info))


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def within(spans, name):
    """For each span, whether it runs inside a span called `name`."""
    inside = []
    for s in spans:
        p = s[3]
        inside.append(p >= 0 and (spans[p][0] == name or inside[p]))
    return inside
