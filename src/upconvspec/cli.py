"""Command-line surface: design-qpm, fom, scan, deconvolve.

Every command is deterministic given the config file and seed; every output
CSV is one of io's tables and carries the config hash and seed in its
comment header.  A deconvolve's iteration count, stop reason and dwell go to
its JSON report only.  Exit codes:
0 success, 2 usage/file problems, 3 config problems, 4 physics or solver
failures.
"""
import argparse
import json
import math
import sys
from dataclasses import replace

from . import dispersion, io
from .config import calibrated_waveguide, config_hash, load_config, pinned_models
from .errors import ConfigError, DomainError, UpconvError
from .fom import CONVENTIONS, OperatingPoint, nep
from .inverse import deconvolve
from .spectrometer import ScanPlan, build_kernel, forward_scan, resolution

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_SOLVER = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="upconvspec",
        description="Upconversion single-photon detector / pump-scanned "
                    "spectrometer model",
    )
    parser.add_argument("--config", default=None, metavar="YAML",
                        help="config file (default: bundled instrument defaults)")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design-qpm", help="poling period for a signal/pump pair")
    d.add_argument("--pump", type=float, required=True, metavar="NM")
    d.add_argument("--signal", type=float, required=True, metavar="NM")
    d.add_argument("--temp", type=float, default=None, metavar="C",
                   help="override the config's waveguide temperature")

    f = sub.add_parser("fom", help="efficiency, noise rate and NEP at a pump power")
    f.add_argument("--pump-power", type=float, required=True, metavar="MW")
    f.add_argument("--nep-convention", choices=CONVENTIONS, default=None,
                   help="default: the config's convention")
    f.add_argument("--signal", type=float, default=None, metavar="NM")

    s = sub.add_parser("scan", help="forward-model a pump scan of an input spectrum")
    s.add_argument("--input", required=True, metavar="CSV",
                   help="input spectral density (wavelength_nm,power_w_per_nm)")
    s.add_argument("--out", required=True, metavar="CSV")
    s.add_argument("--pump-start", type=float, default=None, metavar="NM")
    s.add_argument("--pump-stop", type=float, default=None, metavar="NM")
    s.add_argument("--pump-step", type=float, default=None, metavar="NM")
    s.add_argument("--dwell", type=float, default=None, metavar="S")
    s.add_argument("--power", type=float, default=None, metavar="MW")
    s.add_argument("--tracking", choices=("tracked", "fixed"), default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--no-sample", action="store_true",
                   help="skip Poisson sampling; counts column stays zero")
    s.add_argument("--write-kernel", default=None, metavar="CSV",
                   help="also save the response kernel used")

    dc = sub.add_parser("deconvolve", help="recover the input spectrum from a scan")
    dc.add_argument("--raw", required=True, metavar="CSV", help="scan CSV")
    dc.add_argument("--kernel", default="model", metavar="CSV|model",
                    help="kernel CSV path, or 'model' (the default) to rebuild the "
                         "scan plan's kernel from the config")
    dc.add_argument("--out", required=True, metavar="CSV")
    dc.add_argument("--report", default=None, metavar="JSON",
                    help="default: <out>.report.json")
    dc.add_argument("--max-iters", type=int, default=500)
    dc.add_argument("--discrepancy", type=float, default=1.0,
                    help="chi^2-per-point stopping target (0 = run to the cap)")
    dc.add_argument("--noise-floor-cps", type=float, default=None,
                    help="background rate override; default: estimate from the scan")
    return parser


# scan flag dest -> the ScanPlan field it overrides
_PLAN_FLAGS = {"pump_start": "pump_start_nm", "pump_stop": "pump_stop_nm",
               "pump_step": "pump_step_nm", "dwell": "dwell_s", "power": "pump_power_mw",
               "tracking": "vbg_tracking", "seed": "seed"}


def _plan_from_args(cfg, args):
    return replace(cfg.scan, **{name: getattr(args, dest) for dest, name in _PLAN_FLAGS.items()
                                if getattr(args, dest) is not None})


def _cmd_design_qpm(cfg, args, out):
    wg = calibrated_waveguide(cfg)
    if args.temp is not None:
        wg = replace(wg, temperature_c=args.temp)
    period = dispersion.design_qpm_period(args.signal, args.pump, wg)
    probe = replace(wg, qpm_period_um=period)
    bw = dispersion.acceptance_bandwidth(probe, args.pump, args.signal)
    out.write(f"signal_nm            {args.signal:.3f}\n")
    out.write(f"pump_nm              {args.pump:.3f}\n")
    out.write(f"temperature_c        {wg.temperature_c:.2f}\n")
    out.write(f"qpm_period_um        {period:.6f}\n")
    out.write(f"sfg_nm               {bw.sfg_nm:.6f}\n")
    out.write(f"acceptance_fwhm_nm   {bw.signal_band_fwhm_nm:.6f} (signal band)\n")
    out.write(f"acceptance_fwhm_nm   {bw.sfg_band_fwhm_nm:.6f} (sfg band)\n")
    return EXIT_OK


def _cmd_fom(cfg, args, out):
    conv, noise = pinned_models(cfg)
    power = args.pump_power
    if not (math.isfinite(power) and power > 0):
        raise DomainError(f"pump power must be finite and positive, got {power} mW")
    signal_nm = args.signal if args.signal is not None else cfg.fom_signal_nm
    point = OperatingPoint(signal_nm=signal_nm, efficiency=conv.efficiency(power),
                           background_cps=noise.rate(power))
    result = nep(point, convention=args.nep_convention or cfg.nep_convention)
    out.write(f"pump_power_mw        {power:.3f}\n")
    out.write(f"efficiency           {point.efficiency:.6f}\n")
    out.write(f"noise_rate_cps       {point.background_cps:.6f}\n")
    out.write(f"nep_w_per_sqrt_hz    {result.nep_w_per_sqrt_hz:.6e}\n")
    out.write(f"nep_dbm              {result.nep_dbm:.4f}\n")
    out.write(f"nep_convention       {result.convention}\n")
    return EXIT_OK


def _cmd_scan(cfg, args, out):
    spectrum, _ = io.read_spectrum_csv(args.input)
    plan = _plan_from_args(cfg, args)
    wg = calibrated_waveguide(cfg)
    conv, noise = pinned_models(cfg)
    kernel = build_kernel(wg, cfg.filters, cfg.vbg, conv, plan)
    result = forward_scan(spectrum, kernel, noise, plan, sample=not args.no_sample)
    meta = {"config_hash": config_hash(cfg), "input": args.input}
    io.write_scan_csv(args.out, result, meta=meta)
    if args.write_kernel:
        io.write_kernel_csv(args.write_kernel, kernel,
                            meta={"config_hash": config_hash(cfg)})
    res = resolution(kernel, cfg.vbg)
    out.write(f"points               {kernel.pump_grid_nm.size}\n")
    out.write(f"dwell_s              {plan.dwell_s}\n")
    out.write(f"total_counts         {int(result.sampled_counts.sum())}\n")
    out.write(f"noise_rate_cps       {noise.rate(plan.pump_power_mw):.4f}\n")
    out.write(f"resolution_nm        {res.analytic_fwhm_nm:.4f} (analytic) "
              f"{res.numeric_fwhm_nm:.4f} (numeric)\n")
    out.write(f"wrote                {args.out}\n")
    return EXIT_OK


def _config_hash_of(meta, path):
    if "config_hash" not in meta:
        raise DomainError(f"{path}: missing '# config_hash:' header, which deconvolve "
                          "needs to match the scan with its kernel")
    return meta["config_hash"]


def _cmd_deconvolve(cfg, args, out):
    raw, raw_meta = io.read_scan_csv(args.raw)
    scan_hash, cfg_hash = _config_hash_of(raw_meta, args.raw), config_hash(cfg)
    if scan_hash != cfg_hash:
        raise DomainError(f"scan config_hash {scan_hash} differs from the config's "
                          f"{cfg_hash}; use the config the scan was made with")
    conv, noise = pinned_models(cfg)
    if args.kernel == "model":
        kernel = build_kernel(calibrated_waveguide(cfg), cfg.filters, cfg.vbg, conv,
                              raw.plan)
    else:
        kernel, kernel_meta = io.read_kernel_csv(args.kernel)
        kernel_hash = _config_hash_of(kernel_meta, args.kernel)
        if scan_hash != kernel_hash:
            raise DomainError(f"scan config_hash {scan_hash} differs from the kernel's "
                              f"{kernel_hash}; use the kernel built with the scan's config")
    result = deconvolve(
        raw, kernel,
        max_iters=args.max_iters,
        discrepancy_target=args.discrepancy,
        background_cps=args.noise_floor_cps,
        noise_model=noise,
    )
    io.write_spectrum_csv(args.out, result.estimate,
                          meta={"config_hash": cfg_hash, "seed": raw.plan.seed})
    report_path = args.report or (args.out + ".report.json")
    report = {
        "iterations_used": result.iterations_used,
        "residual_norm": result.residual_norm,
        "stop_reason": result.stop_reason,
        "background_cps": result.background_cps,
        "config_hash": cfg_hash,
        "seed": raw.plan.seed,
        "dwell_s": raw.plan.dwell_s,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    out.write(f"iterations_used      {result.iterations_used}\n")
    out.write(f"stop_reason          {result.stop_reason}\n")
    out.write(f"residual_norm        {result.residual_norm:.6g}\n")
    out.write(f"background_cps       {result.background_cps:.4f}\n")
    out.write(f"wrote                {args.out}\n")
    out.write(f"wrote                {report_path}\n")
    return EXIT_OK


_COMMANDS = {
    "design-qpm": _cmd_design_qpm,
    "fom": _cmd_fom,
    "scan": _cmd_scan,
    "deconvolve": _cmd_deconvolve,
}


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UpconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
