"""Exception types. The CLI maps these onto process exit codes."""
import math


class UpconvError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(UpconvError):
    """Invalid configuration file or field. Carries the offending field path."""

    def __init__(self, field_path, message):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


class DomainError(UpconvError, ValueError):
    """Input outside a physically valid window (wavelength, temperature, range...)."""


class TuningError(UpconvError):
    """Phase-matching root finding failed (no root, ambiguous roots, bad bracket)."""


class CalibrationError(UpconvError):
    """Dispersion-correction fit failed (no anchors, duplicate/singular anchors)."""


class FitError(UpconvError):
    """Model fit to calibration points failed (no solution in bracket, bad points)."""


class UnrecoverableBandError(UpconvError):
    """Deconvolution requested over a band the kernel cannot see."""

    def __init__(self, bands_nm, message=None):
        self.bands_nm = list(bands_nm)
        pretty = ", ".join(f"[{a:.3f}, {b:.3f}] nm" for a, b in self.bands_nm)
        super().__init__(message or f"kernel has no response in: {pretty}")


class BackgroundError(UpconvError):
    """Background rate could not be estimated from the scan."""


def check_finite(what, obj, *names):
    """Raise DomainError naming the first field of obj in names that is not finite.

    A tuple or list field must be finite in every entry.
    """
    for name in names:
        value = getattr(obj, name)
        entries = value if isinstance(value, (tuple, list)) else (value,)
        if not all(math.isfinite(v) for v in entries):
            raise DomainError(f"{what} {name} must be finite, got {value}")
