"""Numerical model of a long-wavelength-pumped upconversion single-photon
detector operated as a pump-scanned infrared spectrometer."""

__version__ = "0.1.0"

from .components import FilterElement, VbgState
from .conversion import ConversionModel, NoiseModel, fit_conversion, fit_noise
from .dispersion import (
    SellmeierMedium,
    WaveguideSpec,
    acceptance_bandwidth,
    calibrate_operating_point,
    design_qpm_period,
    phase_matched_pump,
    phase_matched_signal,
    refractive_index,
    sfg_wavelength,
)
from .fom import NepResult, OperatingPoint, nep
from .inverse import DeconvolutionResult, deconvolve, estimate_background
from .spectra import Spectrum, monochromatic_spectrum, multimode_ld_spectrum
from .spectrometer import (
    ResponseKernel,
    ScanPlan,
    ScanResult,
    build_kernel,
    forward_scan,
    resolution,
    vbg_tracking_schedule,
)
