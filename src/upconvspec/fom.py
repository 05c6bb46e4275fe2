"""Detector figures of merit: the operating point and its noise-equivalent power.

NEP here is the photon-counting form: the optical power at the signal
wavelength for which the mean signal counts in a 1 s integration equal the
shot-noise fluctuation of the background counts,

    NEP = (h nu / eta) * sqrt(D)          [W / sqrt(Hz)]

with eta the end-to-end detection efficiency and D the total background
rate in counts/s.  Two conventions differ on the fluctuation term:

* "background_sqrt_d"    -- sqrt(D): background shot noise alone.
* "background_sqrt_2d"   -- sqrt(2 D): counting both the background and the
  equal-variance signal contribution at the detection threshold.

Both are provided; they differ by exactly sqrt(2) (1.5 dB).
"""
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .units import photon_energy_j, watts_to_dbm

CONVENTIONS = ("background_sqrt_d", "background_sqrt_2d")


@dataclass(frozen=True)
class OperatingPoint:
    """A (wavelength, efficiency, background) triple the instrument runs at."""

    signal_nm: float
    efficiency: float
    background_cps: float

    def __post_init__(self):
        if self.signal_nm <= 0:
            raise DomainError("signal wavelength must be positive")
        if not (0.0 < self.efficiency <= 1.0):
            raise DomainError(f"efficiency {self.efficiency} outside (0, 1]")
        if self.background_cps < 0:
            raise DomainError("background rate must be nonnegative")


@dataclass(frozen=True)
class NepResult:
    nep_w_per_sqrt_hz: float
    nep_dbm: float
    convention: str
    signal_nm: float
    efficiency: float
    background_cps: float


def nep(point, convention="background_sqrt_d"):
    """Noise-equivalent power for an operating point, one convention.

    nep_dbm is the NEP read as a power in dBm (1 s integration), the form
    detector papers usually quote.
    """
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown NEP convention {convention!r}")
    if point.background_cps == 0:
        raise DomainError("NEP is undefined for zero background rate")
    energy_j = photon_energy_j(point.signal_nm)
    if convention == "background_sqrt_2d":
        fluct = np.sqrt(2.0 * point.background_cps)
    else:
        fluct = np.sqrt(point.background_cps)
    value = energy_j * fluct / point.efficiency
    return NepResult(
        nep_w_per_sqrt_hz=float(value),
        nep_dbm=float(watts_to_dbm(value)),
        convention=convention,
        signal_nm=point.signal_nm,
        efficiency=point.efficiency,
        background_cps=point.background_cps,
    )
