"""Physical constants (SI) and small unit helpers used across the package."""
import numpy as np

C_M_PER_S = 2.99792458e8        # speed of light [m/s]
H_J_S = 6.62607015e-34          # Planck constant [J s]


def photon_energy_j(wavelength_nm):
    """Photon energy h*nu [J] at a vacuum wavelength given in nm."""
    return H_J_S * C_M_PER_S / (np.asarray(wavelength_nm, dtype=float) * 1e-9)


def dbm_to_watts(dbm):
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0) * 1e-3


def watts_to_dbm(watts):
    return 10.0 * np.log10(np.asarray(watts, dtype=float) / 1e-3)
