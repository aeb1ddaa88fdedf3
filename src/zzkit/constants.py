"""Physical constants (2019 SI exact values) and unit helpers.

All spectroscopic quantities cross module boundaries as ordinary frequencies
in Hz (omega / 2 pi); angular frequencies appear only inside solver internals.
"""

import numpy as np

E_CHARGE = 1.602176634e-19      # C
H_PLANCK = 6.62607015e-34       # J s
HBAR = H_PLANCK / (2 * np.pi)   # J s
PHI0 = H_PLANCK / (2 * E_CHARGE)          # flux quantum h / 2e, Wb


def charging_energy_hz(c_farads):
    """E_C / h = e^2 / (2 C h) for a total node capacitance C."""
    return E_CHARGE**2 / (2.0 * c_farads * H_PLANCK)


def capacitance_from_ec(ec_hz):
    """Invert charging_energy_hz: node capacitance giving E_C / h = ec_hz."""
    return E_CHARGE**2 / (2.0 * ec_hz * H_PLANCK)


def phase_zpf_from_impedance(z_ohms):
    """Zero-point phase fluctuation of a mode with characteristic impedance Z.

    Flux zpf is sqrt(hbar Z / 2); dividing by the reduced flux quantum gives
    the dimensionless phase amplitude sqrt(2 e^2 Z / hbar).
    """
    return np.sqrt(2.0 * E_CHARGE**2 * z_ohms / HBAR)
