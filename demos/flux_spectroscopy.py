"""Level repulsion and exchange-rate extraction from a flux sweep.

Qubit 1 sits at its lower sweet-spot (6.270 GHz) while the qubit-2 flux is
swept through the point where the two bare frequencies cross.  The dressed
single-excitation branches repel; half the minimum splitting is the exchange
rate J.

Run:  python demos/flux_spectroscopy.py      (writes flux_spectroscopy.png)
"""

import numpy as np

from zzkit import load_fixture, transmon_spectrum
from zzkit.spectrum import refine_crossing, single_excitation_scan

chip = load_fixture("chip1")
q1 = chip.qubits[0].transmon(0.5)
q2 = chip.qubits[1].transmon()
coupling = chip.coupling()

# qubit 1 solved once at its bias, qubit 2 over the whole grid in one solve, as
# flux-spectroscopy does
s1 = transmon_spectrum(q1)
fluxes = np.linspace(-0.2, -0.01, 61)
bare2, pairs = single_excitation_scan(s1, q2, coupling, fluxes)
lower, upper = pairs.T

j, flux_min = refine_crossing(s1, q2, coupling, fluxes, upper - lower)
omega1 = s1.omega01_hz
print(f"qubit 1 parked at {omega1 / 1e9:.4f} GHz")
print(f"minimum splitting 2J = {2 * j / 1e6:.1f} MHz at flux "
      f"{flux_min:.4f} Phi0")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(6, 4))
ax.plot(fluxes, bare2 / 1e9, "k:", label="bare qubit 2")
ax.axhline(omega1 / 1e9, color="k", ls="--", lw=0.8, label="bare qubit 1")
ax.plot(fluxes, lower / 1e9, "C0", label="dressed branches")
ax.plot(fluxes, upper / 1e9, "C0")
ax.axvline(flux_min, color="C3", lw=0.8)
ax.set_xlabel("qubit-2 flux (Phi0)")
ax.set_ylabel("frequency (GHz)")
ax.legend()
fig.tight_layout()
fig.savefig("flux_spectroscopy.png", dpi=150)
print("wrote flux_spectroscopy.png")
