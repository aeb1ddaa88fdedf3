"""ZZ strength of the chip1 device versus qubit-qubit detuning.

Sweeps the qubit-2 frequency below the parked qubit 1 (6.270 GHz at its lower
sweet-spot), computing the ZZ strength three ways at each point: exact
diagonalization of the truncated two-mode model, the second-order
Schrieffer-Wolff formula, and its high-detuning series.  Near resonance the
labeling hybridizes and the symmetric/antisymmetric convention takes over.

Run:  python demos/zz_vs_detuning.py        (writes zz_vs_detuning.png)
"""

import numpy as np

from zzkit import (
    KerrParams,
    diagonalize_and_label,
    load_fixture,
    transmon_spectrum,
    zeta_exact,
    zeta_perturbative,
    zeta_resonant,
    zeta_series_high_detuning,
)
from zzkit.errors import AmbiguousLabelError

chip = load_fixture("chip1")
q1, q2 = chip.qubits
s1 = transmon_spectrum(q1.transmon())          # parked at the lower sweet-spot
omega1, alpha1 = s1.omega01_hz, s1.anharmonicity_hz
alpha2 = q2.alpha_hz

print(f"qubit 1 at {omega1 / 1e9:.3f} GHz, alpha1 = {alpha1 / 1e6:.0f} MHz, "
      f"alpha2 = {alpha2 / 1e6:.0f} MHz")
print(f"{'Delta (GHz)':>12} {'g (MHz)':>9} {'exact (MHz)':>12} "
      f"{'2nd order':>10} {'series':>10}")

deltas = np.linspace(0.05e9, 2.4e9, 48)
rows = []
for delta in deltas:
    omega2 = omega1 - delta
    g = chip.g_at(omega1, omega2)
    params = KerrParams(np.array([omega1, omega2]), np.array([alpha1, alpha2]),
                        np.zeros((2, 2)), exchange_g_hz=g)
    spec = diagonalize_and_label(params)
    try:
        z_exact = zeta_exact(spec)
    except AmbiguousLabelError:
        z_exact = zeta_resonant(spec)
    # NaN by a pole of the formula and outside the series' domain
    z_pert = zeta_perturbative(g, delta, alpha1, alpha2)
    z_series = zeta_series_high_detuning(g, delta, alpha1, alpha2)
    rows.append((delta, g, z_exact, z_pert, z_series))
    if delta in deltas[::6]:
        print(f"{delta / 1e9:12.2f} {g / 1e6:9.1f} {z_exact / 1e6:12.2f} "
              f"{z_pert / 1e6:10.2f} {z_series / 1e6:10.2f}")

rows = np.array(rows)
print(f"\n|zeta| spans {abs(rows[-1, 2]) / 1e6:.1f} MHz at "
      f"{rows[-1, 0] / 1e9:.1f} GHz detuning up to "
      f"{abs(rows[0, 2]) / 1e6:.0f} MHz near resonance")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(6, 4))
ax.semilogy(rows[:, 0] / 1e9, np.abs(rows[:, 2]) / 1e6, "o-", label="exact", ms=3)
ax.semilogy(rows[:, 0] / 1e9, np.abs(rows[:, 3]) / 1e6, "--", label="2nd order")
ax.semilogy(rows[:, 0] / 1e9, np.abs(rows[:, 4]) / 1e6, ":", label="1/Delta series")
ax.set_xlabel("detuning (GHz)")
ax.set_ylabel("|zeta| / 2pi (MHz)")
ax.legend()
fig.tight_layout()
fig.savefig("zz_vs_detuning.png", dpi=150)
print("wrote zz_vs_detuning.png")
