"""Dynamical blockade: excitation of qubit 1 versus pulse delay.

Both qubits receive calibrated pi pulses on their dressed transitions; the
signed delay orders the two excitations.  When qubit 2 is excited first
(positive delay) the doubly excited state is shifted by zeta = 19 MHz, so a
long, spectrally narrow pulse on qubit 1 can no longer reach it: P1 collapses.
Short pulses carry enough bandwidth at the shifted transition to punch
through.

Run:  python demos/blockade_delay_sweep.py   (writes blockade_delay_sweep.png)
"""

import numpy as np

from zzkit import TwoQubitSystem, make_blockade_protocol, run_blockade_grid

system = TwoQubitSystem(6.307e9, 4.498e9, 19e6)
delays = np.linspace(-250e-9, 250e-9, 26)
lengths = [16e-9, 52e-9, 100e-9, 200e-9]

curves = {}
for length in lengths:
    # one stacked propagation per curve, read at each point's readout
    protocols = [make_blockade_protocol(system, length, delay) for delay in delays]
    p1 = curves[length] = run_blockade_grid(system, protocols).p_excited(1)
    print(f"pulse {length * 1e9:5.0f} ns:  P1(-200 ns) = {p1[2]:.3f}   "
          f"P1(+200 ns) = {p1[-3]:.3f}")

print("\nlong pulses are blocked at positive delay; short ones leak through")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(6, 4))
for length, p1 in curves.items():
    ax.plot(delays * 1e9, p1, "o-", ms=3, label=f"{length * 1e9:.0f} ns")
ax.axvspan(0, delays[-1] * 1e9, color="turquoise", alpha=0.15)
ax.set_xlabel("delay (ns)")
ax.set_ylabel("P1(e)")
ax.legend(title="pulse length")
fig.tight_layout()
fig.savefig("blockade_delay_sweep.png", dpi=150)
print("wrote blockade_delay_sweep.png")
