"""Why short pi pulses defeat the blockade: drive power at the shifted line.

For each pulse length, the blocked population P1(e) at a fixed +100 ns delay
is compared with the fraction of the drive power falling in a narrow window
around the shifted transition (offset zeta, width 1/T2 of the read qubit).
The two rise together: leakage through the blockade is a pulse-bandwidth
effect.

Run:  python demos/pulse_bandwidth_vs_blockade.py
"""

import numpy as np
from scipy.stats import spearmanr

from zzkit import (
    TwoQubitSystem,
    make_blockade_protocol,
    pi_pulse,
    pulse_spectral_power,
    run_blockade_grid,
)

system = TwoQubitSystem(6.307e9, 4.498e9, 19e6)
t2_read = 9.1e-6
window = 1.0 / t2_read

lengths = np.array([16, 28, 52, 100, 148, 200]) * 1e-9
protocols = [make_blockade_protocol(system, length, 100e-9) for length in lengths]
p1s = run_blockade_grid(system, protocols).p_excited(1)
fracs = [pulse_spectral_power(pi_pulse("truncated_cosine", length, system.omega1_hz),
                              system.zeta_hz, window) for length in lengths]
print(f"{'length (ns)':>12} {'P1(e)':>10} {'power fraction':>16}")
for length, p1, frac in zip(lengths, p1s, fracs):
    print(f"{length * 1e9:12.0f} {p1:10.4f} {frac:16.3e}")

rho = spearmanr(p1s, fracs).statistic
print(f"\nrank correlation between leakage and spectral fraction: {rho:.3f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax1 = plt.subplots(figsize=(6, 4))
ax1.semilogy(lengths * 1e9, p1s, "o-", color="tab:red", label="P1(e)")
ax1.set_xlabel("pulse length (ns)")
ax1.set_ylabel("P1(e) at +100 ns delay", color="tab:red")
ax2 = ax1.twinx()
ax2.semilogy(lengths * 1e9, fracs, "s--", color="tab:blue")
ax2.set_ylabel("power fraction at shifted line", color="tab:blue")
fig.tight_layout()
fig.savefig("pulse_bandwidth_vs_blockade.png", dpi=150)
print("wrote pulse_bandwidth_vs_blockade.png")
