"""Blockade lifetime: relaxation releases and restores excitation.

With finite T1 on both qubits the delay sweep becomes asymmetric on
microsecond scales.  At large negative delay qubit 1 simply decays between
its pulse and readout (a lifetime measurement); at large positive delay the
blockading excitation on qubit 2 relaxes away before the qubit-1 pulse
arrives, so P1 recovers at the qubit-2 lifetime.

Run:  python demos/open_system_blockade.py   (writes open_system_blockade.png)
"""

import numpy as np
from scipy.optimize import curve_fit

from zzkit import (
    DissipationSpec,
    TwoQubitSystem,
    make_blockade_protocol,
    run_blockade_grid,
)

system = TwoQubitSystem(6.307e9, 4.498e9, 19e6)
t1 = (7.35e-6, 9.57e-6)
dissipation = DissipationSpec(t1)

delays = np.concatenate([-np.geomspace(30e-6, 1e-6, 10), np.geomspace(1e-6, 30e-6, 10)])
protocols = [make_blockade_protocol(system, 200e-9, delay) for delay in delays]
p1 = run_blockade_grid(system, protocols, dissipation).p_excited(1)

model = lambda t, a, tau, c: c + a * np.exp(-t / tau)
neg = delays < 0
(an, tau_n, cn), _ = curve_fit(model, -delays[neg], p1[neg], p0=[1, 8e-6, 0])
(ap, tau_p, cp), _ = curve_fit(model, delays[~neg], p1[~neg], p0=[-1, 8e-6, 1])
print(f"decay of P1 at negative delay:   tau = {tau_n * 1e6:.3f} us "
      f"(qubit-1 T1 = {t1[0] * 1e6} us)")
print(f"recovery of P1 at positive delay: tau = {tau_p * 1e6:.3f} us "
      f"(qubit-2 T1 = {t1[1] * 1e6} us)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(6, 4))
ax.plot(delays * 1e6, p1, "o", ms=4)
ts = np.linspace(1e-6, 30e-6, 200)
ax.plot(-ts * 1e6, model(ts, an, tau_n, cn), "k--", lw=0.8)
ax.plot(ts * 1e6, model(ts, ap, tau_p, cp), "k--", lw=0.8)
ax.set_xlabel("delay (us)")
ax.set_ylabel("P1(e)")
fig.tight_layout()
fig.savefig("open_system_blockade.png", dpi=150)
print("wrote open_system_blockade.png")
