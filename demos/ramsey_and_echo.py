"""Time-domain ZZ calibration: conditional fringes and echo phase reversal.

A Ramsey sequence on qubit 1 runs twice, with the spectator prepared in each
basis state; the fringe frequencies differ by exactly zeta.  The echo variant
flips the spectator inside the free window, scaling the accumulated
conditional phase by (2 t_flip / tau - 1) and cancelling it for a mid-window
flip.

Run:  python demos/ramsey_and_echo.py
"""

import numpy as np

from zzkit import (
    TwoQubitSystem,
    load_fixture,
    run_conditional_ramsey,
    run_echo_conditional_phase,
)

chip = load_fixture("chip1")
system = TwoQubitSystem.from_pauli_decomposition(chip.beta)
print(f"model zeta = {system.zeta_hz / 1e6:.4f} MHz "
      f"(4 x beta_5 from the device decomposition)")

grid = np.linspace(0.0, 2e-6, 4001)
f0, f1 = run_conditional_ramsey(system, grid)
print(f"fringe with spectator |0>: {f0 / 1e6:.4f} MHz")
print(f"fringe with spectator |1>: {f1 / 1e6:.4f} MHz")
print(f"difference: {abs(f1 - f0) / 1e6:.4f} MHz\n")

tau = 400e-9
small = TwoQubitSystem(system.omega1_hz, system.omega2_hz, 2e6)
print(f"echo with zeta = 2 MHz over a {tau * 1e9:.0f} ns window:")
print(f"{'flip at':>10} {'phase (rad)':>14} {'expected':>12}")
for frac in (None, 0.25, 0.5, 0.75):
    t_flip = None if frac is None else frac * tau
    phase = run_echo_conditional_phase(small, t_flip, tau)
    expected = 2 * np.pi * 2e6 * (tau if frac is None else (2 * frac - 1) * tau)
    label = "none" if frac is None else f"{frac:.2f} tau"
    print(f"{label:>10} {phase:14.4f} {expected:12.4f}")
