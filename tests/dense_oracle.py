"""Per-point dense Hamiltonians and Liouvillians: the old solver, kept as a test oracle.

One protocol's H(t) is built pulse by pulse as a full 4x4 matrix: the static
part of its frame plus, for every pulse, its envelope (PulseSpec.envelope)
times that pulse's own drive operator, and in the rotating frame the exchange
term at the difference frequency.  The open right-hand side is the full
Liouvillian of H(t), built at every call.  zzkit.dynamics represents the same
Hamiltonians as real coefficients over one operator basis shared by a stack
of protocols; the tests hold it to these matrices.
"""

import numpy as np

TWO_PI = 2.0 * np.pi
_SM = np.array([[0, 1], [0, 0]], dtype=complex)      # |0><1|
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_I2 = np.eye(2)
SM = {1: np.kron(_SM, _I2), 2: np.kron(_I2, _SM)}
SY = {1: np.kron(_SY, _I2), 2: np.kron(_I2, _SY)}
N1 = np.diag([0.0, 0.0, 1.0, 1.0])
N2 = np.diag([0.0, 1.0, 0.0, 1.0])
FLIP_FLOP = np.zeros((4, 4), dtype=complex)
FLIP_FLOP[2, 1] = 1.0                                  # |10><01|


def hamiltonian(system, protocol, frame_freqs_hz=None, include_exchange=True):
    """t -> H(t), the (4, 4) matrix in rad/s of one protocol in its frame, at a scalar t."""
    pulses = protocol.pulses
    if protocol.frame == "lab":
        h0 = TWO_PI * system.static_lab_matrix()

        def lab(t):
            h = h0.copy()
            for p in pulses:
                amp = p.envelope(t) * np.sin(TWO_PI * p.carrier_hz * t + p.phase_rad)
                h += TWO_PI * amp * SY[p.target_qubit]
            return h
        return lab

    if protocol.frame == "blockade_effective":
        frame_freqs_hz, include_exchange = (system.omega1_hz, system.omega2_hz), False
    if frame_freqs_hz is None:
        carriers = {p.target_qubit: p.carrier_hz for p in pulses}
        frame_freqs_hz = (carriers.get(1, system.omega1_hz), carriers.get(2, system.omega2_hz))
    f1, f2 = frame_freqs_hz
    static = TWO_PI * np.diag(system.energies() - f1 * np.diag(N1) - f2 * np.diag(N2))
    jpm = system.jxx_hz + system.jyy_hz

    def rotating(t):
        h = static.astype(complex)
        for p in pulses:
            # sin(w t + phi) sigma_y --RWA--> (1/2)(e^{i phi} sigma_- + h.c.)
            term = 0.5 * np.exp(1j * p.phase_rad) * SM[p.target_qubit]
            h += TWO_PI * p.envelope(t) * (term + term.conj().T)
        if include_exchange and jpm:
            c = TWO_PI * jpm * np.exp(1j * TWO_PI * (f1 - f2) * t)
            h += c * FLIP_FLOP + np.conj(c) * FLIP_FLOP.T
        return h
    return rotating


def liouvillian(h, c_ops):
    """The Lindblad generator of H and collapse operators on row-major vec(rho)."""
    n = h.shape[-1]
    ident = np.eye(n)
    lv = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for c in c_ops:
        cd_c = c.conj().T @ c
        lv += np.kron(c, c.conj()) - 0.5 * (np.kron(cd_c, ident) + np.kron(ident, cd_c.T))
    return lv
