"""Dense Hamiltonians, Liouvillians and spectra: the old solvers, kept as test oracles.

One protocol's H(t) is built pulse by pulse as a full 4x4 matrix: the static
part of its frame plus, for every pulse, its envelope (PulseSpec.envelope)
times that pulse's own drive operator, and in the rotating frame the exchange
term at the difference frequency.  The open right-hand side is the full
Liouvillian of H(t), built at every call.  zzkit.dynamics represents the same
Hamiltonians as real coefficients over one operator basis shared by a stack
of protocols; the tests hold it to these matrices.

solve_ivp_segment is the old DOP853 segment: scipy's solve_ivp, which asks
for the coefficients one stage time at a time.  zzkit.dynamics runs the same
algorithm with one coefficient evaluation per step; the tests hold it to
solve_ivp's states and step counts.

dense_labeling is the old dressed spectrum: one eigh of the whole truncated
matrix and the optimal assignment of all its labels at once, by scipy's
linear_sum_assignment.  zzkit.spectrum diagonalizes and labels each block of
conserved n1 + n2 on its own; the tests hold it to these labels, flags and
energies.
"""

from collections import namedtuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import linear_sum_assignment

from zzkit.errors import StiffnessError
from zzkit.spectrum import AMBIGUITY_THRESHOLD, LabeledSpectrum

SegmentCounts = namedtuple("SegmentCounts", "probes attempts accepted dense")

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


def dense_labeling(ham):
    """The LabeledSpectrum of a TruncatedHamiltonian from one dense eigh, and its N = 1 pair.

    The pair is the two eigenvalues whose <n1 + n2> is 1, ascending.
    """
    labels = ham.basis_labels
    evals, evecs = np.linalg.eigh(ham.matrix)
    overlap = np.abs(evecs) ** 2        # overlap[i, k] = |<label_i|evec_k>|^2
    rows, cols = linear_sum_assignment(-overlap)
    match = [(labels[i], k, overlap[i, k]) for i, k in zip(rows.tolist(), cols.tolist())]
    spec = LabeledSpectrum(
        {lab: float(evals[k]) for lab, k, _ in match}, {lab: float(o) for lab, _, o in match},
        {lab: evecs[:, k] for lab, k, _ in match},
        frozenset(lab for lab, _, o in match if o <= AMBIGUITY_THRESHOLD + 1e-9), labels)
    number = np.array([i + j for i, j in labels], dtype=float) @ overlap
    return spec, np.sort(evals[np.isclose(number, 1.0, atol=1e-6)])


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


def solve_ivp_segment(ham, generator, y, a, times, b, rtol, atol):
    """_dop853_segment through solve_ivp: (states at times, state at b, SegmentCounts).

    A time within 1e-18 of b takes the state at b; every other time is read
    from solve_ivp's dense output.  The counts are solve_ivp's: 2 initial
    calls (the derivative at a and the initial-step probe), 12 calls per step
    attempt and 3 per accepted step for the dense output.
    """
    shape = y.shape

    def rhs(t, v):
        return generator.apply(ham.func(t), v.reshape(shape[:-1] + (-1,))).reshape(-1)

    inside = times[times < b - 1e-18]
    sol = solve_ivp(rhs, (a, b), np.ascontiguousarray(y).reshape(-1).view(float),
                    method="DOP853", rtol=rtol, atol=atol, dense_output=bool(len(inside)))
    if not sol.success:
        raise StiffnessError(f"integration failed on [{a:.3e}, {b:.3e}]: {sol.message}")
    accepted = len(sol.t) - 1
    attempts = (sol.nfev - 2 - (3 * accepted if len(inside) else 0)) // 12
    dense = len(np.unique(np.searchsorted(sol.t, inside, side="left")))
    states = [] if not len(inside) else list(
        np.ascontiguousarray(sol.sol(inside).T).view(complex).reshape((-1,) + shape))
    y = np.ascontiguousarray(sol.y[:, -1]).view(complex).reshape(shape)
    return states + [y] * (len(times) - len(inside)), y, SegmentCounts(2, attempts, accepted,
                                                                        dense)
