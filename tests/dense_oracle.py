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

curve_fit_fringe is the old fringe fit: an FFT seed and a four-parameter
scipy curve_fit.  echo_phase_loop is the old echo: both spectator branches
stepped through a Python loop of diagonal exponentials, the coherence phase
unwrapped.  zzkit.dynamics reads the fringe frequency by linear prediction
and writes the echo phase in closed form; the tests hold them to these.
"""

from collections import namedtuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import curve_fit, linear_sum_assignment

from zzkit.dynamics import _frame_levels, _half_pi_propagator
from zzkit.errors import FitError, StiffnessError
from zzkit.spectrum import AMBIGUITY_THRESHOLD, LabeledSpectrum

SegmentCounts = namedtuple("SegmentCounts", "probes attempts accepted dense")

TWO_PI = 2.0 * np.pi
_SM = np.array([[0, 1], [0, 0]], dtype=complex)      # |0><1|
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
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


def curve_fit_fringe(times, signal, min_contrast=0.1):
    """Frequency of a cosine fringe: FFT seed plus nonlinear refinement.

    The frequency and phase seeds come from the peak of an FFT zero-padded to
    the first power of two at or above 16 times the record: an unpadded bin
    is 1/T wide, and a seed that far off (with phase 0) can lead the fit into
    a neighbouring local minimum on short records, while a power-of-two
    length keeps the transform fast whatever the record's length.  The
    four-parameter fit needs at least four samples.
    """
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if len(times) < 4:
        raise FitError(f"a fringe fit needs at least 4 samples, got {len(times)}")
    dt = times[1] - times[0]
    centered = signal - np.mean(signal)
    n_fft = 1 << (16 * len(times) - 1).bit_length()
    spec = np.fft.rfft(centered, n_fft)
    k = int(np.argmax(np.abs(spec[1:])) + 1)
    f0 = np.fft.rfftfreq(n_fft, dt)[k]
    phi0 = float(np.angle(spec[k])) - TWO_PI * f0 * times[0]

    def model(t, a, f, phi, c):
        return a * np.cos(TWO_PI * f * t + phi) + c

    a0 = float(np.max(np.abs(centered))) or 0.5
    try:
        popt, _ = curve_fit(model, times, signal, p0=[a0, f0, phi0, float(np.mean(signal))],
                            maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"fringe fit did not converge: {exc}") from exc
    amp, freq = popt[0], abs(popt[1])
    if 2.0 * abs(amp) < min_contrast:
        raise FitError(f"fringe contrast {2 * abs(amp):.3f} below {min_contrast}")
    return freq, popt


def echo_phase_loop(system, spectator_flip_time_s, total_free_time_s,
                    drive_offset_hz=0.0, samples_per_period=40):
    """Conditional phase accumulated over a free window with a spectator flip.

    Both spectator branches are propagated through pi/2 - free(t_flip) - X2 -
    free(rest); the qubit-1 coherence phase is tracked on a dense grid, and
    the branch difference is returned in radians.  Without a flip this equals
    2 pi zeta tau; a flip exactly at tau/2 echoes the ZZ phase away.
    """
    tau = float(total_free_time_s)
    t_flip = spectator_flip_time_s
    if t_flip is not None and not (0.0 <= t_flip <= tau):
        raise ValueError("flip time must lie inside the free window")
    f_drive = system.omega1_hz - drive_offset_hz
    x2 = np.kron(_I2, _SX)

    rate = max(abs(system.zeta_hz), abs(drive_offset_hz), 1.0)
    n_pts = max(int(samples_per_period * rate * tau), 32)
    energies = _frame_levels(system, f_drive, system.omega2_hz)

    def branch_phase(spectator_state):
        u_half = _half_pi_propagator(system, f_drive)
        psi0 = np.zeros(4, dtype=complex)
        psi0[1 if spectator_state else 0] = 1.0
        psi = u_half @ psi0
        grid = np.linspace(0.0, tau, n_pts)
        segs = list(zip(grid[:-1], grid[1:]))
        phase_samples = []
        flipped = False

        def coherence(vec):
            # qubit-1 coherence <0|rho_1|1>, whose phase advances at +w1|spectator
            return vec[0] * np.conj(vec[2]) + vec[1] * np.conj(vec[3])

        phase_samples.append(np.angle(coherence(psi)))
        for a, b in segs:
            if t_flip is not None and not flipped and a <= t_flip <= b:
                psi = np.exp(-1j * TWO_PI * energies * (t_flip - a)) * psi
                psi = x2 @ psi
                psi = np.exp(-1j * TWO_PI * energies * (b - t_flip)) * psi
                flipped = True
            else:
                psi = np.exp(-1j * TWO_PI * energies * (b - a)) * psi
            phase_samples.append(np.angle(coherence(psi)))
        unwrapped = np.unwrap(np.array(phase_samples))
        return unwrapped[-1] - unwrapped[0]

    return branch_phase(1) - branch_phase(0)
