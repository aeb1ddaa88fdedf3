"""Dense Hamiltonians, Liouvillians and spectra: the old solvers, kept as test oracles.

One protocol's H(t) is built pulse by pulse as a full 4x4 matrix: the static
part of its frame plus, for every pulse, its envelope (PulseSpec.envelope)
times that pulse's own drive operator.  hamiltonian's rotating frame keeps
an exchange exactly, as a term at the carriers' difference frequency in the
bare basis: integrated at tight tolerance, it is the tests' oracle for the
dressed frame.  dressed_hamiltonian is that frame built independently: the
flip-flop block diagonalized by eigh, each drive taken into the dressed
basis and cut to its own qubit's transitions, and secular_collapse_operators
splits the collapse operators there by the frequencies their elements turn
at.  The open right-hand side is the full Liouvillian of H(t), built at
every call.  zzkit.dynamics represents the same Hamiltonians as real
coefficients over one operator basis shared by a stack of protocols; the
tests hold it to these matrices.

solve_ivp_segment is the old DOP853 segment: scipy's solve_ivp, which asks
for the coefficients one stage time at a time.  zzkit.dynamics runs the same
algorithm on every point's own clock with one coefficient evaluation per
round; the tests hold each point, segment by segment, to solve_ivp's states
and step counts.

kerr_matrices_loop is the old Kerr block construction: one pass of numpy calls per
basis label.  zzkit.spectrum writes each term for all labels at once from a
cached index table; the tests hold it to this loop bit for bit.

dense_hamiltonian is the old truncated two-mode matrix in the full product
basis, built by kerr_matrices_loop.  dense_labeling is the old dressed
spectrum: one eigh of that whole matrix and the optimal assignment of all its
labels at once, by scipy's linear_sum_assignment.  block_labeling slices the
same matrix into its blocks of conserved n1 + n2 and labels each on its own.  zzkit.spectrum builds each
block straight from the Kerr parameters; the tests hold it to these labels,
flags and energies, and to block_labeling's exactly.

brent_crossing is the old refinement of a flux scan's gap minimum: bounded
Brent iteration on one scalar flux at a time.  zzkit.spectrum zooms in with
stacked scans; the tests hold it to these exchange rates and fluxes.

curve_fit_fringe is the old fringe fit: an FFT seed and a four-parameter
scipy curve_fit.  _half_pi_propagator is the old Ramsey pi/2 pulse: a
stacked rotating-frame Hamiltonian and one exponential of its 8x8 real
generator, and stacked_ramsey_fringes the old fringes built from it and the
4x4 levels of the drive frame.  echo_phase_loop is the old echo: both
spectator branches stepped through a Python loop of diagonal exponentials,
the coherence phase unwrapped.  zzkit.dynamics reads the fringe frequency by
linear prediction, takes each spectator branch's pulse from Rabi's formula
and writes the echo phase in closed form; the tests hold them to these.

dft_spectral_fraction is a pulse's power share in a spectral window by brute
force: a direct DFT of PulseSpec.envelope on a fine time grid, its squared
magnitude integrated on a fine frequency grid.  sinc_spectral_fraction is the
rectangular pulse's share from the sine integral.  zzkit.dynamics integrates
each shape's closed-form transform; the tests hold it to these.

schrieffer_wolff_shifts is the second-order shift of each computational
level, and computational_energies the four levels a PauliDecomposition's
betas give back.  zzkit.spectrum keeps only zeta's own formulas and the
forward decomposition; the tests hold them to these.

csv_module_write and csv_module_load are the old data files: rows of cells
through csv.writer, one cell-rule call per cell, and csv.reader's rows made
one float array.  zzkit.io formats a column at a time and parses with numpy's
reader; the tests hold it to these bytes and values.
"""

import csv
import itertools
import warnings
from collections import namedtuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import curve_fit, linear_sum_assignment, minimize_scalar
from scipy.special import sici

from zzkit.dynamics import (
    RAMSEY_PULSE_S,
    ProtocolSpec,
    TwoQubitSystem,
    _expm_real,
    _frame_levels,
    _schrodinger,
    build_protocol_hamiltonian,
    calibrated_pulse,
)
from zzkit.errors import (
    ConfigError,
    FitError,
    NoCrossingError,
    StiffnessError,
    TruncationError,
)
from zzkit.io import ADMITTANCE_HEADER
from zzkit.spectrum import (
    AMBIGUITY_THRESHOLD,
    LabeledSpectrum,
    _assign,
    _off_poles,
    _pow,
    single_excitation_scan,
)

SegmentCounts = namedtuple("SegmentCounts", "probes attempts accepted dense")
DenseHamiltonian = namedtuple("DenseHamiltonian", "matrix basis_labels")

REFINE_ITERATIONS = 40        # bounded Brent solves of brent_crossing

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


def kerr_matrices_loop(labels, w1, w2, a1, a2, chi, g):
    """H on the product states `labels`, stacked over w1's shape, one label at a time:
    the diagonal w1 n1 + w2 n2 + (a1/2) n1 (n1 - 1) + (a2/2) n2 (n2 - 1) - chi n1 n2
    and the flip-flop elements <n1+1, n2-1| H |n1, n2> = g sqrt((n1+1) n2).
    """
    index = {lab: k for k, lab in enumerate(labels)}
    h = np.zeros(np.shape(w1) + (len(labels), len(labels)))
    for (i, j), k in index.items():
        h[..., k, k] = (w1 * i + w2 * j + 0.5 * a1 * i * (i - 1) + 0.5 * a2 * j * (j - 1)
                        - chi * i * j)
        m = index.get((i + 1, j - 1))
        if m is not None:
            h[..., m, k] = h[..., k, m] = g * np.sqrt((i + 1) * j)
    return h


def dense_hamiltonian(params, levels_per_mode=(4, 4), max_total_excitation=4):
    """The truncated two-mode Kerr + exchange matrix of a KerrParams, lexicographic basis."""
    if params.n_modes != 2:
        raise ValueError("dense_hamiltonian expects exactly two modes")
    n1max, n2max = levels_per_mode
    if n1max < 2 or n2max < 2:
        raise TruncationError("need at least two levels per mode")
    chi = params.cross_kerr_hz[0, 1] + params.bare_cross_kerr_chi_hz
    labels = tuple((i, j) for i in range(n1max) for j in range(n2max)
                   if max_total_excitation is None or i + j <= max_total_excitation)
    h = kerr_matrices_loop(labels, *params.mode_freqs_hz, *params.self_kerr_hz, chi,
                           params.exchange_g_hz)
    return DenseHamiltonian(h, labels)


def block_labeling(ham):
    """The LabeledSpectrum of a DenseHamiltonian, each N = n1 + n2 block labeled by _assign.

    Raises ValueError when ham couples different N.
    """
    labels = ham.basis_labels
    number = np.array([i + j for i, j in labels])
    if np.any(ham.matrix[number[:, None] != number]):
        raise ValueError("Hamiltonian couples different excitation numbers n1 + n2")
    size = len(labels)
    energies, overlaps = np.zeros(size), np.zeros(size)
    for n in np.unique(number):
        idx = np.flatnonzero(number == n)
        _, (e,), (o,) = _assign(ham.matrix[np.ix_(idx, idx)][None])
        energies[idx], overlaps[idx] = e, o
    ambiguous = frozenset(itertools.compress(labels, overlaps <= AMBIGUITY_THRESHOLD + 1e-9))
    return LabeledSpectrum(dict(zip(labels, energies.tolist())),
                           dict(zip(labels, overlaps.tolist())), ambiguous, labels)


def dense_labeling(ham):
    """The LabeledSpectrum of a DenseHamiltonian from one dense eigh, and its N = 1 pair.

    The pair is the two eigenvalues whose <n1 + n2> is 1, ascending.
    """
    labels = ham.basis_labels
    evals, evecs = np.linalg.eigh(ham.matrix)
    overlap = np.abs(evecs) ** 2        # overlap[i, k] = |<label_i|evec_k>|^2
    rows, cols = linear_sum_assignment(-overlap)
    match = [(labels[i], k, overlap[i, k]) for i, k in zip(rows.tolist(), cols.tolist())]
    spec = LabeledSpectrum(
        {lab: float(evals[k]) for lab, k, _ in match}, {lab: float(o) for lab, _, o in match},
        frozenset(lab for lab, _, o in match if o <= AMBIGUITY_THRESHOLD + 1e-9), labels)
    number = np.array([i + j for i, j in labels], dtype=float) @ overlap
    return spec, np.sort(evals[np.isclose(number, 1.0, atol=1e-6)])


def brent_crossing(s1, q2, coupling, fluxes, gaps):
    """Refine the minimum of a scanned single-excitation gap: (J, flux at minimum).

    Bounded Brent iteration minimizes the squared gap between the grid
    minimum's neighbours in at most REFINE_ITERATIONS scalar solves; the grid
    point is kept when Brent ends worse.  Raises NoCrossingError when the
    minimum sits at an endpoint of the scan.
    """
    k = int(np.argmin(gaps))
    if k == 0 or k == len(fluxes) - 1:
        raise NoCrossingError("gap is monotone over the sweep (no bracketed minimum)")

    def gap_squared(flux):
        with warnings.catch_warnings():     # the scan of the grid has warned
            warnings.simplefilter("ignore", UserWarning)
            (lower, upper), = single_excitation_scan(s1, q2, coupling, [flux])[1]
        return (upper - lower) ** 2

    best = minimize_scalar(gap_squared, bounds=(fluxes[k - 1], fluxes[k + 1]), method="bounded",
                           options={"xatol": 1e-11, "maxiter": REFINE_ITERATIONS})
    if best.fun > gaps[k] ** 2:
        return 0.5 * float(gaps[k]), float(fluxes[k])
    return 0.5 * float(np.sqrt(best.fun)), float(best.x)


def schrieffer_wolff_shifts(g_hz, delta_hz, alpha1_hz, alpha2_hz):
    """Second-order dressed shifts (dE11, dE10, dE01).

    dE11 = -2g^2/(delta - |a1|) + 2g^2/(delta + |a2|) from the two-excitation
    manifold, NaN near its poles as zeta_perturbative; the single-excitation states
    repel each other symmetrically, dE10 = +g^2/delta and dE01 = -g^2/delta, so
    dE11 - dE10 - dE01 equals the perturbative zeta identically.
    """
    g2 = _pow(g_hz, 2)
    d11 = _off_poles(delta_hz, alpha1_hz, alpha2_hz)
    de11 = -2.0 * g2 / (d11 - np.abs(alpha1_hz)) + 2.0 * g2 / (d11 + np.abs(alpha2_hz))
    de10 = g2 / delta_hz
    de01 = -g2 / delta_hz
    return de11, de10, de01


def computational_energies(decomposition):
    """Diagonal energies E_00, E_01, E_10, E_11 reconstructed from a PauliDecomposition."""
    b0, b1, _, _, b4, b5 = decomposition.beta_hz
    return {
        (0, 0): b0 + b1 + b4 + b5,
        (0, 1): b0 - b1 + b4 - b5,
        (1, 0): b0 + b1 - b4 - b5,
        (1, 1): b0 - b1 - b4 + b5,
    }


def hamiltonian(system, protocol):
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

    carriers = {p.target_qubit: p.carrier_hz for p in pulses}
    f1, f2 = carriers.get(1, system.omega1_hz), carriers.get(2, system.omega2_hz)
    static = TWO_PI * np.diag(system.energies() - f1 * np.diag(N1) - f2 * np.diag(N2))
    jpm = system.jxx_hz + system.jyy_hz

    drives = []
    for p in pulses:
        # sin(w t + phi) sigma_y --RWA--> (1/2)(e^{i phi} sigma_- + h.c.)
        term = 0.5 * np.exp(1j * p.phase_rad) * SM[p.target_qubit]
        drives.append((p.envelope, TWO_PI * (term + term.conj().T)))

    def rotating(t):
        h = static.astype(complex)
        for envelope, drive in drives:
            h += envelope(t) * drive
        if jpm:
            c = TWO_PI * jpm * np.exp(1j * TWO_PI * (f1 - f2) * t)
            h += c * FLIP_FLOP + np.conj(c) * FLIP_FLOP.T
        return h
    return rotating


def _dressed_frame(system, protocol):
    """(levels, R, F) of the rotating frame over the dressed levels, by eigh.

    The static lab matrix's |01>, |10> block is diagonalized by eigh, each
    eigenvector put on the bare label it overlaps most and signed to overlap
    it positively (R's columns); levels are the dressed energies and F the
    frame's levels, each qubit turning at its pulses' carrier or, undriven,
    at its bare transition.
    """
    h = system.static_lab_matrix().real
    energies, vectors = np.linalg.eigh(h[1:3, 1:3])
    order = np.argsort(np.argmax(np.abs(vectors), axis=0))
    vectors = vectors[:, order] * np.sign(np.diag(vectors[:, order]))
    r = np.eye(4)
    r[1:3, 1:3] = vectors
    levels = np.array([0.0, *energies[order], h[3, 3]])
    carriers = {p.target_qubit: p.carrier_hz for p in protocol.pulses}
    f1, f2 = carriers.get(1, system.omega1_hz), carriers.get(2, system.omega2_hz)
    return levels, r, f1 * np.diag(N1) + f2 * np.diag(N2)


def dressed_hamiltonian(system, protocol):
    """t -> H(t) of one protocol in the rotating frame over the dressed levels, at a scalar t.

    Each pulse's bare RWA drive is taken into the dressed basis, where it
    keeps only the elements that flip its own qubit's dressed excitation and
    leave the partner's: the others turn at the carriers' difference.
    """
    levels, r, f = _dressed_frame(system, protocol)
    static = TWO_PI * np.diag(levels - f)
    n = {1: np.diag(N1), 2: np.diag(N2)}
    own = {q: (n[q][:, None] != n[q]) & (n[3 - q][:, None] == n[3 - q]) for q in (1, 2)}

    def dressed(t):
        h = static.astype(complex)
        for p in protocol.pulses:
            term = 0.5 * np.exp(1j * p.phase_rad) * SM[p.target_qubit]
            drive = r.T @ (term + term.conj().T) @ r
            h += TWO_PI * p.envelope(t) * np.where(own[p.target_qubit], drive, 0.0)
        return h
    return dressed


def secular_collapse_operators(system, protocol, c_ops):
    """c_ops in the dressed basis, each split into the parts whose elements |a><b| turn
    at one frequency F_a - F_b of the protocol's dressed frame (within 1 Hz)."""
    _, r, f = _dressed_frame(system, protocol)
    turn = f[:, None] - f[None, :]
    parts = []
    for c in c_ops:
        dressed = r.T @ c @ r
        seen = []
        for w in turn[dressed != 0]:
            if all(abs(w - x) >= 1.0 for x in seen):
                seen.append(w)
                parts.append(np.where(np.abs(turn - w) < 1.0, dressed, 0.0))
    return parts


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
    """One DOP853 segment through solve_ivp: (states at times, state at b, SegmentCounts).

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


def _half_pi_propagator(system, drive_freq_hz):
    """Propagator of a rectangular pi/2 pulse on qubit 1 in the drive frame, exchange dropped."""
    pulse = calibrated_pulse("rectangular", RAMSEY_PULSE_S, drive_freq_hz,
                             rotation_cycles=0.25, target_qubit=1)
    ham = build_protocol_hamiltonian(
        TwoQubitSystem(system.omega1_hz, system.omega2_hz, system.zeta_hz),
        ProtocolSpec((pulse,), RAMSEY_PULSE_S))
    generator = _schrodinger(ham)        # the rectangular drive is static during the pulse
    u = _expm_real(generator.matrix(ham.func(0.0)) * RAMSEY_PULSE_S)
    return u[0::2, 0::2] + 1j * u[1::2, 0::2]


def stacked_ramsey_fringes(system, free_time_grid_s, drive_offset_hz=None):
    """The old Ramsey fringes: P(qubit 1 in |1>) at each time, (T, 2) by spectator state.

    One 4x4 pi/2 propagator, then free evolution under the levels of the frame
    turning at the drive and at qubit 2's transition, then the pulse again.
    """
    if drive_offset_hz is None:
        drive_offset_hz = 1.5 * abs(system.zeta_hz) + 5e6
    f_drive = system.omega1_hz - drive_offset_hz
    u_half = _half_pi_propagator(system, f_drive)
    energies = _frame_levels(system, f_drive, system.omega2_hz)
    grid = np.asarray(free_time_grid_s, dtype=float)
    phases = np.exp(-1j * TWO_PI * np.outer(grid, energies))
    fringes = []
    for spectator in (0, 1):
        psi0 = np.zeros(4, dtype=complex)
        psi0[spectator] = 1.0                # |0, spectator>
        final = (phases * (u_half @ psi0)[None, :]) @ u_half.T
        fringes.append(np.abs(final[:, 2]) ** 2 + np.abs(final[:, 3]) ** 2)
    return np.column_stack(fringes)


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


def _legendre_panels(a, b, panels):
    """Nodes and weights of 16-node Gauss-Legendre on each of equal panels of [a, b]."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (half * x + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel(), (half * w).ravel()


def dft_spectral_fraction(pulse, center_offset_hz, window_hz):
    """Share of the baseband envelope's power in [offset -+ window/2], by brute force.

    The transform is a direct DFT of the complex envelope (PulseSpec.envelope
    times e^{i phase}) on Gauss-Legendre panels of its support, at most half a
    turn of the fastest frequency in the window each; its squared magnitude is
    integrated on panels of at most a quarter of 1/T and divided by the
    envelope's power in time (Parseval).  For gaussians with sigma >= T/20.
    """
    length = pulse.duration_s
    lo, hi = center_offset_hz - 0.5 * window_hz, center_offset_hz + 0.5 * window_hz
    reach = max(abs(lo), abs(hi)) * length
    t, wt = _legendre_panels(pulse.start_time_s, pulse.end_time_s, int(16 + 2 * reach))
    e = pulse.envelope(t) * np.exp(1j * pulse.phase_rad)
    f, wf = _legendre_panels(lo, hi, int(np.ceil(4 * (hi - lo) * length)) + 1)
    spectrum = np.abs(np.exp(-1j * TWO_PI * np.outer(f, t)) @ (wt * e)) ** 2
    return float(wf @ spectrum / (wt @ np.abs(e) ** 2))


def sinc_spectral_fraction(length_s, center_offset_hz, window_hz):
    """A rectangular pulse's power share in [offset -+ window/2], from the sine integral.

    The integral of sinc^2 from 0 to y is (Si(2 pi y) - sin^2(pi y) / (pi y)) / pi.
    """
    def cumulative(y):
        return 0.0 if y == 0 else (sici(TWO_PI * y)[0] - np.sin(np.pi * y) ** 2 / (np.pi * y)) / np.pi

    return (cumulative((center_offset_hz + 0.5 * window_hz) * length_s)
            - cumulative((center_offset_hz - 0.5 * window_hz) * length_s))


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, (str, int)):
        return str(x)
    return repr(float(x))


def csv_module_write(path, header, rows):
    """Write header, then rows of cells by the cell rule, through csv.writer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(x) for x in row] for row in rows)


def csv_module_load(path):
    """(frequencies, complex values) of a response-samples CSV, csv.reader's rows as floats."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ADMITTANCE_HEADER:
            raise ConfigError(
                f"{path}: header must be {','.join(ADMITTANCE_HEADER)}, got {header}")
        try:
            table = np.array(list(reader), dtype=float)
        except ValueError as exc:       # a cell that is no number, or rows of unequal length
            raise ConfigError(f"{path}: {exc}") from exc
    if table.ndim != 2 or table.shape[1] != 3 or not np.isfinite(table).all():
        raise ConfigError(f"{path}: samples must be rows of 3 finite numbers")
    return table[:, 0], table[:, 1:].copy().view(complex)[:, 0]
