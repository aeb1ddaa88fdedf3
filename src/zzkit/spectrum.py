"""Dressed two-mode spectra, state labeling and ZZ extraction.

The truncated Hamiltonian of two exchange-coupled Kerr modes is

    H = sum_m [w_m n_m + (alpha_m/2) n_m (n_m - 1)] - chi n_1 n_2
        + g (a1^dag a2 + a1 a2^dag),

diagonal in the product Fock basis except for the excitation-conserving
flip-flop term.  Dressed eigenstates are matched to bare labels by the
optimal assignment of squared overlaps; the ZZ strength is then

    zeta = E_11 - E_10 - E_01 + E_00,

and its perturbative counterparts (second-order elimination of |20>, |02>
and the high-detuning series) are provided for cross-validation.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .circuit import KerrParams, transmon_spectrum
from .errors import (
    AmbiguousLabelError,
    DomainError,
    NoCrossingError,
    PoleError,
    TruncationError,
)

AMBIGUITY_THRESHOLD = 0.5     # squared overlap at or below this flags the label
POLE_GUARD_HZ = 1e6           # refuse the perturbative formula this close to the pole

COMPUTATIONAL_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class TruncatedHamiltonian:
    """Dense two-mode Hamiltonian (Hz units) in a lexicographic product Fock basis."""

    matrix: np.ndarray
    basis_labels: tuple
    levels_per_mode: tuple
    max_total_excitation: int = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        scale = np.max(np.abs(m)) or 1.0
        if np.max(np.abs(m - m.T)) > 1e-12 * scale:
            raise ValueError("Hamiltonian matrix is not Hermitian")


def build_hamiltonian(params, levels_per_mode=(4, 4), max_total_excitation=4):
    """Assemble the truncated two-mode Kerr + exchange Hamiltonian.

    The diagonal carries the mode energies, self-Kerr terms and the total
    cross-Kerr -chi n1 n2 (participation-derived chi_12 plus any explicit bare
    term); the off-diagonal carries the flip-flop elements
    <n1+1, n2-1| H |n1, n2> = g sqrt((n1+1) n2).

    The flip-flop term conserves N = n1 + n2, and zeta needs only the blocks
    with N <= 2.  Once each mode keeps at least 3 levels and
    max_total_excitation is at least 2 (or None), larger truncations leave
    zeta unchanged up to rounding (barring exact degeneracies between
    blocks); they set only the problem size and what a spectrum dump lists.
    """
    if params.n_modes != 2:
        raise ValueError("build_hamiltonian expects exactly two modes")
    n1max, n2max = levels_per_mode
    if n1max < 2 or n2max < 2:
        raise TruncationError("need at least two levels per mode")
    w1, w2 = params.mode_freqs_hz
    a1, a2 = params.self_kerr_hz
    chi = params.cross_kerr_hz[0, 1] + params.bare_cross_kerr_chi_hz
    g = params.exchange_g_hz

    labels = tuple(
        (i, j)
        for i in range(n1max)
        for j in range(n2max)
        if max_total_excitation is None or i + j <= max_total_excitation
    )
    index = {lab: k for k, lab in enumerate(labels)}
    h = np.zeros((len(labels), len(labels)))
    for (i, j), k in index.items():
        h[k, k] = (w1 * i + w2 * j
                   + 0.5 * a1 * i * (i - 1) + 0.5 * a2 * j * (j - 1)
                   - chi * i * j)
        if j >= 1 and (i + 1, j - 1) in index:
            m = index[(i + 1, j - 1)]
            h[m, k] += g * np.sqrt((i + 1) * j)
            h[k, m] += g * np.sqrt((i + 1) * j)
    return TruncatedHamiltonian(h, labels, tuple(levels_per_mode), max_total_excitation)


@dataclass(frozen=True)
class LabeledSpectrum:
    """Dressed eigenenergies tagged by the bare state each eigenvector tracks."""

    energies: dict            # (n1, n2) -> eigenenergy in Hz
    overlaps: dict            # (n1, n2) -> squared overlap with the bare state
    eigenvectors: dict        # (n1, n2) -> eigenvector in the truncated basis
    ambiguous: frozenset      # labels whose overlap is at or below 1/2
    basis_labels: tuple
    all_eigenvalues: np.ndarray
    total_excitation: np.ndarray   # <n1 + n2> per eigenstate (integers: N is conserved)

    def single_excitation_energies(self):
        """The two dressed eigenvalues living in the one-excitation manifold."""
        sel = np.isclose(self.total_excitation, 1.0, atol=1e-6)
        vals = np.sort(self.all_eigenvalues[sel])
        if vals.shape[0] != 2:
            raise ValueError("expected exactly two single-excitation eigenstates")
        return vals


def diagonalize_and_label(ham):
    """Diagonalize and assign each bare label to a distinct eigenstate.

    Labeling is the optimal assignment: the label-to-eigenstate matching that
    maximizes the summed squared overlap (Kuhn's Hungarian method, via
    scipy's linear_sum_assignment).  Every row and column of |U|^2 sums to 1,
    so a label with overlap above 1/2 always gets the eigenstate it overlaps
    most with.  Labels whose final overlap is <= 1/2 are flagged ambiguous
    rather than rejected, so near-resonant spectra stay usable.
    """
    evals, evecs = np.linalg.eigh(ham.matrix)
    labels = ham.basis_labels
    overlap = np.abs(evecs) ** 2        # overlap[i, k] = |<label_i|evec_k>|^2
    rows, cols = linear_sum_assignment(-overlap)

    number = np.array([i + j for i, j in labels], dtype=float)
    total_exc = number @ overlap
    energies, overlaps, vectors, ambiguous = {}, {}, {}, []
    for i, k in zip(rows.tolist(), cols.tolist()):
        lab = labels[i]
        energies[lab] = float(evals[k])
        overlaps[lab] = float(overlap[i, k])
        vectors[lab] = evecs[:, k]
        if overlap[i, k] <= AMBIGUITY_THRESHOLD + 1e-9:
            ambiguous.append(lab)
    return LabeledSpectrum(
        energies=energies,
        overlaps=overlaps,
        eigenvectors=vectors,
        ambiguous=frozenset(ambiguous),
        basis_labels=labels,
        all_eigenvalues=evals,
        total_excitation=total_exc,
    )


def _computational_energies(spectrum):
    """(E_00, E_01, E_10, E_11); AmbiguousLabelError if one is missing or ambiguous."""
    for lab in COMPUTATIONAL_LABELS:
        if lab not in spectrum.energies:
            raise AmbiguousLabelError(f"label {lab} missing from spectrum")
        if lab in spectrum.ambiguous:
            raise AmbiguousLabelError(
                f"label {lab} is ambiguous (overlap {spectrum.overlaps[lab]:.3f})"
            )
    return tuple(spectrum.energies[lab] for lab in COMPUTATIONAL_LABELS)


def zeta_exact(spectrum):
    """Signed ZZ strength E_11 - E_10 - E_01 + E_00 from the labeled spectrum.

    Raises AmbiguousLabelError near resonance; callers should then fall back
    to zeta_resonant (the symmetric/antisymmetric convention).
    """
    e00, e01, e10, e11 = _computational_energies(spectrum)
    return e11 - e10 - e01 + e00


def zeta_resonant(spectrum):
    """ZZ strength through the resonant region: E_11 - E_+ - E_- + E_00.

    The hybridized single-excitation pair is identified by its conserved total
    excitation number instead of by (ambiguous) bare labels.
    """
    for lab in ((0, 0), (1, 1)):
        if lab not in spectrum.energies:
            raise AmbiguousLabelError(f"label {lab} missing from spectrum")
    ep, em = spectrum.single_excitation_energies()
    e = spectrum.energies
    return e[(1, 1)] - ep - em + e[(0, 0)]


def _check_pole(delta_hz, alpha1_hz, guard_hz):
    if abs(delta_hz - abs(alpha1_hz)) < guard_hz:
        raise PoleError(
            f"|delta - |alpha1|| = {abs(delta_hz - abs(alpha1_hz)):.3g} Hz is inside "
            f"the {guard_hz:.3g} Hz pole guard"
        )


def zeta_perturbative(g_hz, delta_hz, alpha1_hz, alpha2_hz, chi_bare_hz=0.0,
                      pole_guard_hz=POLE_GUARD_HZ):
    """Second-order ZZ: -chi + 2 g^2 [1/(delta + |a2|) - 1/(delta - |a1|)].

    Generated by virtual mixing of |11> with |20> and |02>; diverges at
    delta = |alpha1| where |11> crosses |20| (guarded by pole_guard_hz).
    """
    _check_pole(delta_hz, alpha1_hz, pole_guard_hz)
    return -chi_bare_hz + 2.0 * g_hz**2 * (
        1.0 / (delta_hz + abs(alpha2_hz)) - 1.0 / (delta_hz - abs(alpha1_hz))
    )


def zeta_series_high_detuning(g_hz, delta_hz, alpha1_hz, alpha2_hz,
                              chi_bare_hz=0.0, order=4):
    """High-detuning expansion of the second-order ZZ, truncated at 1/delta^order.

    Expanding the closed form for delta >> |alpha_i| gives

        zeta = -chi - 2 g^2 (|a1| + |a2|) [ 1/D^2 - (|a2| - |a1|)/D^3
               + (|a1|^2 - |a1||a2| + |a2|^2)/D^4 + ... ].

    The leading 1/D^2 coefficient depends only on the summed anharmonicity.
    """
    if order < 2 or order > 4:
        raise DomainError("series order must be 2, 3 or 4")
    a1, a2 = abs(alpha1_hz), abs(alpha2_hz)
    if delta_hz <= 2.0 * max(a1, a2):
        raise DomainError(
            f"series requires delta > 2 max(|alpha|) = {2 * max(a1, a2):.4g} Hz"
        )
    d = delta_hz
    bracket = 1.0 / d**2
    if order >= 3:
        bracket -= (a2 - a1) / d**3
    if order >= 4:
        bracket += (a1**2 - a1 * a2 + a2**2) / d**4
    return -chi_bare_hz - 2.0 * g_hz**2 * (a1 + a2) * bracket


def schrieffer_wolff_shifts(g_hz, delta_hz, alpha1_hz, alpha2_hz,
                            pole_guard_hz=POLE_GUARD_HZ):
    """Second-order dressed shifts (dE11, dE10, dE01).

    dE11 = -2g^2/(delta - |a1|) + 2g^2/(delta + |a2|) from the two-excitation
    manifold; the single-excitation states repel each other symmetrically,
    dE10 = +g^2/delta and dE01 = -g^2/delta, so dE11 - dE10 - dE01 equals the
    perturbative zeta identically.
    """
    _check_pole(delta_hz, alpha1_hz, pole_guard_hz)
    g2 = g_hz**2
    de11 = -2.0 * g2 / (delta_hz - abs(alpha1_hz)) + 2.0 * g2 / (delta_hz + abs(alpha2_hz))
    de10 = g2 / delta_hz
    de01 = -g2 / delta_hz
    return de11, de10, de01


@dataclass(frozen=True)
class PauliDecomposition:
    """Coefficients beta_0..beta_5 of the effective two-qubit Hamiltonian

        H = b0 II + b1 IZ + b2 XX + b3 YY + b4 ZI + b5 ZZ   (Hz units),

    with the sigma_z|0> = +|0> sign convention for the computational energies.
    """

    beta_hz: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta_hz, dtype=float)
        if b.shape != (6,):
            raise ValueError("beta_hz must have six entries")
        object.__setattr__(self, "beta_hz", b)

    @property
    def zeta_hz(self):
        return 4.0 * self.beta_hz[5]

    def computational_energies(self):
        """Diagonal energies E_00, E_01, E_10, E_11 reconstructed from beta."""
        b0, b1, _, _, b4, b5 = self.beta_hz
        return {
            (0, 0): b0 + b1 + b4 + b5,
            (0, 1): b0 - b1 + b4 - b5,
            (1, 0): b0 + b1 - b4 - b5,
            (1, 1): b0 - b1 - b4 + b5,
        }


def pauli_decomposition(spectrum, j_dressed_hz=0.0):
    """Solve beta_0, beta_1, beta_4, beta_5 from the four computational energies.

    The linear system inverts exactly:
        b0 = (E00 + E01 + E10 + E11)/4,  b1 = (E00 - E01 + E10 - E11)/4,
        b4 = (E00 + E01 - E10 - E11)/4,  b5 = (E00 - E01 - E10 + E11)/4,
    and beta_2 = beta_3 = J/2 from the supplied dressed exchange rate.
    zeta = 4 beta_5 holds by construction.
    """
    e00, e01, e10, e11 = _computational_energies(spectrum)
    b0 = (e00 + e01 + e10 + e11) / 4.0
    b1 = (e00 - e01 + e10 - e11) / 4.0
    b4 = (e00 + e01 - e10 - e11) / 4.0
    b5 = (e00 - e01 - e10 + e11) / 4.0
    return PauliDecomposition(np.array([b0, b1, j_dressed_hz / 2.0,
                                        j_dressed_hz / 2.0, b4, b5]))


def conditional_frequencies(decomp):
    """Conditional 0->1 frequencies (w1|spectator 0, w1|1, w2|0, w2|1).

    Each qubit's line splits into a doublet separated by 4 beta_5 = zeta, on
    both qubits identically; this is the doublet identity used to read zeta
    off spectroscopy.
    """
    _, b1, _, _, b4, b5 = decomp.beta_hz
    w1_0 = -2.0 * (b4 + b5)
    w1_1 = -2.0 * (b4 - b5)
    w2_0 = -2.0 * (b1 + b5)
    w2_1 = -2.0 * (b1 - b5)
    return w1_0, w1_1, w2_0, w2_1


def kerr_at_flux(q1, q2, coupling, flux1_phi0=None, flux2_phi0=None):
    """KerrParams for two transmon specs at given fluxes with the supplied coupling."""
    s1 = transmon_spectrum(q1 if flux1_phi0 is None else q1.at_flux(flux1_phi0))
    s2 = transmon_spectrum(q2 if flux2_phi0 is None else q2.at_flux(flux2_phi0))
    return _kerr_from_spectra(s1, s2, coupling)


def _kerr_from_spectra(s1, s2, coupling):
    return KerrParams(
        mode_freqs_hz=np.array([s1.omega01_hz, s2.omega01_hz]),
        self_kerr_hz=np.array([s1.anharmonicity_hz, s2.anharmonicity_hz]),
        cross_kerr_hz=np.zeros((2, 2)),
        exchange_g_hz=coupling.g_at(s1.omega01_hz, s2.omega01_hz),
    )


def single_excitation_pair(q1_spectrum, q2, coupling, flux2_phi0):
    """(KerrParams, lower, upper): the dressed single-excitation pair in Hz.

    q1_spectrum is qubit 1's TransmonSpectrum at its own bias; qubit 1 does
    not move in a flux scan, so callers solve it once per scan.  Qubit 2 sits
    at flux2_phi0, and each mode keeps three levels.
    """
    s2 = transmon_spectrum(q2.at_flux(flux2_phi0))
    params = _kerr_from_spectra(q1_spectrum, s2, coupling)
    spec = diagonalize_and_label(build_hamiltonian(params, (3, 3), None))
    lower, upper = spec.single_excitation_energies()
    return params, lower, upper


def avoided_crossing_j(q1, q2, coupling, flux_sweep, refine_iterations=40):
    """Half the minimum single-excitation splitting and the flux where it occurs.

    Scans the qubit-2 flux over flux_sweep with qubit 1 fixed at its own bias,
    then refines the grid minimum with refine_crossing.  Raises
    NoCrossingError when the minimum sits at an endpoint of the sweep.
    """
    fluxes = np.asarray(flux_sweep, dtype=float)
    if fluxes.size < 3:
        raise ValueError("flux sweep needs at least 3 points")
    s1 = transmon_spectrum(q1)
    gaps = []
    for flux in fluxes:
        _, lower, upper = single_excitation_pair(s1, q2, coupling, flux)
        gaps.append(upper - lower)
    return refine_crossing(s1, q2, coupling, fluxes, gaps, refine_iterations)


def refine_crossing(q1_spectrum, q2, coupling, fluxes, gaps, refine_iterations=40):
    """Refine the minimum of a scanned single-excitation gap: (J, flux at minimum).

    gaps[k] is the splitting at fluxes[k], and q1_spectrum is qubit 1's
    TransmonSpectrum as in single_excitation_pair.  The grid minimum is
    refined by successive parabolic interpolation of the squared gap (exact
    for a locally quadratic detuning).  Raises NoCrossingError when the
    minimum sits at an endpoint of the scan.
    """
    gaps = np.asarray(gaps, dtype=float)
    k = int(np.argmin(gaps))
    if k == 0 or k == len(fluxes) - 1:
        raise NoCrossingError("gap is monotone over the sweep (no bracketed minimum)")

    # successive parabolic interpolation on gap^2 over the bracketing triple
    xs = [fluxes[k - 1], fluxes[k], fluxes[k + 1]]
    ys = [gaps[k - 1] ** 2, gaps[k] ** 2, gaps[k + 1] ** 2]
    for _ in range(refine_iterations):
        (x0, x1, x2), (y0, y1, y2) = xs, ys
        denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
        if denom == 0:
            break
        x_new = x1 - 0.5 * ((x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)) / denom
        if not (min(xs) <= x_new <= max(xs)) or any(np.isclose(x_new, x) for x in xs):
            break
        _, lower, upper = single_excitation_pair(q1_spectrum, q2, coupling, x_new)
        y_new = (upper - lower) ** 2
        triple = sorted(zip(xs + [x_new], ys + [y_new]))
        # keep the best point and its nearest bracketing neighbours
        ybest = min(t[1] for t in triple)
        kbest = [t[1] for t in triple].index(ybest)
        kbest = min(max(kbest, 1), len(triple) - 2)
        xs = [triple[kbest - 1][0], triple[kbest][0], triple[kbest + 1][0]]
        ys = [triple[kbest - 1][1], triple[kbest][1], triple[kbest + 1][1]]
        if abs(xs[2] - xs[0]) < 1e-12:
            break
    flux_min = xs[int(np.argmin(ys))]
    gap_min = np.sqrt(min(ys))
    return 0.5 * gap_min, float(flux_min)
