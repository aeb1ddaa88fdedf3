"""Dressed two-mode spectra, state labeling and ZZ extraction.

The truncated Hamiltonian of two exchange-coupled Kerr modes is

    H = sum_m [w_m n_m + (alpha_m/2) n_m (n_m - 1)] - chi n_1 n_2
        + g (a1^dag a2 + a1 a2^dag),

diagonal in the product Fock basis except for the flip-flop term, which
conserves N = n1 + n2.  Within each N block, dressed eigenstates are matched
to bare labels by the optimal assignment of squared overlaps; zeta is then

    zeta = E_11 - E_10 - E_01 + E_00,

and its perturbative counterparts (second-order elimination of |20>, |02>
and the high-detuning series) are provided for cross-validation.

zeta needs only the blocks N <= 2: dressed_blocks solves just those, stacked
over sweeps, flux scans and optimizer populations; diagonalize_and_label
solves every block of a truncation, for spectrum dumps.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .circuit import check_transmon, transmon_pair
from .errors import (
    AmbiguousLabelError,
    DomainError,
    NoCrossingError,
    TruncationError,
)

AMBIGUITY_THRESHOLD = 0.5     # squared overlap at or below this flags the label
POLE_GUARD_HZ = 1e6           # the perturbative formula is NaN this close to a pole
REFINE_ITERATIONS = 40        # bounded Brent solves of refine_crossing

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


def _kerr_matrices(labels, w1, w2, a1, a2, chi, g):
    """H on the product states `labels`, stacked over the parameters' shape: mode
    energies, self-Kerr and total cross-Kerr -chi n1 n2 on the diagonal, and
    the flip-flop elements <n1+1, n2-1| H |n1, n2> = g sqrt((n1+1) n2).
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


def build_hamiltonian(params, levels_per_mode=(4, 4), max_total_excitation=4):
    """Assemble the truncated two-mode Kerr + exchange Hamiltonian (see _kerr_matrices).

    chi is the participation-derived chi_12 plus any explicit bare term.  With
    >= 3 levels per mode and max_total_excitation >= 2 (or None), larger
    truncations keep the N <= 2 blocks, and so zeta, as they are and set only
    the size of the problem and of a dump.
    """
    if params.n_modes != 2:
        raise ValueError("build_hamiltonian expects exactly two modes")
    n1max, n2max = levels_per_mode
    if n1max < 2 or n2max < 2:
        raise TruncationError("need at least two levels per mode")
    chi = params.cross_kerr_hz[0, 1] + params.bare_cross_kerr_chi_hz
    labels = tuple((i, j) for i in range(n1max) for j in range(n2max)
                   if max_total_excitation is None or i + j <= max_total_excitation)
    h = _kerr_matrices(labels, *params.mode_freqs_hz, *params.self_kerr_hz, chi,
                       params.exchange_g_hz)
    return TruncatedHamiltonian(h, labels, tuple(levels_per_mode), max_total_excitation)


@dataclass(frozen=True)
class LabeledSpectrum:
    """Dressed eigenenergies tagged by the bare state each eigenvector tracks."""

    energies: dict            # (n1, n2) -> eigenenergy in Hz
    overlaps: dict            # (n1, n2) -> squared overlap with the bare state
    eigenvectors: dict        # (n1, n2) -> eigenvector in the truncated basis
    ambiguous: frozenset      # labels whose overlap is at or below 1/2
    basis_labels: tuple

    def single_excitation_energies(self):
        """The two dressed eigenvalues of the one-excitation block, ascending."""
        return np.sort([self.energies[(0, 1)], self.energies[(1, 0)]])


def _assign(blocks):
    """Eigenpairs of a (K, n, n) stack, each label's eigenstate, energy and overlap.

    Returns evals (K, n), evecs (K, n, n), cols (K, n), the eigenstate of each
    basis label, and that eigenstate's energy and squared overlap (K, n).  The
    assignment maximizes the summed squared overlap: up to n = 4 by scoring
    every permutation at once, above that (n! outgrows memory) by scipy's
    Hungarian linear_sum_assignment per block.
    """
    evals, evecs = np.linalg.eigh(blocks)
    overlap = np.abs(evecs) ** 2                      # (K, label, eigenstate)
    n = blocks.shape[-1]
    if n <= 4:
        perms = np.array(list(itertools.permutations(range(n))))
        cols = perms[np.argmax(overlap[:, np.arange(n), perms].sum(-1), axis=1)]
    else:
        from scipy.optimize import linear_sum_assignment
        cols = np.array([linear_sum_assignment(-o)[1] for o in overlap])
    return (evals, evecs, cols, np.take_along_axis(evals, cols, axis=1),
            np.take_along_axis(overlap, cols[..., None], axis=2)[..., 0])


def diagonalize_and_label(ham):
    """Diagonalize and label each N = n1 + n2 block of ham with _assign.

    Block eigenvectors are embedded in the full basis.  Labels whose assigned
    overlap is at or below 1/2 are flagged ambiguous rather than rejected, so
    near-resonant spectra stay usable.  Raises ValueError when ham couples
    different N.
    """
    labels = ham.basis_labels
    number = np.array([i + j for i, j in labels])
    if np.any(ham.matrix[number[:, None] != number]):
        raise ValueError("Hamiltonian couples different excitation numbers n1 + n2")
    size = len(labels)
    energies, overlaps, vectors = np.zeros(size), np.zeros(size), np.zeros((size, size))
    for n in np.unique(number):
        idx = np.flatnonzero(number == n)
        _, (v,), (cols,), (e,), (o,) = _assign(ham.matrix[np.ix_(idx, idx)][None])
        energies[idx], overlaps[idx], vectors[np.ix_(idx, idx)] = e, o, v[:, cols]
    ambiguous = frozenset(itertools.compress(labels, overlaps <= AMBIGUITY_THRESHOLD + 1e-9))
    return LabeledSpectrum(dict(zip(labels, energies.tolist())),
                           dict(zip(labels, overlaps.tolist())), dict(zip(labels, vectors.T)),
                           ambiguous, labels)


def dressed_blocks(w1, w2, a1, a2, g, chi=0.0, levels_per_mode=(3, 3),
                   max_total_excitation=None):
    """Labeled N <= 2 spectra of K two-mode systems: (zeta, pairs, ambiguous).

    zeta (K,) is E_11 - E_10 - E_01 + E_00, pairs (K, 2) the one-excitation
    eigenvalues ascending, and ambiguous (K, 3) flags the labels (0, 1),
    (1, 0), (1, 1) at or below 1/2 overlap.  Parameters are those of
    build_hamiltonian (chi the total cross-Kerr), broadcast together.  The
    N = 1 block holds (0, 1), (1, 0), the N = 2 block those of (0, 2), (1, 1),
    (2, 0) that levels_per_mode keeps, and E_00 = 0.  One stacked eigh per
    block size and the labeling of _assign give the labels, energies and flags
    of diagonalize_and_label at the same truncation; with ambiguous
    one-excitation labels zeta equals zeta_resonant.  Raises TruncationError
    below two levels per mode, and AmbiguousLabelError when
    max_total_excitation drops a computational label.
    """
    if min(levels_per_mode) < 2:
        raise TruncationError("need at least two levels per mode")
    cap = 2 if max_total_excitation is None else max_total_excitation
    if cap < 2:
        raise AmbiguousLabelError(f"label {(0, 1) if cap < 1 else (1, 1)} missing from spectrum")
    params = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (w1, w2, a1, a2, chi, g)))
    labels = [[(i, n - i) for i in range(n + 1)
               if i < levels_per_mode[0] and n - i < levels_per_mode[1]] for n in (1, 2)]
    (pair, *_, e1, o1), (*_, e2, o2) = (_assign(_kerr_matrices(lab, *params))
                                        for lab in labels)
    k11 = labels[1].index((1, 1))
    ambiguous = np.stack([o1[:, 0], o1[:, 1], o2[:, k11]], -1) <= AMBIGUITY_THRESHOLD + 1e-9
    return e2[:, k11] - e1[:, 1] - e1[:, 0], pair, ambiguous


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


def _off_poles(delta_hz, alpha1_hz, alpha2_hz):
    """delta, NaN within POLE_GUARD_HZ of |alpha1| (|11> meets |20>) or -|alpha2| (|02>)."""
    near = ((np.abs(delta_hz - np.abs(alpha1_hz)) < POLE_GUARD_HZ)
            | (np.abs(delta_hz + np.abs(alpha2_hz)) < POLE_GUARD_HZ))
    return np.where(near, np.nan, delta_hz)


# the C library's pow on each element, as ** on a scalar: ** on an array squares
# or calls a SIMD pow, either of which can differ from it in the last bit
_pow = np.float_power


def zeta_perturbative(g_hz, delta_hz, alpha1_hz, alpha2_hz, chi_bare_hz=0.0):
    """Second-order ZZ: -chi + 2 g^2 [1/(delta + |a2|) - 1/(delta - |a1|)].

    Generated by virtual mixing of |11> with |20> and |02>; NaN within
    POLE_GUARD_HZ of its poles delta = |alpha1| and -|alpha2|.  Arguments broadcast.
    """
    delta = _off_poles(delta_hz, alpha1_hz, alpha2_hz)
    return -chi_bare_hz + 2.0 * _pow(g_hz, 2) * (
        1.0 / (delta + np.abs(alpha2_hz)) - 1.0 / (delta - np.abs(alpha1_hz)))


def zeta_series_high_detuning(g_hz, delta_hz, alpha1_hz, alpha2_hz,
                              chi_bare_hz=0.0, order=4):
    """High-detuning expansion of the second-order ZZ, truncated at 1/delta^order.

    Expanding the closed form for delta >> |alpha_i| gives

        zeta = -chi - 2 g^2 (|a1| + |a2|) [ 1/D^2 - (|a2| - |a1|)/D^3
               + (|a1|^2 - |a1||a2| + |a2|^2)/D^4 + ... ].

    The leading 1/D^2 coefficient depends only on the summed anharmonicity.
    NaN where delta <= 2 max|alpha|, outside the domain.  Arguments broadcast;
    an order other than 2, 3 or 4 raises DomainError.
    """
    if order < 2 or order > 4:
        raise DomainError("series order must be 2, 3 or 4")
    a1, a2 = np.abs(alpha1_hz), np.abs(alpha2_hz)
    d = np.where(delta_hz <= 2.0 * np.maximum(a1, a2), np.nan, delta_hz)
    bracket = 1.0 / _pow(d, 2)
    if order >= 3:
        bracket -= (a2 - a1) / _pow(d, 3)
    if order >= 4:
        bracket += (_pow(a1, 2) - a1 * a2 + _pow(a2, 2)) / _pow(d, 4)
    return -chi_bare_hz - 2.0 * _pow(g_hz, 2) * (a1 + a2) * bracket


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


def single_excitation_scan(q1, q2, coupling, fluxes):
    """Qubit 2's bare frequencies and the dressed one-excitation pairs over a flux grid.

    q1 and q2 are TransmonSpecs: qubit 1 stays at its own bias, qubit 2 sits at
    each of fluxes, and transmon_pair solves both over the grid.  Returns omega2
    (K,) and ascending pairs (K, 2).  check_transmon at the flux of qubit 2's
    lowest E_J/E_C raises below 1 and warns once below 20.
    """
    fluxes = np.asarray(fluxes, dtype=float)
    ej2 = q2.at_flux(fluxes).ej_hz
    check_transmon(q2.at_flux(fluxes[np.argmin(ej2)]))
    ej = np.stack(np.broadcast_arrays(q1.ej_hz, ej2))
    omega, alpha, g = transmon_pair(ej, [[q1.ec_hz], [q2.ec_hz]], coupling)
    _, pairs, _ = dressed_blocks(*omega, *alpha, g)
    return omega[1], pairs


def refine_crossing(q1, q2, coupling, fluxes, gaps):
    """Refine the minimum of a scanned single-excitation gap: (J, flux at minimum).

    gaps[k] is the splitting at fluxes[k], and q1, q2 are as in
    single_excitation_scan.  Bounded Brent iteration minimizes the squared gap
    between the grid minimum's neighbours in at most REFINE_ITERATIONS solves.
    Raises NoCrossingError when the minimum sits at an endpoint of the scan.
    """
    k = int(np.argmin(gaps))
    if k == 0 or k == len(fluxes) - 1:
        raise NoCrossingError("gap is monotone over the sweep (no bracketed minimum)")

    def gap_squared(flux):
        with warnings.catch_warnings():     # the scan of the grid has warned
            warnings.simplefilter("ignore", UserWarning)
            (lower, upper), = single_excitation_scan(q1, q2, coupling, [flux])[1]
        return (upper - lower) ** 2

    best = minimize_scalar(gap_squared, bounds=(fluxes[k - 1], fluxes[k + 1]), method="bounded",
                           options={"xatol": 1e-11, "maxiter": REFINE_ITERATIONS})
    if best.fun > gaps[k] ** 2:
        return 0.5 * float(gaps[k]), float(fluxes[k])
    return 0.5 * float(np.sqrt(best.fun)), float(best.x)
