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

_blocks builds and labels each block straight from the Kerr parameters, stacked:
dressed_blocks takes N <= 2, all zeta needs, over sweeps, flux scans and optimizer
populations; diagonalize_and_label takes every N of a truncation, for dumps.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import check_transmon, transmon_levels
from .errors import (
    AmbiguousLabelError,
    DomainError,
    NoCrossingError,
    TruncationError,
)

AMBIGUITY_THRESHOLD = 0.5     # squared overlap at or below this flags the label
POLE_GUARD_HZ = 1e6           # the perturbative formula is NaN this close to a pole
ZOOM_ROUNDS, ZOOM_POINTS = 4, 33   # stacked scans of refine_crossing, fluxes in each

COMPUTATIONAL_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))


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


@dataclass(frozen=True)
class LabeledSpectrum:
    """Dressed eigenenergies tagged by the bare state each eigenvector tracks."""

    energies: dict            # (n1, n2) -> eigenenergy in Hz
    overlaps: dict            # (n1, n2) -> squared overlap with the bare state
    ambiguous: frozenset      # labels whose overlap is at or below 1/2
    basis_labels: tuple

    def single_excitation_energies(self):
        """The two dressed eigenvalues of the one-excitation block, ascending."""
        return np.sort([self.energies[(0, 1)], self.energies[(1, 0)]])


def _assign(blocks):
    """Eigenvalues (K, n) ascending of a (K, n, n) stack, and the energy and squared
    overlap (K, n) of the eigenstate assigned to each basis label.

    The assignment maximizes the summed squared overlap: up to n = 4 by
    scoring every permutation at once, above that (n! outgrows memory) by
    scipy's Hungarian linear_sum_assignment per block.
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
    return (evals, np.take_along_axis(evals, cols, axis=1),
            np.take_along_axis(overlap, cols[..., None], axis=2)[..., 0])


def _blocks(params, levels_per_mode, numbers):
    """For each N in numbers, the N = n1 + n2 block's labels and its _assign.

    params (w1, w2, a1, a2, chi, g) broadcast together to K systems; a block
    holds the states (i, N - i), i ascending, that levels_per_mode keeps.
    Raises TruncationError below two levels per mode.
    """
    if min(levels_per_mode) < 2:
        raise TruncationError("need at least two levels per mode")
    params = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in params))
    for n in numbers:
        labels = [(i, n - i) for i in range(n + 1)
                  if i < levels_per_mode[0] and n - i < levels_per_mode[1]]
        yield labels, _assign(_kerr_matrices(labels, *params))


def diagonalize_and_label(params, levels_per_mode=(4, 4), max_total_excitation=4):
    """The labeled dressed spectrum of a two-mode KerrParams, every N block by _blocks.

    It keeps levels_per_mode levels of each mode and the states with n1 + n2
    <= max_total_excitation (None: no cap); chi is the participation-derived
    chi_12 plus any explicit bare term.  Labels at or below 1/2 overlap are
    flagged ambiguous, not rejected, so near-resonant spectra stay usable.
    With >= 3 levels per mode and a cap >= 2 (or None), larger truncations
    keep the N <= 2 blocks, and so zeta, as they are.  Raises ValueError
    unless there are two modes, TruncationError below two levels per mode.
    """
    if params.n_modes != 2:
        raise ValueError("diagonalize_and_label expects exactly two modes")
    chi = params.cross_kerr_hz[0, 1] + params.bare_cross_kerr_chi_hz
    numbers = [n for n in range(sum(levels_per_mode) - 1)
               if max_total_excitation is None or n <= max_total_excitation]
    blocks = _blocks((*params.mode_freqs_hz, *params.self_kerr_hz, chi, params.exchange_g_hz),
                     levels_per_mode, numbers)
    found = sorted(itertools.chain.from_iterable(
        zip(labels, e[0].tolist(), o[0].tolist()) for labels, (_, e, o) in blocks))
    return LabeledSpectrum({lab: e for lab, e, _ in found}, {lab: o for lab, _, o in found},
                           frozenset(lab for lab, _, o in found
                                     if o <= AMBIGUITY_THRESHOLD + 1e-9),
                           tuple(lab for lab, _, _ in found))


def dressed_blocks(w1, w2, a1, a2, g, chi=0.0, levels_per_mode=(3, 3),
                   max_total_excitation=None):
    """Labeled N <= 2 spectra of K two-mode systems: (zeta, pairs, ambiguous).

    zeta (K,) is E_11 - E_10 - E_01 + E_00, pairs (K, 2) the one-excitation
    eigenvalues ascending, and ambiguous (K, 3) flags the labels (0, 1),
    (1, 0), (1, 1) at or below 1/2 overlap; the parameters (chi the total
    cross-Kerr) broadcast together.  These N = 1, 2 blocks of _blocks give
    diagonalize_and_label's labels, energies and flags at the same
    truncation, and E_00 = 0; with ambiguous one-excitation labels zeta
    equals zeta_resonant.  Raises TruncationError below two levels per mode,
    AmbiguousLabelError when max_total_excitation drops a computational label.
    """
    (_, (pair, e1, o1)), (labels, (_, e2, o2)) = _blocks((w1, w2, a1, a2, chi, g),
                                                          levels_per_mode, (1, 2))
    cap = 2 if max_total_excitation is None else max_total_excitation
    if cap < 2:
        raise AmbiguousLabelError(f"label {(0, 1) if cap < 1 else (1, 1)} missing from spectrum")
    k11 = labels.index((1, 1))
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


def single_excitation_scan(s1, q2, coupling, fluxes):
    """Qubit 2's bare frequencies and the dressed one-excitation pairs over a flux grid.

    s1 is qubit 1's TransmonSpectrum at its own bias, solved once by the caller
    (transmon_spectrum); q2 is qubit 2's TransmonSpec, which sits at each of
    fluxes, and one transmon_levels call solves it over the grid.  Returns
    omega2 (K,) and ascending pairs (K, 2).  check_transmon at the flux of
    qubit 2's lowest E_J/E_C raises below 1 and warns once below 20.
    """
    fluxes = np.asarray(fluxes, dtype=float)
    ej2 = q2.at_flux(fluxes).ej_hz
    check_transmon(q2.at_flux(fluxes[np.argmin(ej2)]))
    omega2, alpha2 = transmon_levels(ej2, q2.ec_hz)
    _, pairs, _ = dressed_blocks(s1.omega01_hz, omega2, s1.anharmonicity_hz, alpha2,
                                 coupling.g_at(s1.omega01_hz, omega2))
    return omega2, pairs


def refine_crossing(s1, q2, coupling, fluxes, gaps):
    """Refine the minimum of a scanned single-excitation gap: (J, flux at minimum).

    gaps[k] is the splitting at fluxes[k], and s1, q2 are as in
    single_excitation_scan.  A stacked zoom: each of ZOOM_ROUNDS rounds scans
    ZOOM_POINTS fluxes across the neighbours of the last minimum, the grid's
    first, and the best point seen, the grid's included, is returned.  Raises
    NoCrossingError when the minimum sits at an endpoint of the scan.
    """
    k = int(np.argmin(gaps))
    if k == 0 or k == len(fluxes) - 1:
        raise NoCrossingError("gap is monotone over the sweep (no bracketed minimum)")
    best = float(gaps[k]), float(fluxes[k])
    lo, hi = fluxes[k - 1], fluxes[k + 1]
    with warnings.catch_warnings():     # the scan of the grid has warned
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(ZOOM_ROUNDS):
            zoom = np.linspace(lo, hi, ZOOM_POINTS)
            pairs = single_excitation_scan(s1, q2, coupling, zoom)[1]
            gap = pairs[:, 1] - pairs[:, 0]
            i = int(np.argmin(gap))
            best = min(best, (float(gap[i]), float(zoom[i])))
            lo, hi = zoom[max(i - 1, 0)], zoom[min(i + 1, ZOOM_POINTS - 1)]
    return 0.5 * best[0], best[1]
