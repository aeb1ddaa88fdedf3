"""Circuit-level model: SQUID transmons, Foster networks and Kerr parameters.

The conversion chain is

    physical circuit  ->  (omega_m, alpha_m, chi_mn, g)  ->  KerrParams

where the left-hand side is either a pair of SQUID transmons with an explicit
coupling capacitance, or a Foster network (series of parallel LC(R) stages)
with junction participations.  All energies are stored as E/h in Hz.
A transmon pair has one reduction, transmon_pair, to the (omega01, alpha, g)
columns of dressed_blocks: the optimizer and circuit files share it.  The flux
scan, whose qubit 1 sits at one bias, solves that qubit once and qubit 2 over
the grid by transmon_levels.
The CLI exits 2 naming the field for a circuit file's C12 outside [0, min
C_sigma), and for a circuit-file qubit or flux-spectroscopy bias with E_J/E_C < 1.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import mathieu_a, mathieu_b

from .constants import capacitance_from_ec, phase_zpf_from_impedance
from .errors import DimensionMismatchError

TRANSMON_RATIO_WARN = 20.0      # warn below this E_J/E_C
PARTICIPATION_WARN = 0.5        # phi_zpf above this is no longer weakly anharmonic
COUPLING_FRACTION_WARN = 0.2    # C12 / shunt ratio above which the 2-node reduction degrades


@dataclass(frozen=True)
class SquidSpec:
    """Symmetric-ish dc SQUID: total Josephson energy, junction asymmetry, flux bias.

    ej_sum_hz is E_J,a + E_J,b (in Hz); asymmetry_d = (E_J,a - E_J,b) / (E_J,a + E_J,b).
    flux_phi0 is the applied flux in units of the flux quantum.
    """

    ej_sum_hz: float
    asymmetry_d: float = 0.0
    flux_phi0: float = 0.0

    def __post_init__(self):
        if not self.ej_sum_hz > 0:
            raise ValueError(f"ej_sum_hz must be positive, got {self.ej_sum_hz}")
        if not abs(self.asymmetry_d) < 1:
            raise ValueError(f"|asymmetry_d| must be < 1, got {self.asymmetry_d}")

    def at_flux(self, flux_phi0):
        return SquidSpec(self.ej_sum_hz, self.asymmetry_d, flux_phi0)


def effective_josephson_energy(squid):
    """Flux-dependent E_J of the SQUID, E_J_sum * sqrt(cos^2 + d^2 sin^2).

    Periodic in the flux quantum and even in flux; strictly positive whenever
    the asymmetry is nonzero.
    """
    phase = np.pi * squid.flux_phi0
    return squid.ej_sum_hz * np.sqrt(
        np.cos(phase) ** 2 + squid.asymmetry_d**2 * np.sin(phase) ** 2
    )


@dataclass(frozen=True)
class TransmonSpec:
    """A flux-tunable transmon: SQUID plus charging energy."""

    squid: SquidSpec
    ec_hz: float

    def __post_init__(self):
        if self.ec_hz <= 0:
            raise ValueError("ec_hz must be positive")

    def at_flux(self, flux_phi0):
        return TransmonSpec(self.squid.at_flux(flux_phi0), self.ec_hz)

    @property
    def ej_hz(self):
        return effective_josephson_energy(self.squid)


@dataclass(frozen=True)
class TransmonSpectrum:
    omega01_hz: float
    anharmonicity_hz: float
    levels_hz: np.ndarray    # levels 0, 1, 2 relative to the ground state: 0, omega01, omega02


def transmon_levels(ej_hz, ec_hz):
    """(omega01, omega12 - omega01) of 4 E_C n^2 - E_J cos(phi) at ng = 0, in Hz.

    This is Mathieu's equation with q = -E_J/(2 E_C); the lowest three levels
    are E_C times the characteristic values a_0, b_2, a_2 (Koch et al., PRA 76,
    042319 (2007), eq. 2.7), in that fixed order and never sorted (scipy's
    mathieu_b(4, q), not needed, is wrong at isolated q).  Broadcasts; no checks.
    """
    ec = np.asarray(ec_hz, dtype=float)
    q = -np.asarray(ej_hz, dtype=float) / (2.0 * ec)
    e0 = _characteristic(mathieu_a, 0, q)
    omega01 = ec * (_characteristic(mathieu_b, 2, q) - e0)
    omega02 = ec * (_characteristic(mathieu_a, 2, q) - e0)
    return omega01, (omega02 - omega01) - omega01


def _characteristic(func, order, q):
    """scipy's func(order, q), mended where it is NaN (SciPy 1.17: a_0 at up to
    40 % of q near E_J/E_C = 1335, b_2 at 1641.15) by linear interpolation from
    the nearest finite values at q (1 - d_lo) and q (1 + d_hi), d = 1e-9 2^k;
    the error d_lo d_hi q^2 |a''| / 2 is far below rounding for d ~ 1e-8.
    """
    v = func(order, q)
    if np.isfinite(v).all():
        return v
    v = np.array(v)
    bad = ~np.isfinite(v)
    d = 1e-9 * 2.0 ** np.arange(20)
    qb = np.broadcast_to(q, v.shape)[bad][:, None]
    lo, hi = func(order, qb * (1 - d)), func(order, qb * (1 + d))
    i, j = np.argmax(np.isfinite(lo), axis=1), np.argmax(np.isfinite(hi), axis=1)
    v[bad] = (lo[range(len(qb)), i] * d[j] + hi[range(len(qb)), j] * d[i]) / (d[i] + d[j])
    if not np.isfinite(v).all():
        raise ValueError(f"no finite Mathieu characteristic value near q = {q}")
    return v


def check_transmon(spec):
    """spec, after a ValueError if E_J/E_C < 1 at its flux bias and a warning below 20."""
    ratio = spec.ej_hz / spec.ec_hz
    if ratio < 1:
        raise ValueError(f"E_J/E_C = {ratio:.2f} < 1 at flux {spec.squid.flux_phi0:g}: "
                         "not a transmon")
    if ratio < TRANSMON_RATIO_WARN:
        warnings.warn(f"E_J/E_C = {ratio:.1f} < {TRANSMON_RATIO_WARN:g} at flux "
                      f"{spec.squid.flux_phi0:g}: outside the transmon regime", stacklevel=3)
    return spec


def transmon_spectrum(spec):
    """omega01, anharmonicity and levels 0, 1, 2 at the spec's bias, after check_transmon."""
    omega01, anharm = map(float, transmon_levels(check_transmon(spec).ej_hz, spec.ec_hz))
    return TransmonSpectrum(omega01, anharm, np.array([0.0, omega01, 2 * omega01 + anharm]))


@dataclass(frozen=True)
class FosterMode:
    """One parallel LC(R) stage of a Foster-I network (R = inf when lossless)."""

    inductance_l: float
    capacitance_c: float
    resistance_r: float = np.inf

    def __post_init__(self):
        if self.inductance_l <= 0 or self.capacitance_c <= 0:
            raise ValueError("FosterMode requires positive L and C")
        if self.resistance_r <= 0:
            raise ValueError("FosterMode resistance must be positive (inf for lossless)")

    @property
    def omega_rad_s(self):
        return 1.0 / np.sqrt(self.inductance_l * self.capacitance_c)

    @property
    def freq_hz(self):
        return self.omega_rad_s / (2 * np.pi)

    @property
    def impedance_ohms(self):
        return np.sqrt(self.inductance_l / self.capacitance_c)

    @property
    def kappa_rad_s(self):
        if np.isinf(self.resistance_r):
            return 0.0
        return 1.0 / (self.resistance_r * self.capacitance_c)

    @property
    def phi_zpf(self):
        """Dimensionless zero-point phase amplitude of this mode at its own port."""
        return phase_zpf_from_impedance(self.impedance_ohms)


def foster_impedance(modes, omegas_rad_s):
    """Series impedance of the Foster network at the given angular frequencies."""
    s = 1j * np.asarray(omegas_rad_s, dtype=float)
    z = np.zeros_like(s, dtype=complex)
    for m in modes:
        y = 1.0 / (s * m.inductance_l) + s * m.capacitance_c
        if not np.isinf(m.resistance_r):
            y = y + 1.0 / m.resistance_r
        z = z + 1.0 / y
    return z


@dataclass(frozen=True)
class JunctionParticipation:
    """Zero-point phase amplitudes phi_zpf[m, j] of each mode m across junction j."""

    phi_zpf: np.ndarray
    ej_per_junction_hz: np.ndarray

    def __post_init__(self):
        phi = np.atleast_2d(np.asarray(self.phi_zpf, dtype=float))
        ej = np.atleast_1d(np.asarray(self.ej_per_junction_hz, dtype=float))
        object.__setattr__(self, "phi_zpf", phi)
        object.__setattr__(self, "ej_per_junction_hz", ej)
        if phi.shape[1] != ej.shape[0]:
            raise DimensionMismatchError(
                f"{phi.shape[1]} junction columns vs {ej.shape[0]} junction energies"
            )
        if np.any(phi < 0):
            raise ValueError("phi_zpf entries must be non-negative")
        if np.any(phi > PARTICIPATION_WARN):
            warnings.warn(
                f"phi_zpf above {PARTICIPATION_WARN}: quartic expansion is unreliable",
                stacklevel=2,
            )


def participation_from_foster(modes, ej_per_junction_hz):
    """One-port participation: every mode sees the single junction with its own phi_zpf."""
    phi = np.array([[m.phi_zpf] for m in modes])
    return JunctionParticipation(phi, np.atleast_1d(ej_per_junction_hz))


@dataclass(frozen=True)
class KerrParams:
    """Coefficients of the multimode Kerr Hamiltonian.

    mode_freqs_hz: omega_m / 2pi.  self_kerr_hz: alpha_m (signed, negative for
    transmon-like modes).  cross_kerr_hz: symmetric matrix chi_mn with zero
    diagonal (the -chi_mn n_m n_n coefficients).  exchange_g_hz: the two-mode
    flip-flop rate g.  bare_cross_kerr_chi_hz: an explicit extra -chi n_1 n_2
    term kept separate from the participation-derived cross-Kerr.
    """

    mode_freqs_hz: np.ndarray
    self_kerr_hz: np.ndarray
    cross_kerr_hz: np.ndarray
    exchange_g_hz: float = 0.0
    bare_cross_kerr_chi_hz: float = 0.0

    def __post_init__(self):
        freqs = np.atleast_1d(np.asarray(self.mode_freqs_hz, dtype=float))
        kerr = np.atleast_1d(np.asarray(self.self_kerr_hz, dtype=float))
        chi = np.atleast_2d(np.asarray(self.cross_kerr_hz, dtype=float))
        object.__setattr__(self, "mode_freqs_hz", freqs)
        object.__setattr__(self, "self_kerr_hz", kerr)
        object.__setattr__(self, "cross_kerr_hz", chi)
        n = freqs.shape[0]
        if kerr.shape != (n,) or chi.shape != (n, n):
            raise DimensionMismatchError("KerrParams field shapes disagree")
        if not np.allclose(chi, chi.T, rtol=0, atol=1e-9 * (np.max(np.abs(chi)) + 1)):
            raise ValueError("cross_kerr_hz must be symmetric")
        if np.any(np.abs(np.diag(chi)) > 0):
            raise ValueError("cross_kerr_hz must have zero diagonal")

    @property
    def n_modes(self):
        return self.mode_freqs_hz.shape[0]


def kerr_from_foster(modes, participation):
    """Quartic-order Kerr coefficients from Foster modes and junction participations.

    alpha_m = -sum_j (E_J,j / 2) phi_mj^4 (stored signed negative), and
    chi_mn = sum_j E_J,j phi_mj^2 phi_nj^2, which for a single shared junction
    equals 2 sqrt(alpha_m alpha_n) exactly.
    """
    phi = participation.phi_zpf
    ej = participation.ej_per_junction_hz
    if phi.shape[0] != len(modes):
        raise DimensionMismatchError(
            f"{phi.shape[0]} participation rows vs {len(modes)} modes"
        )
    freqs = np.array([m.freq_hz for m in modes])
    phi2 = phi**2
    self_kerr = -0.5 * (phi2**2) @ ej
    chi = (phi2 * ej) @ phi2.T
    np.fill_diagonal(chi, 0.0)
    return KerrParams(freqs, self_kerr, chi)


@dataclass(frozen=True)
class Coupling:
    """Exchange coupling between the two qubit modes.

    Either a fixed rate g_hz, or a coupling capacitance c12_farads together
    with the two total node capacitances, in which case the rate follows the
    two-node circuit reduction g = C12 sqrt(w1 w2) / (2 sqrt(Csig1 Csig2)) and
    scales with the instantaneous qubit frequencies.
    """

    g_hz: float = None
    c12_farads: float = None
    csigma_farads: tuple = None

    def __post_init__(self):
        if (self.g_hz is None) == (self.c12_farads is None):
            raise ValueError("specify exactly one of g_hz or c12_farads")
        if self.c12_farads is not None and self.csigma_farads is None:
            raise ValueError("c12_farads requires csigma_farads=(C_sigma1, C_sigma2)")

    @classmethod
    def fixed(cls, g_hz):
        return cls(g_hz=g_hz)

    @classmethod
    def capacitive(cls, c12_farads, ec1_hz, ec2_hz):
        """Capacitive coupling, C12 in [0, min C_sigma) with C_sigma from the charging energies."""
        cs = (capacitance_from_ec(ec1_hz), capacitance_from_ec(ec2_hz))
        if not 0 <= c12_farads < min(cs):
            raise ValueError(f"C12 = {c12_farads:.3g} F must lie in [0, min C_sigma = "
                             f"{min(cs):.3g} F)")
        if c12_farads > COUPLING_FRACTION_WARN * (min(cs) - c12_farads):
            warnings.warn(f"C12 exceeds {COUPLING_FRACTION_WARN:.0%} of a shunt capacitance: "
                          "two-node reduction is only approximate", stacklevel=2)
        return cls(c12_farads=c12_farads, csigma_farads=cs)

    def g_at(self, omega1_hz, omega2_hz):
        if self.g_hz is not None:
            return self.g_hz
        c1, c2 = self.csigma_farads
        return self.c12_farads / (2.0 * np.sqrt(c1 * c2)) * np.sqrt(omega1_hz * omega2_hz)


def transmon_pair(ej_hz, ec_hz, coupling):
    """(omega01, alpha, g) of coupled transmons: ej_hz and ec_hz broadcast to (2, ...),
    qubit 1 first, and one transmon_levels call solves both at every point; g is
    coupling.g_at on the solved frequencies.  Raises ValueError, naming the
    smallest E_J/E_C, when any is below 1."""
    ratio = np.asarray(ej_hz, dtype=float) / np.asarray(ec_hz, dtype=float)
    if not np.all(ratio >= 1):
        raise ValueError(f"E_J/E_C = {np.min(ratio):.2f} < 1: not a transmon")
    omega, alpha = transmon_levels(ej_hz, ec_hz)
    return omega, alpha, coupling.g_at(omega[0], omega[1])
