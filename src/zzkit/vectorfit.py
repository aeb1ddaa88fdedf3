"""Rational fitting of sampled one-port responses and Foster synthesis.

The fitter is the Gustavsen-Semlyen pole-relocation scheme: a linearized
least-squares problem is solved for a scaling function sigma whose zeros
become the next pole set, iterated until the residual stops improving, after
which residues and the direct term are identified on the final poles.  Poles
are reflected into the left half plane, so the resulting model is stable by
construction.

Every pole set has one layout, which RationalFit checks: a real pole has
imaginary part exactly 0, and a conjugate pair fills slots (i, i + 1), the
upper-half-plane pole first and its exact conjugate next.  Code reads pairs by
position; _initial_poles and _relocate lay poles out so.

Foster synthesis maps each conjugate pole pair of the fitted series impedance
onto one parallel RLC stage: for Z_m(s) = (s/C)/(s^2 + s kappa + omega0^2)
the pole magnitude is exactly omega0 = 1/sqrt(LC), the pair residue has real
part 1/(2C), and kappa = 1/(RC) = -2 Re(pole).
"""

from dataclasses import dataclass

import numpy as np

from .circuit import FosterMode
from .errors import FitDivergedError, IllConditionedError, NonPhysicalModeError

MAX_ROUNDS = 30
CONVERGENCE = 1e-10     # stop when the residual improves less than this (relative)
REAL_POLE_TOL = 1e-6    # the largest residue a real pole may carry, relative to the largest one


@dataclass(frozen=True)
class RationalFit:
    """Pole-residue model  f(s) ~ sum_k r_k / (s - p_k) + d  with s = i omega.

    Pole layout: a real pole has imaginary part exactly 0; a conjugate pair fills
    two adjacent slots, the upper-half-plane pole first, its exact conjugate next.
    """

    poles: np.ndarray
    residues: np.ndarray
    direct_term: float
    fit_error: float

    def __post_init__(self):
        object.__setattr__(self, "poles", np.asarray(self.poles, dtype=complex))
        object.__setattr__(self, "residues", np.asarray(self.residues, dtype=complex))
        if np.any(self.poles.real > 1e-9 * np.abs(self.poles)):
            raise ValueError("all pole real parts must be <= 0 (passive fit)")
        poles = self.poles.tolist()     # a Python loop: numpy calls cost more at this size
        for k, p in enumerate(poles):
            if (p.imag > 0 and poles[k + 1:k + 2] != [p.conjugate()]
                    or p.imag < 0 and poles[k - 1:k] != [p.conjugate()]):
                raise ValueError("a complex pole must be followed by its exact conjugate, "
                                 "the upper-half-plane pole first")

    def evaluate(self, omegas_rad_s):
        s = 1j * np.asarray(omegas_rad_s, dtype=float)
        return _model(s, self.poles, self.residues, self.direct_term)


def _basis(s, poles):
    """Real-pair partial-fraction basis columns (keeps the LS system real-valued)."""
    cols = np.empty((len(s), len(poles)), dtype=complex)
    for k, p in enumerate(poles):
        if p.imag == 0:
            cols[:, k] = 1.0 / (s - p)
        elif p.imag > 0:
            cols[:, k] = 1.0 / (s - p) + 1.0 / (s - np.conj(p))
        else:
            cols[:, k] = 1j / (s - np.conj(p)) - 1j / (s - p)
    return cols


def _lstsq_real(a_complex, b_complex):
    a = np.vstack([a_complex.real, a_complex.imag])
    b = np.concatenate([b_complex.real, b_complex.imag])
    col_norm = np.linalg.norm(a, axis=0)
    if np.any(col_norm == 0):
        raise IllConditionedError("zero column in least-squares system")
    x, _, rank, _ = np.linalg.lstsq(a / col_norm, b, rcond=None)
    if rank < a.shape[1]:
        raise IllConditionedError(
            f"rank-deficient least-squares system ({rank} < {a.shape[1]})"
        )
    return x / col_norm


def _relocate(values, s, poles):
    """One pole-relocation round: fit f*sigma ~ rational, return zeros of sigma."""
    n = len(poles)
    basis = _basis(s, poles)
    a = np.hstack([basis, np.ones((len(s), 1)), -values[:, None] * basis])
    x = _lstsq_real(a, values)
    # zeros of sigma = eigenvalues of (pole matrix) - (ones) (sigma residue row),
    # where the pair (i, i + 1) enters the pole matrix as a real 2x2 block
    mat = np.diag(poles.real)
    b = np.ones(n)
    for i in np.flatnonzero(poles.imag > 0):
        mat[i, i + 1], mat[i + 1, i] = poles[i].imag, -poles[i].imag
        b[i], b[i + 1] = 2.0, 0.0
    new = np.linalg.eigvals(mat - np.outer(b, x[n + 1:]))
    # enforce stability, then lay the zeros out; a real matrix's complex eigenvalues come
    # in exact conjugate pairs, and each pair goes in where its upper zero sorts
    out = []
    for z in sorted(np.where(new.real > 0, -np.conj(new), new),
                    key=lambda z: (abs(z.imag), z.real)):
        if not abs(z.imag) > 1e-12 * max(abs(z), 1.0):    # a NaN zero too
            out.append(complex(z.real, 0.0))
        elif z.imag > 0:
            out += [complex(z), complex(z).conjugate()]
    return np.array(out)


def _residues_on_poles(values, s, poles):
    x = _lstsq_real(np.hstack([_basis(s, poles), np.ones((len(s), 1))]), values)
    res = x[:-1].astype(complex)
    for i in np.flatnonzero(poles.imag > 0):
        res[i] = complex(x[i], x[i + 1])
        res[i + 1] = np.conj(res[i])
    return res, float(x[-1])


def _initial_poles(omegas, n_poles):
    """Weakly damped conjugate pairs spread over the sampled band."""
    lo, hi = omegas[0], omegas[-1]
    n_pairs = n_poles // 2
    centers = np.linspace(max(lo, hi / (2 * n_pairs + 1)), hi, n_pairs + 2)[1:-1]
    poles = [q for w in centers for q in (complex(-w / 100.0, w), complex(-w / 100.0, -w))]
    if n_poles % 2:
        poles.append(complex(-(lo + hi) / 2.0, 0.0))
    return np.array(poles)


def vector_fit(samples, n_poles):
    """Fit sampled response data with n_poles poles.

    samples is the pair (omegas, values) of arrays: the angular frequencies in
    rad/s and the complex response at each.  Needs n_poles >= 1 and at least
    4*n_poles samples on a strictly increasing grid whose last frequency, which
    scales the problem, is positive.  Raises FitDivergedError when no relocation
    round improves on the first one and the residual is still large, and
    IllConditionedError for a rank-deficient normal system.
    """
    omegas, values = np.asarray(samples[0], dtype=float), np.asarray(samples[1], dtype=complex)
    if n_poles < 1:
        raise ValueError(f"need at least one pole, got {n_poles}")
    if len(omegas) < 4 * n_poles:
        raise ValueError(f"need >= {4 * n_poles} samples for {n_poles} poles")
    if np.any(np.diff(omegas) <= 0):
        raise ValueError("sample frequencies must be strictly increasing")
    if not omegas[-1] > 0:
        raise ValueError(f"the last sample frequency must be positive, got {omegas[-1]:g} rad/s")

    # scale to O(1) for conditioning; undo on output
    w_scale = omegas[-1]
    f_scale = float(np.max(np.abs(values)))
    if f_scale == 0.0:
        raise IllConditionedError("response samples are identically zero")
    s = 1j * omegas / w_scale
    f = values / f_scale
    poles = _initial_poles(omegas / w_scale, n_poles)
    errors, best = [], None
    for _ in range(MAX_ROUNDS):
        poles = _relocate(f, s, poles)
        res, d = _residues_on_poles(f, s, poles)
        err = float(np.linalg.norm(_model(s, poles, res, d) - f) / np.linalg.norm(f))
        if best is None or err < best[0]:
            best = (err, poles, res, d)
        # stop once a round stops improving the residual meaningfully
        if errors and abs(errors[-1] - err) < CONVERGENCE:
            break
        errors.append(err)
    err, poles, res, d = best
    if err >= errors[0] and err > 1e-2:
        raise FitDivergedError(
            f"pole relocation stuck at relative RMS {err:.3e} after {MAX_ROUNDS} rounds")
    return RationalFit(poles * w_scale, res * f_scale * w_scale, d * f_scale, err)


def _model(s, poles, residues, d):
    out = np.full(s.shape, d, dtype=complex)
    for p, r in zip(poles, residues):
        out = out + r / (s - p)
    return out


def foster_from_fit(fit):
    """Foster-I network (parallel RLC stages) realizing a fitted series impedance.

    Each conjugate pair maps to one stage read from its upper pole: omega_m =
    |pole|, kappa_m = -2 Re(pole), C_m = 1/(2 Re residue), L_m = 1/(C_m omega_m^2).
    A pole within 1e-12 |pole| of the real axis counts as real, at any frequency
    scale.  Real poles with residues above REAL_POLE_TOL (relative to the largest
    residue) have no parallel-LC realization and raise NonPhysicalModeError, as
    does an L, C or R that is not finite and positive (R = inf for a lossless stage).
    """
    modes = []
    res_scale = float(np.max(np.abs(fit.residues))) if len(fit.residues) else 1.0
    for p, r in zip(fit.poles.tolist(), fit.residues.tolist()):
        if p.imag < 0:      # a pair's second pole: the first made its stage
            continue
        if abs(p.imag) <= 1e-12 * abs(p):
            if abs(r) > REAL_POLE_TOL * res_scale:
                raise NonPhysicalModeError(f"real pole {p:.4g} with significant residue "
                                           "cannot form a parallel-LC stage")
            continue
        omega_m, kappa_m = abs(p), -2.0 * p.real
        lossless = kappa_m <= 1e-12 * omega_m
        try:        # Python floats raise on a zero divisor and on an overflowing power
            c_m = 1.0 / (2.0 * r.real)
            if c_m <= 0:
                raise NonPhysicalModeError(
                    f"pole {p:.6g}: residue real part {r.real:.3g} gives C <= 0")
            l_m = 1.0 / (c_m * omega_m**2)
            r_m = np.inf if lossless else 1.0 / (kappa_m * c_m)
        except ArithmeticError:
            l_m = c_m = r_m = np.nan
        if not all(0 < v < np.inf for v in ((l_m, c_m) if lossless else (l_m, c_m, r_m))):
            raise NonPhysicalModeError(
                f"pole {p:.6g}: a reconstructed L, C or R is not finite and positive")
        modes.append(FosterMode(l_m, c_m, r_m))
    return sorted(modes, key=lambda m: m.omega_rad_s)
