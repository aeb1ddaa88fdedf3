"""Rational fitting of sampled one-port responses and Foster synthesis.

The fitter is the Gustavsen-Semlyen pole-relocation scheme: a linearized
least-squares problem is solved for a scaling function sigma whose zeros
become the next pole set, iterated until the residual stops improving, after
which residues and the direct term are identified on the final poles.  Poles
are kept in conjugate pairs and reflected into the left half plane, so the
resulting model is stable by construction.

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
    """Pole-residue model  f(s) ~ sum_k r_k / (s - p_k) + d  with s = i omega."""

    poles: np.ndarray
    residues: np.ndarray
    direct_term: float
    fit_error: float

    def __post_init__(self):
        object.__setattr__(self, "poles", np.asarray(self.poles, dtype=complex))
        object.__setattr__(self, "residues", np.asarray(self.residues, dtype=complex))
        if np.any(self.poles.real > 1e-9 * np.abs(self.poles)):
            raise ValueError("all pole real parts must be <= 0 (passive fit)")

    def evaluate(self, omegas_rad_s):
        s = 1j * np.asarray(omegas_rad_s, dtype=float)
        return _model(s, self.poles, self.residues, self.direct_term)


def _pair_index(poles):
    """Classify poles: 0 real, 1 first of a conjugate pair, 2 second."""
    idx = np.zeros(len(poles), dtype=int)
    i = 0
    while i < len(poles):
        if abs(poles[i].imag) > 0:
            if i + 1 >= len(poles) or not np.isclose(poles[i + 1], np.conj(poles[i])):
                raise ValueError("complex poles must come in adjacent conjugate pairs")
            idx[i], idx[i + 1] = 1, 2
            i += 2
        else:
            i += 1
    return idx


def _basis(s, poles, idx):
    """Real-pair partial-fraction basis columns (keeps the LS system real-valued)."""
    cols = np.empty((len(s), len(poles)), dtype=complex)
    for k, p in enumerate(poles):
        if idx[k] == 0:
            cols[:, k] = 1.0 / (s - p)
        elif idx[k] == 1:
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
    idx = _pair_index(poles)
    n = len(poles)
    basis = _basis(s, poles, idx)
    a = np.hstack([basis, np.ones((len(s), 1)), -values[:, None] * basis])
    x = _lstsq_real(a, values)
    sigma_res = x[n + 1:]

    # zeros of sigma = eigenvalues of (pole matrix) - (ones) (sigma residue row)
    mat = np.zeros((n, n))
    b = np.ones(n)
    c = sigma_res.copy()
    k = 0
    while k < n:
        if idx[k] == 0:
            mat[k, k] = poles[k].real
            k += 1
        else:
            re, im = poles[k].real, poles[k].imag
            mat[k, k] = mat[k + 1, k + 1] = re
            mat[k, k + 1] = im
            mat[k + 1, k] = -im
            b[k], b[k + 1] = 2.0, 0.0
            k += 2
    new = np.linalg.eigvals(mat - np.outer(b, c))
    # enforce stability, then re-pair conjugates
    new = np.where(new.real > 0, -np.conj(new), new)
    new = np.sort_complex(new)
    out = []
    k = 0
    new = sorted(new, key=lambda z: (abs(z.imag), z.real))
    while k < len(new):
        z = new[k]
        if abs(z.imag) > 1e-12 * max(abs(z), 1.0):
            out.extend([complex(z.real, abs(z.imag)), complex(z.real, -abs(z.imag))])
            k += 2
        else:
            out.append(complex(z.real, 0.0))
            k += 1
    return np.array(out[:n])


def _residues_on_poles(values, s, poles):
    idx = _pair_index(poles)
    n = len(poles)
    x = _lstsq_real(np.hstack([_basis(s, poles, idx), np.ones((len(s), 1))]), values)
    res = np.zeros(n, dtype=complex)
    k = 0
    while k < n:
        if idx[k] == 0:
            res[k] = x[k]
            k += 1
        else:
            res[k] = complex(x[k], x[k + 1])
            res[k + 1] = np.conj(res[k])
            k += 2
    return res, float(x[n])


def _rms_error(values, model):
    return float(np.linalg.norm(model - values) / np.linalg.norm(values))


def _initial_poles(omegas, n_poles):
    """Weakly damped conjugate pairs spread over the sampled band."""
    lo, hi = omegas[0], omegas[-1]
    n_pairs = n_poles // 2
    if n_pairs:
        centers = np.linspace(max(lo, hi / (2 * n_pairs + 1)), hi, n_pairs + 2)[1:-1]
    poles = []
    for w in (centers if n_pairs else []):
        poles.extend([complex(-w / 100.0, w), complex(-w / 100.0, -w)])
    if n_poles % 2:
        poles.append(complex(-(lo + hi) / 2.0, 0.0))
    return np.array(poles)


def vector_fit(samples, n_poles):
    """Fit sampled (omega_rad_s, complex response) data with n_poles poles.

    samples may be an (N, 2)-like sequence of (omega, value) pairs or a tuple
    of two arrays.  Needs n_poles >= 1 and at least 4*n_poles samples on a
    strictly increasing frequency grid.  Raises FitDivergedError when no
    relocation round improves on the first one and the residual is still
    large, and IllConditionedError for a rank-deficient normal system.
    """
    if isinstance(samples, tuple) and len(samples) == 2:
        omegas = np.asarray(samples[0], dtype=float)
        values = np.asarray(samples[1], dtype=complex)
    else:
        arr = list(samples)
        omegas = np.array([p[0] for p in arr], dtype=float)
        values = np.array([p[1] for p in arr], dtype=complex)
    if n_poles < 1:
        raise ValueError(f"need at least one pole, got {n_poles}")
    if len(omegas) < 4 * n_poles:
        raise ValueError(f"need >= {4 * n_poles} samples for {n_poles} poles")
    if np.any(np.diff(omegas) <= 0):
        raise ValueError("sample frequencies must be strictly increasing")

    # scale to O(1) for conditioning; undo on output
    w_scale = omegas[-1]
    f_scale = float(np.max(np.abs(values)))
    if f_scale == 0.0:
        raise IllConditionedError("response samples are identically zero")
    s = 1j * omegas / w_scale
    f = values / f_scale

    poles = _initial_poles(omegas / w_scale, n_poles)
    best = None
    first_error = None
    prev = None
    for _ in range(MAX_ROUNDS):
        poles = _relocate(f, s, poles)
        res, d = _residues_on_poles(f, s, poles)
        err = _rms_error(f, _model(s, poles, res, d))
        if first_error is None:
            first_error = err
        if best is None or err < best[0]:
            best = (err, poles.copy(), res, d)
        # stop once a round stops improving the residual meaningfully
        if prev is not None and abs(prev - err) < CONVERGENCE:
            break
        prev = err
    err, poles, res, d = best
    if err >= first_error and err > 1e-2:
        raise FitDivergedError(
            f"pole relocation stuck at relative RMS {err:.3e} after {MAX_ROUNDS} rounds"
        )
    return RationalFit(
        poles=poles * w_scale,
        residues=res * f_scale * w_scale,
        direct_term=d * f_scale,
        fit_error=err,
    )


def _model(s, poles, residues, d):
    out = np.full(s.shape, d, dtype=complex)
    for p, r in zip(poles, residues):
        out = out + r / (s - p)
    return out


def foster_from_fit(fit):
    """Foster-I network (parallel RLC stages) realizing a fitted series impedance.

    Each conjugate pole pair maps to one stage with omega_m = |pole|,
    kappa_m = -2 Re(pole), C_m = 1/(2 Re residue) and L_m = 1/(C_m omega_m^2).
    Real poles with residues above REAL_POLE_TOL (relative to the largest
    residue) have no parallel-LC realization and raise NonPhysicalModeError,
    as do non-positive reconstructed elements.
    """
    modes = []
    res_scale = float(np.max(np.abs(fit.residues))) if len(fit.residues) else 1.0
    seen = set()
    for k, (p, r) in enumerate(zip(fit.poles, fit.residues)):
        if k in seen:
            continue
        if abs(p.imag) <= 1e-12 * max(abs(p), 1.0):
            if abs(r) > REAL_POLE_TOL * res_scale:
                raise NonPhysicalModeError(
                    f"real pole {p:.4g} with significant residue cannot form a "
                    "parallel-LC stage"
                )
            continue
        # locate the conjugate partner
        partner = None
        for j in range(k + 1, len(fit.poles)):
            if j not in seen and np.isclose(fit.poles[j], np.conj(p)):
                partner = j
                break
        if partner is None:
            raise NonPhysicalModeError(f"pole {p:.6g} lacks a conjugate partner")
        seen.update((k, partner))
        omega_m = abs(p)
        kappa_m = -2.0 * p.real
        c_m = 1.0 / (2.0 * r.real)
        if c_m <= 0:
            raise NonPhysicalModeError(
                f"pole {p:.6g}: residue real part {r.real:.3g} gives C <= 0"
            )
        l_m = 1.0 / (c_m * omega_m**2)
        if l_m <= 0:
            raise NonPhysicalModeError(f"pole {p:.6g}: reconstructed L <= 0")
        r_m = np.inf if kappa_m <= 1e-12 * omega_m else 1.0 / (kappa_m * c_m)
        modes.append(FosterMode(l_m, c_m, r_m))
    return sorted(modes, key=lambda m: m.omega_rad_s)
