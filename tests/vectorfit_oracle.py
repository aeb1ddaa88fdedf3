"""The pair-walking vector fit and Foster synthesis, kept as an oracle of zzkit.vectorfit.

zzkit.vectorfit states its pole layout once (a real pole has imaginary part
exactly 0; a conjugate pair fills two adjacent slots, the upper-half-plane pole
first and its exact conjugate next) and reads pairs by position.  These are the
functions it replaced, which re-derive the pairing wherever they need it:

    _pair_index        walks the poles, pairing each complex pole with a
                       neighbour that is its conjugate within a tolerance;
    _relocate          builds the state-space matrix by the same walk and
                       sorts the new zeros twice;
    _residues_on_poles walks the pairs again to rebuild complex residues;
    foster_from_fit    searches all later poles for each pole's partner.

The helpers the rewrite left as they were (_lstsq_real, _model) and the
tolerances come from zzkit.vectorfit.
"""

from dataclasses import dataclass

import numpy as np

from zzkit.circuit import FosterMode
from zzkit.errors import FitDivergedError, IllConditionedError, NonPhysicalModeError
from zzkit.vectorfit import CONVERGENCE, MAX_ROUNDS, REAL_POLE_TOL, _lstsq_real, _model


@dataclass(frozen=True)
class RationalFit:
    """The pole-residue model with the passivity check only: no pole layout."""

    poles: np.ndarray
    residues: np.ndarray
    direct_term: float
    fit_error: float

    def __post_init__(self):
        object.__setattr__(self, "poles", np.asarray(self.poles, dtype=complex))
        object.__setattr__(self, "residues", np.asarray(self.residues, dtype=complex))
        if np.any(self.poles.real > 1e-9 * np.abs(self.poles)):
            raise ValueError("all pole real parts must be <= 0 (passive fit)")


def _conjugates(a, b):
    """Whether a is close to conj(b): np.isclose(a, conj(b))'s test, on Python complexes."""
    return abs(a - b.conjugate()) <= 1e-8 + 1e-5 * abs(b)


def _pair_index(poles):
    """Classify poles: 0 real, 1 first of a conjugate pair, 2 second."""
    idx = np.zeros(len(poles), dtype=int)
    poles = np.asarray(poles, dtype=complex).tolist()
    i = 0
    while i < len(poles):
        if abs(poles[i].imag) > 0:
            if i + 1 >= len(poles) or not _conjugates(poles[i + 1], poles[i]):
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
    """Fit sampled response data with n_poles poles.

    samples is the pair (omegas, values) of arrays: the angular frequencies
    in rad/s and the complex response at each.  Needs n_poles >= 1 and at
    least 4*n_poles samples on a strictly increasing frequency grid.  Raises
    FitDivergedError when no relocation round improves on the first one and
    the residual is still large, and IllConditionedError for a rank-deficient
    normal system.
    """
    omegas, values = np.asarray(samples[0], dtype=float), np.asarray(samples[1], dtype=complex)
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
    poles = fit.poles.tolist()
    for k, (p, r) in enumerate(zip(poles, fit.residues.tolist())):
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
        for j in range(k + 1, len(poles)):
            if j not in seen and _conjugates(poles[j], p):
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
