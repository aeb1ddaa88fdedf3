"""Independent references for the benchmark checks (numpy only, no zzkit).

Every function here re-derives a workload's expected output from the physics
the workload specifies, with algorithms that share no code with zzkit:

* dense charge-basis diagonalization for transmon levels (zzkit uses a
  tridiagonal solver with cutoff escalation);
* the N <= 2 excitation blocks (1x1, 2x2, 3x3) for zeta, since the two-mode
  Hamiltonian conserves the total excitation number;
* the analytic 2x2 dressed branches and their minimum gap for the flux scan;
* a split-step exponential propagator (Strang splitting, Richardson
  extrapolated) for the rotating-frame blockade dynamics, closed and open;
* the analytic Fourier transform of the truncated-cosine envelope for the
  spectral fractions.
"""

import itertools

import numpy as np
from scipy.linalg import expm

E_CHARGE = 1.602176634e-19      # C, exact SI
H_PLANCK = 6.62607015e-34       # J s, exact SI
TWO_PI = 2.0 * np.pi
CHARGE_CUTOFF = 40              # charge states -40..40, far past convergence for E_J/E_C >= 20


def capacitance_of_ec(ec_hz):
    return E_CHARGE**2 / (2.0 * H_PLANCK * ec_hz)


def ec_of_capacitance(c_farads):
    return E_CHARGE**2 / (2.0 * H_PLANCK * c_farads)


def squid_ej(ej_sum_hz, asymmetry_d, flux_phi0):
    phase = np.pi * flux_phi0
    return ej_sum_hz * np.sqrt(np.cos(phase) ** 2 + asymmetry_d**2 * np.sin(phase) ** 2)


def transmon_levels(ej_hz, ec_hz):
    """(omega01, anharmonicity) of 4 E_C n^2 - E_J cos(phi) by dense diagonalization."""
    n = np.arange(-CHARGE_CUTOFF, CHARGE_CUTOFF + 1, dtype=float)
    h = np.diag(4.0 * ec_hz * n**2)
    off = np.full(2 * CHARGE_CUTOFF, -0.5 * ej_hz)
    h += np.diag(off, 1) + np.diag(off, -1)
    e = np.linalg.eigvalsh(h)[:3]
    w01 = e[1] - e[0]
    return w01, (e[2] - e[1]) - w01


def block_zeta(w1, w2, a1, a2, g):
    """zeta = E11 - E10 - E01 + E00 from the N <= 2 excitation blocks.

    E00 = 0, and E10 + E01 is the trace w1 + w2 of the one-excitation block,
    whichever way its two states are labeled.  E11 is the eigenvalue of the
    3x3 block on |02>, |11>, |20> that the overlap-maximizing assignment of
    the three bare labels gives to |11>.  Vectorized over the inputs.
    """
    w1, w2, a1, a2, g = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                              for x in (w1, w2, a1, a2, g)))
    r2g = np.sqrt(2.0) * g
    h = np.zeros(w1.shape + (3, 3))
    h[..., 0, 0] = 2.0 * w2 + a2
    h[..., 1, 1] = w1 + w2
    h[..., 2, 2] = 2.0 * w1 + a1
    h[..., 0, 1] = h[..., 1, 0] = r2g
    h[..., 1, 2] = h[..., 2, 1] = r2g
    evals, evecs = np.linalg.eigh(h)
    overlap = np.abs(evecs) ** 2          # [..., bare label, eigenstate]
    perms = list(itertools.permutations(range(3)))
    totals = np.stack([sum(overlap[..., i, p[i]] for i in range(3)) for p in perms], -1)
    best = np.array(perms)[np.argmax(totals, axis=-1)]
    e11 = np.take_along_axis(evals, best[..., 1:2], axis=-1)[..., 0]
    return e11 - w1 - w2


def dressed_branches(w1, w2, g):
    mean = 0.5 * (w1 + w2)
    half = np.sqrt(0.25 * (w1 - w2) ** 2 + g**2)
    return mean - half, mean + half


# ------------------------------------------------------------------ sweep

def chip_q1(fixture):
    """(omega01, anharmonicity) of qubit 1 at its default flux bias."""
    q1 = fixture["qubits"][0]
    ej = squid_ej(q1["ej_sum_hz"], q1["asymmetry_d"], q1["default_flux_phi0"])
    return transmon_levels(ej, q1["ec_hz"])


def coupling_k(fixture):
    """g / sqrt(w1 w2) of the capacitive coupling: C12 / (2 sqrt(C1 C2))."""
    q1, q2 = fixture["qubits"]
    return fixture["coupling"]["c12_eff_farads"] / (
        2.0 * np.sqrt(capacitance_of_ec(q1["ec_hz"]) * capacitance_of_ec(q2["ec_hz"])))


def flux_scan(fixture, fluxes):
    """Bare and dressed single-excitation branches, 2J and the flux of the minimum."""
    q2 = fixture["qubits"][1]
    w1, _ = chip_q1(fixture)
    k = coupling_k(fixture)

    def w2_at(flux):
        return transmon_levels(squid_ej(q2["ej_sum_hz"], q2["asymmetry_d"], flux),
                               q2["ec_hz"])[0]

    w2 = np.array([w2_at(f) for f in fluxes])
    lower, upper = dressed_branches(w1, w2, k * np.sqrt(w1 * w2))
    # (w1 - w2)^2 + 4 k^2 w1 w2 is least at w2 = w1 (1 - 2 k^2), where the gap
    # is 2 k w1 sqrt(1 - k^2); find that flux by bisection on the monotone w2.
    target = w1 * (1.0 - 2.0 * k * k)
    lo, hi = float(fluxes[0]), float(fluxes[-1])
    sign = np.sign(w2_at(lo) - target)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.sign(w2_at(mid) - target) == sign:
            lo = mid
        else:
            hi = mid
    return {"omega1_bare_hz": np.full(len(w2), w1), "omega2_bare_hz": w2,
            "dressed_lower_hz": lower, "dressed_upper_hz": upper,
            "two_j_hz": 2.0 * k * w1 * np.sqrt(1.0 - k * k),
            "flux_at_min_phi0": 0.5 * (lo + hi)}


def foster_impedance(freqs_hz, z_ohms, omegas):
    """Series Foster network of lossless parallel LC stages (mode f, impedance Z)."""
    s = 1j * np.asarray(omegas, dtype=float)
    total = np.zeros_like(s)
    for f, z in zip(freqs_hz, z_ohms):
        w0 = TWO_PI * f
        inductance, capacitance = z / w0, 1.0 / (z * w0)
        total = total + 1.0 / (1.0 / (s * inductance) + s * capacitance)
    return total


# ----------------------------------------------------------------- design

def design_point(best_x, problem):
    """Block zeta and constraint slacks at a design point (demos/design_search model)."""
    c1, c2, c12 = best_x["c1_farads"], best_x["c2_farads"], best_x["c12_farads"]
    ec1, ec2 = ec_of_capacitance(c1 + c12), ec_of_capacitance(c2 + c12)
    w1, a1 = transmon_levels(best_x["ej1_hz"], ec1)
    w2, a2 = transmon_levels(best_x["ej2_hz"], ec2)
    g = c12 / (2.0 * np.sqrt((c1 + c12) * (c2 + c12))) * np.sqrt(w1 * w2)
    cons = problem["constraints"]
    bands = cons["freq_band_hz"]
    slacks = {
        "freq_band_q1": max(bands[0][0] - w1, w1 - bands[0][1]) / w1,
        "freq_band_q2": max(bands[1][0] - w2, w2 - bands[1][1]) / w2,
        "anharmonicity_q1": (cons["min_abs_anharmonicity_hz"] - abs(a1)) / abs(a1),
        "anharmonicity_q2": (cons["min_abs_anharmonicity_hz"] - abs(a2)) / abs(a2),
        "ej_ec_q1": (cons["min_ej_ec_ratio"] - best_x["ej1_hz"] / ec1) / cons["min_ej_ec_ratio"],
        "ej_ec_q2": (cons["min_ej_ec_ratio"] - best_x["ej2_hz"] / ec2) / cons["min_ej_ec_ratio"],
        "j_over_delta": g / abs(w1 - w2) - cons["max_j_over_delta"],
    }
    for v in problem["variables"]:
        x = best_x[v["name"]]
        slacks["bounds_" + v["name"]] = max(v["low"] - x, x - v["high"]) / (v["high"] - v["low"])
    return float(block_zeta(w1, w2, a1, a2, g)), slacks


# --------------------------------------------------------------- dynamics

def _cosine_envelope(t, start, length):
    tau = t - start
    inside = (tau >= 0.0) & (tau <= length)
    return np.where(inside, 0.5 * (1.0 - np.cos(TWO_PI * tau / length)) / length, 0.0)


def _rotate_pair(x, theta1, theta2, axes):
    """Apply exp(-i theta1 X1) exp(-i theta2 X2) along the given qubit axes of x."""
    for theta, axis in zip((theta1, theta2), axes):
        shape = (-1,) + (1,) * (x.ndim - 1)
        c = np.cos(theta).reshape(shape)
        s = np.sin(theta).reshape(shape)
        x = c * x - 1j * s * np.flip(x, axis=axis)
    return x


def _conjugate_drive(rho, theta1, theta2):
    """rho -> U rho U^dagger for U = exp(-i theta1 X1) exp(-i theta2 X2)."""
    r = rho.reshape(-1, 2, 2, 2, 2)                  # [point, q1, q2, q1', q2']
    r = _rotate_pair(r, theta1, theta2, (1, 2))
    r = np.conj(_rotate_pair(np.conj(r), theta1, theta2, (3, 4)))
    return r.reshape(-1, 4, 4)


def _static_liouvillian(zeta_hz, t1_s, t2_s):
    """Row-major vectorized Lindblad generator of the drive-free rotating frame."""
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    i2 = np.eye(2)
    h = np.diag([0.0, 0.0, 0.0, TWO_PI * zeta_hz]).astype(complex)
    ident = np.eye(4)
    lv = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    ops = [np.sqrt(1.0 / t1_s[0]) * np.kron(sm, i2), np.sqrt(1.0 / t1_s[1]) * np.kron(i2, sm)]
    for t1, t2, op in zip(t1_s, t2_s, (np.kron(sz, i2), np.kron(i2, sz))):
        gamma_phi = 1.0 / t2 - 0.5 / t1
        if gamma_phi > 0:
            ops.append(np.sqrt(gamma_phi / 2.0) * op)
    for c in ops:
        cdc = c.conj().T @ c
        lv += np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, ident) + np.kron(ident, cdc.T))
    return lv


def _split_step(points, zeta_hz, steps, lindblad):
    """Strang-split propagation of |00> through the two pi pulses of each point.

    points: (delay_s, length_s) pairs.  The drive window of every point is
    cut at its pulse edges into four segments of `steps` equal steps, so no
    step straddles an envelope kink.  Returns the state at the end of the
    drive window: (P, 4) amplitudes, or (P, 4, 4) density matrices.
    """
    delays = np.array([d for d, _ in points], dtype=float)
    lengths = np.array([ln for _, ln in points], dtype=float)
    start1, start2 = np.maximum(delays, 0.0), np.maximum(-delays, 0.0)
    edges = np.sort(np.stack([np.zeros_like(delays), start1, start1 + lengths,
                              start2, start2 + lengths], 1), axis=1)
    n = len(points)
    if lindblad is None:
        state = np.zeros((n, 4), dtype=complex)
        state[:, 0] = 1.0
    else:
        state = np.zeros((n, 4, 4), dtype=complex)
        state[:, 0, 0] = 1.0
        lv = _static_liouvillian(zeta_hz, *lindblad)
    for seg in range(4):
        a, b = edges[:, seg], edges[:, seg + 1]
        h = (b - a) / steps
        if lindblad is None:
            half = np.exp(-1j * TWO_PI * zeta_hz * 0.5 * h)     # phase of |11> per half step
        else:
            half = np.stack([expm(lv * 0.5 * hk) for hk in h])
        for k in range(steps):
            t = a + (k + 0.5) * h
            theta1 = np.pi * h * _cosine_envelope(t, start1, lengths)
            theta2 = np.pi * h * _cosine_envelope(t, start2, lengths)
            if lindblad is None:
                state[:, 3] *= half
                psi = _rotate_pair(state.reshape(n, 2, 2), theta1, theta2, (1, 2))
                state = psi.reshape(n, 4)
                state[:, 3] *= half
            else:
                vec = np.einsum("pij,pj->pi", half, state.reshape(n, 16))
                state = _conjugate_drive(vec.reshape(n, 4, 4), theta1, theta2)
                state = np.einsum("pij,pj->pi", half, state.reshape(n, 16)).reshape(n, 4, 4)
    return state, edges[:, -1]


def _excited(state, lindblad):
    pops = np.abs(state) ** 2 if lindblad is None else np.einsum("pii->pi", state).real
    return pops[:, 2] + pops[:, 3], pops[:, 1] + pops[:, 3]


def blockade_populations(points, zeta_hz, lindblad=None, readout_delay_s=0.0,
                         steps=512):
    """Excited populations (p1, p2) at readout and an estimate of their own error.

    lindblad: None for closed evolution, else ((t1_q1, t1_q2), (t2_q1, t2_q2)).
    readout_delay_s: drive-free time between the end of the pulses and readout
    (only changes populations when lindblad is given).  The split-step
    propagator runs at `steps`, 2 x and 4 x `steps` per segment; the symmetric
    splitting has an even error expansion, so Richardson extrapolation of each
    neighbouring pair is fourth order.  The finer extrapolation is returned,
    with the distance between the two extrapolations as its error estimate.
    """
    levels = []
    for n_steps in (steps, 2 * steps, 4 * steps):
        state, _ = _split_step(points, zeta_hz, n_steps, lindblad)
        if lindblad is not None:
            lv = _static_liouvillian(zeta_hz, *lindblad)
            decay = expm(lv * readout_delay_s)
            state = np.einsum("ij,pj->pi", decay, state.reshape(-1, 16)).reshape(-1, 4, 4)
        levels.append(np.array(_excited(state, lindblad)))
    coarse = levels[1] + (levels[1] - levels[0]) / 3.0
    fine = levels[2] + (levels[2] - levels[1]) / 3.0
    return fine[0], fine[1], float(np.max(np.abs(fine - coarse)))


def spectral_fraction(length_s, offset_hz, window_hz, panels=200, nodes=16):
    """Power share of a truncated-cosine envelope inside [offset -/+ window/2].

    The envelope's transform is T e^{-i pi f T} [sinc(x)/2 + sinc(x-1)/4 +
    sinc(x+1)/4] with x = f T, and its total power is 3 T / 8 (Parseval,
    unit peak), so the share is (8/3) times the integral over x of the
    squared bracket, taken by composite Gauss-Legendre quadrature.
    """
    lo, hi = (offset_hz - 0.5 * window_hz) * length_s, (offset_hz + 0.5 * window_hz) * length_s
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = half * x + 0.5 * (edges[:-1] + edges[1:])[:, None]
    bracket = 0.5 * np.sinc(x) + 0.25 * np.sinc(x - 1.0) + 0.25 * np.sinc(x + 1.0)
    return float(8.0 / 3.0 * np.sum(half * w * bracket**2))
