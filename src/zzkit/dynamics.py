"""Driven two-qubit dynamics: pulses, frames, solvers and protocols.

Everything here lives in the two-qubit computational space with basis order
|00>, |01>, |10>, |11> (qubit 1 is the left label).  A system is described by
its two neighbor-in-ground transition frequencies, the ZZ strength zeta
(E11 - E10 - E01 + E00) and optional transverse couplings:

    E00 = 0,  E01 = w2,  E10 = w1,  E11 = w1 + w2 + zeta.

Drives enter the lab frame as Omega_i(t) sin(2 pi f_d t + phi) sigma_y; in
the frame co-rotating with the carriers the rotating-wave approximation turns
them into Omega_i(t)/2 on the transverse axis, and driving each qubit at its
dressed transition leaves exactly zeta |11><11| plus the drives.  With an
exchange that frame turns over the dressed levels (_rotating_stack).

A Hamiltonian is real coefficients over one fixed basis of Hermitian
operators, H(t) = sum_m c_m(t) O_m: a static part with coefficient 1, then
in the rotating frame N1 and N2 (carrying the frame detunings) and each
qubit's two transverse axes (Omega cos phi, Omega sin phi), in the lab frame
sigma_y on each qubit.  Its func maps a scalar time or an array of times to
the matching stack of coefficients.  The K protocols of a stack
(build_protocol_hamiltonian) share the basis and differ only in their
coefficients, and a stack's func takes per-point times on a trailing K axis
(a shared time t as t[..., None]).

Closed and open evolution share one propagation core for dy/dt = G(t) y.
Its generator basis (-i O_m, or the superoperators of -i[O_m, .] with the
dissipator) is built once in real form, on the interleaved (re, im) float
view of the state, so a right-hand side is one real matrix product over the
whole stack, and every exponential, closed or open, is one real Taylor
polynomial with scaling and squaring (_expm_real; within 4e-16 max(1, |A|_1)
of scipy's expm).  The lab frame sets max_step_s and runs every point on
one clock: the time axis is split at the union of all pulse edges and
gaussian peaks, drive-free segments take exact exponentials and driven
ones fixed sixth-order three-node Magnus steps, 16 per period of the fastest
carrier; at the default tolerances they hold every carrier-resolved test
case within 6.4e-7 in population of a DOP853 reference, and the lab-frame
blockade points within 1.8e-7.  The rotating frame runs DOP853 (scipy's
DOP853 tableau and step control) with one clock per point: each point keeps
its own time, step size and error norm, restarts at its own pulse edges and
gaussian peaks, and jumps its own drive-free stretches by exact
exponentials, while all points advance together, one coefficient
evaluation per round.  Each point's action code (step, probe, size, jump,
done) sets its stage times; the stages run in fixed buffers with scipy's
own arithmetic, and only rounds where a point probes run the probe's part.

Ramsey and echo need none of this: with the exchange dropped, each spectator
state leaves qubit 1 a two-level problem, solved in closed form.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853
from scipy.special import erf, wofz

from .errors import (
    FitError,
    PositivityError,
    StiffnessError,
    StochasticityError,
    UnsupportedError,
)
from .spectrum import conditional_frequencies

TWO_PI = 2.0 * np.pi

BASIS_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))
PULSE_SHAPES = ("rectangular", "truncated_cosine", "gaussian")
FRAMES = ("lab", "rotating")

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SM = np.array([[0, 1], [0, 0]], dtype=complex)   # |0><1|
_SZ = np.diag([1.0, -1.0]).astype(complex)
_I2 = np.eye(2, dtype=complex)

SX1, SX2 = np.kron(_SX, _I2), np.kron(_I2, _SX)
SY1, SY2 = np.kron(_SY, _I2), np.kron(_I2, _SY)
SM1, SM2 = np.kron(_SM, _I2), np.kron(_I2, _SM)
SZ1, SZ2 = np.kron(_SZ, _I2), np.kron(_I2, _SZ)
N1 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
N2 = np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex)
P11 = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
FLIP_FLOP = np.zeros((4, 4), dtype=complex)
FLIP_FLOP[2, 1] = 1.0              # |10><01|
DOUBLE_FLIP = np.zeros((4, 4), dtype=complex)
DOUBLE_FLIP[3, 0] = 1.0            # |11><00|

# each frame's operators after its static part, in rad/s per Hz of coefficient;
# the RWA image of sin(w t + phi) sigma_y is (1/2)(e^{i phi} s- + h.c.)
_N1_LEVELS, _N2_LEVELS = np.diag(N1).real, np.diag(N2).real
_LAB_DRIVES = TWO_PI * np.array([SY1, SY2])
_ROTATING_OPERATORS = TWO_PI * np.array(
    [N1, N2] + [0.5 * (sm + sm.T) for sm in (SM1, SM2)] + [0.5j * (sm - sm.T) for sm in (SM1, SM2)])

RTOL_DEFAULT = 1e-9
ATOL_DEFAULT = 1e-12
GRID_RTOL = RTOL_DEFAULT / 10     # run_blockade_grid's DOP853 rtol: each point to 2e-10
RTOL_FLOOR = 100 * np.finfo(float).eps     # scipy's validate_tol floor, for DOP853 and Magnus
NORM_DRIFT_TOL = 1e-6
_COS_ROUNDING = 1e-12    # a fringe fit's cosine estimate may pass +-1 by this much
STEPS_PER_CARRIER_PERIOD = 16
END_PAD_S = 2e-9                  # a protocol's readout instant after its last pulse ends
RAMSEY_PULSE_S = 2e-9             # the rectangular pi/2 pulses of the Ramsey sequence
_MAGNUS_BLOCK = 512               # Magnus node matrices (three a step) built together
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(0.15)   # Gauss-Legendre on [0, 1]
_legendre = functools.cache(lambda: np.polynomial.legendre.leggauss(16))  # lazy: its eigh adds RSS
_SPECTRAL_PANELS = 1024           # pulse_spectral_power's panels on each side of the carrier
_TAYLOR = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, 17.0)])      # 1/k!, k = 0..16
# scipy's RungeKutta step-size control; the DOP853 tableau is read from scipy.integrate.DOP853
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_STAGE_TIMES = np.append(DOP853.C[1:], 1.0)[:, None]   # a step's times after t: 11 stages, t + h


def _pulse_shape(shape, tau, duration_s, sigma_s):
    """Unit-peak envelope tau seconds into a pulse, support not checked.

    The one envelope formula: PulseSpec.envelope applies it to one pulse and
    _pulse_stack to every pulse of a stacked grid.
    """
    if shape == "rectangular":
        return 1.0
    if shape == "truncated_cosine":
        return 0.5 * (1.0 - np.cos(TWO_PI * tau / duration_s))
    return np.exp(-0.5 * ((tau - 0.5 * duration_s) / sigma_s) ** 2)


def _pulse_transform(shape, x, s):
    """A unit-peak envelope's transform at x = f T, and its power, both in units of T.

    The transform is e^{-i pi x} times the first value, real as each shape is
    even about T/2; the power is the squared envelope's integral.  A gaussian's
    e^{-b^2} Re erf(a + ib), a = 1/(2 s sqrt 2), b = pi s x sqrt 2, s = sigma/T, is
    e^{-b^2} - e^{-a^2} Re(e^{-i pi x} w(ia - b)) by Faddeeva's w: no e^{b^2} forms.
    """
    if shape == "rectangular":
        return np.sinc(x), 1.0
    if shape == "truncated_cosine":
        return 0.5 * np.sinc(x) + 0.25 * (np.sinc(x - 1.0) + np.sinc(x + 1.0)), 0.375
    a, b = 0.5 / (s * np.sqrt(2.0)), np.pi * np.sqrt(2.0) * s * x
    bracket = np.exp(-b * b) - np.exp(-a * a) * (np.exp(-1j * np.pi * x) * wofz(1j * a - b)).real
    return s * np.sqrt(TWO_PI) * bracket, s * np.sqrt(np.pi) * erf(0.5 / s)


@dataclass(frozen=True)
class PulseSpec:
    """A shaped drive pulse on one qubit.

    amplitude is the peak Rabi rate in Hz (cycles); the rotation angle of a
    resonant pulse is 2 pi times the envelope area, so a pi pulse has area 1/2.
    The envelope vanishes identically outside [start_time, start_time+duration].
    """

    shape: str
    amplitude_hz: float
    duration_s: float
    carrier_hz: float
    phase_rad: float = 0.0
    start_time_s: float = 0.0
    gaussian_sigma_s: float = None
    target_qubit: int = 1

    def __post_init__(self):
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        for name in ("duration_s", "carrier_hz", "phase_rad", "start_time_s",
                     "gaussian_sigma_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.target_qubit not in (1, 2):
            raise ValueError("target_qubit must be 1 or 2")
        if self.gaussian_sigma_s is not None and self.gaussian_sigma_s <= 0:
            raise ValueError("gaussian_sigma_s must be positive")
        if self.shape == "gaussian" and self.gaussian_sigma_s is None:
            raise ValueError("gaussian pulses need gaussian_sigma_s")
        # last: calibrated_pulse's amplitude is only as good as the fields above
        if not math.isfinite(self.amplitude_hz):
            raise ValueError(f"amplitude_hz must be finite, got {self.amplitude_hz!r}")
        if self.amplitude_hz < 0:
            raise ValueError("amplitude_hz must be non-negative")

    @property
    def end_time_s(self):
        return self.start_time_s + self.duration_s

    def envelope(self, t):
        """Instantaneous Rabi rate in Hz; a float for a scalar t, else an array."""
        tau = np.asarray(t, dtype=float) - self.start_time_s
        shape = _pulse_shape(self.shape, tau, self.duration_s, self.gaussian_sigma_s)
        rate = np.where((tau >= 0.0) & (tau <= self.duration_s), self.amplitude_hz * shape, 0.0)
        return float(rate) if rate.ndim == 0 else rate

    def area(self):
        """Envelope area in cycles (integral of the Hz Rabi rate over time)."""
        return _area(self.shape, self.amplitude_hz, self.duration_s, self.gaussian_sigma_s)


def _area(shape, amplitude_hz, duration_s, gaussian_sigma_s):
    if shape == "rectangular":
        return amplitude_hz * duration_s
    if shape == "truncated_cosine":
        return amplitude_hz * duration_s / 2.0
    s, half = gaussian_sigma_s, 0.5 * duration_s
    return amplitude_hz * s * np.sqrt(2 * np.pi) * erf(half / (s * np.sqrt(2)))


def calibrated_pulse(shape, duration_s, carrier_hz, rotation_cycles=0.5,
                     target_qubit=1, start_time_s=0.0, phase_rad=0.0,
                     gaussian_sigma_s=None):
    """Pulse with its amplitude set so the envelope area equals rotation_cycles.

    rotation_cycles = 1/2 is a pi pulse, 1/4 a pi/2 pulse.  For gaussian
    shapes the truncated-tail area is inverted numerically via erf.  The
    amplitude is rotation_cycles over the unit-amplitude area; a shape,
    duration or width without one keeps amplitude 1, and PulseSpec names it.
    """
    amplitude = 1.0
    if shape in PULSE_SHAPES and 0 < duration_s < math.inf and (shape != "gaussian" or (
            gaussian_sigma_s is not None and 0 < gaussian_sigma_s < math.inf)):
        amplitude = rotation_cycles / _area(shape, 1.0, duration_s, gaussian_sigma_s)
    return PulseSpec(shape, amplitude, duration_s, carrier_hz, phase_rad, start_time_s,
                     gaussian_sigma_s, target_qubit)


def pi_pulse(shape, duration_s, carrier_hz, **kw):
    return calibrated_pulse(shape, duration_s, carrier_hz, rotation_cycles=0.5, **kw)


@dataclass(frozen=True)
class DissipationSpec:
    """Per-qubit relaxation (T1) and optional total coherence (T2) times."""

    t1_s: tuple
    t2_s: tuple = None

    def __post_init__(self):
        if len(self.t1_s) != 2 or not all(t > 0 for t in self.t1_s):
            raise ValueError("t1_s must hold two positive times")
        if self.t2_s is not None:
            if len(self.t2_s) != 2 or not all(t is None or t > 0 for t in self.t2_s):
                raise ValueError("t2_s must hold two positive times or nulls")
            for t2, t1 in zip(self.t2_s, self.t1_s):
                if t2 is not None and t2 > 2 * t1 + 1e-30:
                    raise ValueError("t2 must not exceed 2 t1")

    def collapse_operators(self):
        """Lowering and pure-dephasing collapse operators (angular rates inside)."""
        ops = [np.sqrt(1.0 / t1) * sm for t1, sm in zip(self.t1_s, (SM1, SM2)) if np.isfinite(t1)]
        if self.t2_s is not None:
            for t1, t2, sz in zip(self.t1_s, self.t2_s, (SZ1, SZ2)):
                if t2 is None or not np.isfinite(t2):
                    continue
                gamma_phi = 1.0 / t2 - 1.0 / (2.0 * t1)
                if gamma_phi < -1e-12:
                    raise ValueError("negative pure dephasing rate")
                if gamma_phi > 0:
                    ops.append(np.sqrt(gamma_phi / 2.0) * sz)
        return ops


@dataclass(frozen=True)
class TwoQubitSystem:
    """Effective two-qubit model used by the time-domain protocols.

    omega1_hz and omega2_hz are the 0->1 transitions with the partner in its
    ground state; zeta shifts |11>.  jxx/jyy are the XX and YY coefficients
    (each J/2 for a pure exchange J).
    """

    omega1_hz: float
    omega2_hz: float
    zeta_hz: float
    jxx_hz: float = 0.0
    jyy_hz: float = 0.0

    def __post_init__(self):
        for name in ("omega1_hz", "omega2_hz", "zeta_hz", "jxx_hz", "jyy_hz"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    @classmethod
    def from_pauli_decomposition(cls, decomp):
        """Transition data from a beta decomposition (sign convention agnostic)."""
        w1_0, _, w2_0, _ = conditional_frequencies(decomp)
        return cls(abs(w1_0), abs(w2_0), decomp.zeta_hz,
                   decomp.beta_hz[2], decomp.beta_hz[3])

    def energies(self):
        return np.array([0.0, self.omega2_hz, self.omega1_hz,
                         self.omega1_hz + self.omega2_hz + self.zeta_hz])

    def conditional_transition(self, qubit, spectator_excited):
        base = self.omega1_hz if qubit == 1 else self.omega2_hz
        return base + (self.zeta_hz if spectator_excited else 0.0)

    def static_lab_matrix(self):
        h = np.diag(self.energies()).astype(complex)
        h += (self.jxx_hz + self.jyy_hz) * (FLIP_FLOP + FLIP_FLOP.conj().T)
        h += (self.jxx_hz - self.jyy_hz) * (DOUBLE_FLIP + DOUBLE_FLIP.conj().T)
        return h


@dataclass(frozen=True)
class TimeDependentHamiltonian:
    """H(t) = sum_m c_m(t) O_m in rad/s, plus the bookkeeping the solver needs."""

    func: object                # t -> (..., M) real c_m (c_0 = 1); stacks: (..., K) -> (..., K, M)
    operators: np.ndarray       # (M, dim, dim) Hermitian O_m, in rad/s per unit coefficient
    points: tuple               # each protocol's (edges, intervals): its envelope support edges
                                # and gaussian peaks, and the (start, end) windows of its drives
    max_step_s: float = None    # resolves H's fastest frequency; set, it selects Magnus steps
    dressing: tuple = None      # over dressed levels: R (4, 4) and the points' F (..., 4) in Hz

    @property
    def dim(self):
        return self.operators.shape[-1]

    @property
    def breakpoints(self):
        """The edges of every point."""
        return tuple(sorted({e for edges, _ in self.points for e in edges}))

    @property
    def active_intervals(self):
        """The drive windows of every point."""
        return tuple(sorted({iv for _, intervals in self.points for iv in intervals}))

    def matrix(self, t):
        return _combine(self.func(t), self.operators)

    def is_static_on(self, a, b, intervals):
        """Whether H is static inside (a, b) when its drives are on in intervals only."""
        return not any(s < b - 1e-18 and e > a + 1e-18 for s, e in intervals)


def _combine(c, matrices):
    """sum_m c[..., m] matrices[m] for real c, as one real matrix product over all of c."""
    flat = matrices.reshape(len(matrices), -1).view(float)
    return (c.reshape(-1, len(matrices)) @ flat).view(matrices.dtype).reshape(
        c.shape[:-1] + matrices.shape[1:])


def _pulse_stack(rows, stacked):
    """(field, envelope, windows) of K rows (protocols) of J pulses each.

    field(name) is the (K, J) array of a PulseSpec field, (J,) for one row
    when stacked is false, and envelope(t) the (..., K, J) or (..., J) Rabi
    rates in Hz at a float ndarray t of per-point times (..., K) or times
    (...), through PulseSpec's formula (_pulse_shape) once per shape.
    windows holds each row's (edges, intervals): its pulse edges and
    gaussian peaks, and its pulses' (start, end) supports.  A gaussian far
    narrower than its window leaves the state at rest at the window's start,
    where DOP853's first step can span the whole segment, and with its peak
    an edge every step sequence samples it.
    """
    rows = [tuple(row) for row in rows]
    if not rows or len({len(row) for row in rows}) > 1:
        raise ValueError("a stack needs one or more protocols with equally many pulses")

    def field(name, dtype=float):
        # a missing gaussian_sigma_s becomes NaN
        values = np.array([[getattr(p, name) for p in row] for row in rows], dtype=dtype)
        return values if stacked else values[0]

    def window(row):
        intervals = sorted({(p.start_time_s, p.end_time_s) for p in row})
        edges = {e for iv in intervals for e in iv}
        edges |= {p.start_time_s + 0.5 * p.duration_s for p in row if p.shape == "gaussian"}
        return tuple(sorted(edges)), tuple(intervals)

    amplitude, start, duration, sigma = (field(name) for name in (
        "amplitude_hz", "start_time_s", "duration_s", "gaussian_sigma_s"))
    shapes = field("shape", object)
    kinds = [(kind, shapes == kind) for kind in sorted(set(shapes.ravel()))]

    def envelope(t):
        tau = np.repeat(t[..., None], start.shape[-1], axis=-1) - start   # whole rows: faster
        if len(kinds) == 1:
            shape = _pulse_shape(kinds[0][0], tau, duration, sigma)
        else:
            shape = np.zeros(tau.shape)
            for kind, m in kinds:
                shape[..., m] = _pulse_shape(kind, tau[..., m], duration[m], sigma[m])
        return np.where((tau >= 0.0) & (tau <= duration), amplitude * shape, 0.0)

    return field, envelope, tuple(window(row) for row in rows)


def _used(operators, static, weights):
    """Drop the operators no point reaches (static (..., M) and pulse weights (..., J, M) zero)."""
    used = static.reshape(-1, len(operators)).any(0) | weights.reshape(-1, len(operators)).any(0)
    return operators[used], static[..., used], weights[..., used]


def _contract(static, drive, weights):
    """static + sum_j drive[..., k, j] weights[k, j], one product per point over all times."""
    if drive.ndim != weights.ndim:
        return static + (drive[..., None, :] @ weights)[..., 0, :]
    c = np.empty(drive.shape[:-1] + weights.shape[-1:])
    np.matmul(np.swapaxes(drive, 0, -2), weights, out=np.swapaxes(c, 0, -2))
    c += static
    return c


def _lab_stack(system, rows, stacked):
    # sigma_y on each qubit carries the sum of its pulses' Omega(t) sin(2 pi f t + phi)
    field, envelope, windows = _pulse_stack(rows, stacked)
    on = field("target_qubit", int)[..., None] == (1, 2)
    operators, static, weights = _used(
        np.concatenate([TWO_PI * system.static_lab_matrix()[None], _LAB_DRIVES]),
        np.broadcast_to([1.0, 0.0, 0.0], on.shape[:-2] + (3,)),
        np.concatenate([np.zeros(on.shape[:-1] + (1,)), on], axis=-1))
    carrier_hz, phase = field("carrier_hz"), field("phase_rad")
    carrier = TWO_PI * carrier_hz
    fastest_hz = carrier_hz.max() if carrier_hz.size else system.omega1_hz

    def func(t):
        t = np.asarray(t, dtype=float)
        drive = envelope(t) * np.sin(carrier * t[..., None] + phase)
        return _contract(static, drive, weights)

    return TimeDependentHamiltonian(func, operators, windows,
                                    max_step_s=1.0 / (STEPS_PER_CARRIER_PERIOD * fastest_hz))


def _frame_levels(system, f1_hz, f2_hz):
    """Levels in Hz in the frame turning at f1 and f2, (K, 4) for K frames."""
    return (system.energies() - np.multiply.outer(f1_hz, _N1_LEVELS)
            - np.multiply.outer(f2_hz, _N2_LEVELS))


def _carrier_frame(system, pulses):
    """Each qubit's frame: the one carrier of its pulses, or its own transition when undriven."""
    f = {}
    for p in pulses:
        if f.setdefault(p.target_qubit, p.carrier_hz) != p.carrier_hz:
            raise UnsupportedError("pulses on one qubit carry different carriers; the "
                                   "rotating frame turns at one carrier per qubit")
    return f.get(1, system.omega1_hz), f.get(2, system.omega2_hz)


def _rotating_stack(system, rows, stacked):
    """The Hamiltonian in the frame turning at each qubit's one carrier (_carrier_frame).

    Under the RWA the sigma_y sin-drive becomes Omega/2 on a fixed transverse
    axis (the 2 omega_d terms are dropped); the axis gauge is chosen so a
    zero-phase pulse maps to +Omega/2 sigma_x, which differs from the raw
    sin -> RWA result only by a sigma_z conjugation that populations never
    see.  An exchange's double flip goes with the RWA (the lab frame keeps
    it); its flip-flop block is diagonalized, the frame turns over the dressed
    levels, and each drive keeps its cos theta share on its own transition.
    The sin theta share turns at the carriers' difference and goes too:
    UnsupportedError where |sin theta| (f1 + f2) >= |f1 - f2|, as it would
    outweigh the terms dropped at the sum.  The operators: the levels in the
    qubits' own frame, then _ROTATING_OPERATORS.
    """
    field, envelope, windows = _pulse_stack(rows, stacked)
    frames = np.array([_carrier_frame(system, row) for row in rows], dtype=float)
    f1, f2 = (frames if stacked else frames[0]).T
    dressing, share = None, 1.0
    jpm, delta = system.jxx_hz + system.jyy_hz, system.omega1_hz - system.omega2_hz
    if jpm:
        # theta = atan(2 jpm / delta) / 2: |01~> = cos|01> - sin|10>, |10~> = sin|01> + cos|10>
        # (R's columns) keep their bare labels, at w2 - jpm tan theta and w1 + jpm tan theta
        theta = 0.5 * math.atan2(2.0 * jpm * math.copysign(1.0, delta), abs(delta))
        share, mix = math.cos(theta), math.sin(theta)
        if np.any(abs(mix) * np.abs(f1 + f2) >= np.abs(f1 - f2)):
            raise UnsupportedError(
                f"carriers {np.abs(f1 - f2).min() / 1e6:.4g} MHz apart: with the exchange mixing "
                f"the qubits by sin theta = {mix:.3g}, the rotating frame cannot drop the "
                "drives' terms at the carriers' difference; use the lab frame")
        r = np.eye(4)
        r[1:3, 1:3] = [[share, mix], [-mix, share]]
        dressing = r, np.multiply.outer(f1, _N1_LEVELS) + np.multiply.outer(f2, _N2_LEVELS)
        shift = jpm * math.tan(theta)
        system = TwoQubitSystem(system.omega1_hz + shift, system.omega2_hz - shift, system.zeta_hz)
    on = field("target_qubit", int)[..., None] == (1, 2)
    phase = field("phase_rad")[..., None]
    static = np.zeros(on.shape[:-2] + (7,))
    static[..., 0] = 1.0
    static[..., 1], static[..., 2] = system.omega1_hz - f1, system.omega2_hz - f2
    weights = np.zeros(on.shape[:-1] + (7,))
    weights[..., 3:5], weights[..., 5:7] = on * np.cos(phase), on * np.sin(phase)
    own = TWO_PI * np.diag(_frame_levels(system, system.omega1_hz, system.omega2_hz))
    operators, static, weights = _used(np.concatenate([own[None], _ROTATING_OPERATORS]),
                                       static, weights * share)

    def func(t):
        return _contract(static, envelope(np.asarray(t, dtype=float)), weights)

    return TimeDependentHamiltonian(func, operators, windows, dressing=dressing)


@dataclass(frozen=True)
class ProtocolSpec:
    """Timed pulse sequence with a frame choice, read out at total_time_s.

    delay_s > 0 means the qubit-2 pulse starts before the qubit-1 pulse.
    """

    pulses: tuple
    total_time_s: float
    frame: str = "rotating"
    delay_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if self.frame not in FRAMES:
            raise ValueError(f"unknown frame {self.frame!r}")
        if not (np.isfinite(self.total_time_s) and np.isfinite(self.delay_s)):
            raise ValueError("total_time_s and delay_s must be finite")


@dataclass
class SimulationResult:
    """Time grid, per-label populations and (optionally) retained states."""

    times_s: np.ndarray
    populations: dict
    states: np.ndarray = None
    norm_drift: float = 0.0

    def p_excited(self, qubit):
        if qubit == 1:
            return self.populations[(1, 0)] + self.populations[(1, 1)]
        return self.populations[(0, 1)] + self.populations[(1, 1)]


def _segments(t0, t1, breakpoints):
    pts = sorted({float(t0), float(t1), *(float(b) for b in breakpoints if t0 < b < t1)})
    return list(zip(pts[:-1], pts[1:]))


def _check_grid(grid_s):
    """One strictly increasing time axis, or (T, K) non-decreasing columns from one start."""
    grid = np.asarray(grid_s, dtype=float)
    if (grid.ndim == 2 and grid.size and np.all(grid[0] == grid[0, 0])
            and np.all(np.diff(grid, axis=0) >= 0)):
        return grid
    if grid.ndim != 1 or len(grid) < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid_s must be strictly increasing, or (T, K) non-decreasing "
                         "columns from one start")
    return grid


def _expm_real(a):
    """exp(a) for a stack of real matrices, by Taylor polynomial with scaling and squaring.

    One s = ceil(log2 |a|_1) for the whole stack (the largest 1-norm) brings
    every matrix to norm 1 or less, where the degree-16 Taylor polynomial,
    evaluated by Paterson-Stockmeyer from a^2, a^3 and a^4 in three Horner
    products, truncates below 2.8e-15; squaring s times undoes the scaling
    (Moler and Van Loan, SIAM Rev. 45, 3 (2003)).  Against scipy's expm it
    holds random anti-Hermitian stacks within 4e-16 max(1, |a|_1) up to
    |a|_1 = 1e5 (2.1e-11 there), and chip1's Liouvillian within 6e-14 at 10 us.
    """
    norm = np.abs(a).sum(axis=-2).max(initial=0.0)
    s = int(np.ceil(np.log2(max(norm, 1.0))))
    a = a / 2.0 ** s
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a3, a4 = a2 @ a, a2 @ a2
    e = _TAYLOR[16] * a4
    for k in (12, 8, 4, 0):
        e = e + _TAYLOR[k] * eye + _TAYLOR[k + 1] * a + _TAYLOR[k + 2] * a2 + _TAYLOR[k + 3] * a3
        if k:
            e = a4 @ e
    for _ in range(s):
        e = e @ e
    return e


def _ordered_product(u):
    """u[n-1] ... u[1] u[0] of a stack (n, ..., D, D), pairwise in log2(n) stacked products."""
    while len(u) > 1:
        even = len(u) - len(u) % 2
        pairs = u[1:even:2] @ u[0:even:2]
        u = np.concatenate([pairs, u[even:]]) if even < len(u) else pairs
    return u[0]


class _Generator:
    """dy/dt = sum_m c_m(t) B_m y, the generator basis B_m built once per Hamiltonian.

    B_m is held in real form, on the interleaved (re, im) float view v of y:
    Re B_m x 1 + Im B_m x [[0, -1], [1, 0]], so that B y is real(B) v and
    exp(B) is exp(real(B)).  matrix(c) = sum_m c_m real(B_m) feeds the Magnus
    steps and the exact exponentials (_expm_real); apply(c, v) is G y for a
    whole stack, which DOP853's rounds form the same way in fixed buffers.
    """

    def __init__(self, basis):
        self.real = real = (_kron(basis.real, np.eye(2))
                            + _kron(basis.imag, np.array([[0., -1.], [1., 0.]])))
        # stacked holds each real(B_m) transposed, one under the next
        self.stacked = np.ascontiguousarray(np.swapaxes(real, 1, 2)).reshape(-1, real.shape[-1])

    def matrix(self, c):
        return _combine(c, self.real)

    def apply(self, c, v):
        return (c[..., :, None] * v[..., None, :]).reshape(v.shape[:-1] + (-1,)) @ self.stacked


def _schrodinger(ham):
    return _Generator(-1j * ham.operators)


def _commutator(x, y):
    return x @ y - y @ x


def _magnus_segment(ham, generator, y, a, times, b, max_step_s):
    """Fixed-step sixth-order Magnus propagation of y over [a, b].

    Returns the states at times (sorted, inside (a, b]) and at b.  Every time
    is a step edge, and each interval between edges is cut into equal steps of
    at most max_step_s.  A step of width h, with generators A1, A2 and A3 at
    its three Gauss-Legendre nodes, is exp(Omega) with

        a1 = h A2,  a2 = sqrt(15)/3 h (A3 - A1),  a3 = 10/3 h (A3 - 2 A2 + A1),
        C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60,
        Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2] / 240

    (Blanes, Casas and Ros, BIT 40, 434 (2000); Blanes, Casas, Oteo and Ros,
    Phys. Rep. 470, 151 (2009)).  Steps are laid out _MAGNUS_BLOCK node
    times at a time (so a stack of K states takes _MAGNUS_BLOCK / 3K steps a
    block), and memory stays flat however long the segment is.  A block's
    nodes come from one call of ham.func; a1, a2 and a3, linear in the node
    coefficients, are combined there and expanded by one generator.matrix
    call, in real form, and exponentiated together (_expm_real).  The step
    propagators between consecutive time edges multiply pairwise
    (_ordered_product), and each such run acts on the state's float view once.
    """
    knots = np.unique(np.concatenate(([a], times, [b])))
    counts = np.ceil(np.diff(knots) / max_step_s).astype(int)
    widths = np.diff(knots) / counts
    ends = np.cumsum(counts)
    block = max(1, _MAGNUS_BLOCK * y.shape[-1] // (len(_GAUSS_NODES) * y.size))
    v = np.ascontiguousarray(y).view(float)[..., None]
    states = []
    for first in range(0, ends[-1], block):
        stop = min(first + block, ends[-1])
        step = np.arange(first, stop)
        j = np.searchsorted(ends, step, side="right")
        h = widths[j]
        left = knots[j] + (step - ends[j] + counts[j]) * h
        c = ham.func((left[:, None] + h[:, None] * _GAUSS_NODES).reshape(-1, 1))
        n1, n2, n3 = c[0::3], c[1::3], c[2::3]     # node coefficients
        h = h.reshape((-1,) + (1,) * (c.ndim - 1))
        a1, a2, a3 = generator.matrix(h * np.array([
            n2, np.sqrt(15.0) / 3.0 * (n3 - n1), 10.0 / 3.0 * (n3 - 2.0 * n2 + n1)]))
        c1 = _commutator(a1, a2)
        c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
        u = _expm_real(a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0)
        lo = 0
        for hi in ends[np.searchsorted(ends, first, side="right"):
                       np.searchsorted(ends, stop, side="right")] - first:
            v = _ordered_product(u[lo:hi]) @ v
            states.append(v[..., 0].view(complex))
            lo = hi
        if lo < len(u):
            v = _ordered_product(u[lo:]) @ v
    return states[:len(times)], v[..., 0].view(complex)


def _norm(x):
    """The 2-norm of each row, rounded as scipy's np.linalg.norm rounds one row (a dot)."""
    return np.sqrt(np.vecdot(x, x))


_STEP, _DONE, _SIZE, _PROBE, _JUMP = range(5)     # a point's action in a DOP853 round


def _schedules(ham, grid):
    """Each point's own segments over its grid column: (starts, ends, opens), each (K, S + 1).

    A point's segments run between its own breakpoints (ham.points, one
    protocol's for each of K states) inside its time span, and neighbouring
    drive-free ones merge into one stretch.  opens is the action a segment
    starts with: a probe when driven, a jump for a drive-free stretch between
    two driven ones, and done for one that ends the run and for the padding
    (starts = ends = 0) past a point's last segment.
    """
    windows = ham.points * (grid.shape[1] if len(ham.points) == 1 else 1)
    table = []
    for (edges, intervals), t0, t1 in zip(windows, grid[0].tolist(), grid[-1].tolist()):
        row = []
        for a, b in _segments(t0, t1, edges):
            opens = _JUMP if ham.is_static_on(a, b, intervals) else _PROBE
            if row and opens == row[-1][2] == _JUMP:
                row[-1] = (row[-1][0], b, _JUMP)
            else:
                row.append((a, b, opens))
        if row and row[-1][2] == _JUMP:
            row[-1] = row[-1][:2] + (_DONE,)
        table.append(row)
    width = 1 + max(map(len, table))
    padded = np.array([row + [(0.0, 0.0, _DONE)] * (width - len(row)) for row in table])
    return padded[..., 0], padded[..., 1], padded[..., 2].astype(int)


def _dop853(ham, generator, y0, grid, rtol, atol):
    """DOP853 on every point's own clock: the (K, n) stack y0 at its (T, K) grid times.

    This is scipy's DOP853 (scipy.integrate.DOP853: its tableau, initial
    step, step control, E5/E3 error norm, 10 ulp minimum step and rtol
    floor), run for each point k from grid[0, k] to grid[-1, k] as solve_ivp
    would run it alone over each of its own driven segments (_schedules):
    every point keeps its own time, step size, rejection and error norm (the
    RMS over its own components), and starts each driven segment with
    scipy's initial-step probe.  A drive-free stretch is one exact
    exponential (_expm_real) per point to each grid time inside it and to
    its end.  The points advance together in rounds, each point taking the
    one action its code names: a step attempt, the probe's f(a, y), its
    sizing f(a + h0, y + h0 f), a jump across a drive-free stretch and then
    that probe at the stretch's end, or done.  The codes give the round's
    (12, K) stage times, one ham.func call: a step's 12 times, a probe's in
    the first row, a jumping point's stretch midpoint in the last, idle
    slots NaN.  The 12 stages and new state go into fixed buffers by scipy's
    rk_step arithmetic (np.dot stage sums, times h, plus y): each point's
    states are bit for bit solve_ivp's.  Only rounds where a point probes,
    sizes or jumps fill those slots and run scipy's select_initial_step.
    The stretches that end the points' runs (a readout after the last
    pulse) are jumped together after the last round, from one (1, K) call.
    A grid time inside a step is read from scipy's dense output (3 extra
    stages, one more call), one within 1e-18 of a segment's end at that
    end.  Raises StiffnessError when a point's step falls below its minimum.
    """
    rtol = max(rtol, RTOL_FLOOR)
    n_stages, a_mat = DOP853.n_stages, DOP853.A
    starts, ends, opens = _schedules(ham, grid)
    points, rows = np.arange(len(y0)), np.arange(len(grid))[:, None]
    interior = np.any((grid > grid[0] + 1e-18) & (grid < grid[-1] - 1e-18))  # dense output
    filled = np.zeros(len(y0), dtype=int)          # each point's grid rows already read

    def reached(mask):
        """(row, point) pairs of the grid times mask newly reaches, marked read."""
        nonlocal filled
        mask = mask & (rows >= filled)
        filled = filled + mask.sum(axis=0)
        return np.nonzero(mask)

    def leap(mask, c):
        """Carry the points of mask across their drive-free segments (a, b) by the exact
        exponentials of their coefficients c, reading the grid times inside."""
        which = np.flatnonzero(mask)
        j, p = reached(mask & (grid <= b + 1e-18))
        offsets = np.concatenate([grid[j, p] - a[p], (b - a)[which]])
        slot = np.concatenate([np.searchsorted(which, p), np.arange(len(which))])
        u = _expm_real(generator.matrix(c[which])[slot] * offsets[:, None, None])
        y = (u @ v[np.concatenate([p, which])][..., None])[..., 0]
        out[j, p], v[which] = y[:len(j)], y[len(j):]
        t[which], seg[which] = b[which], seg[which] + 1
        return starts[points, seg], ends[points, seg]

    v = np.ascontiguousarray(y0).view(float).copy()
    width = v.shape[-1]
    out = np.empty((len(grid),) + v.shape)
    j, p = reached(grid <= grid[0] + 1e-18)
    out[j, p] = v[p]
    t, seg = grid[0].copy(), np.zeros(len(y0), dtype=int)
    a, b, act = starts[:, 0], ends[:, 0], opens[:, 0]
    following = np.array([_STEP, _DONE, _STEP, _SIZE, _SIZE])   # each action's next, mid-segment
    f, stage, v_new = np.zeros_like(v), np.zeros_like(v), np.zeros_like(v)
    h_abs, h0, rejected = np.zeros(len(y0)), np.zeros(len(y0)), np.zeros(len(y0), dtype=bool)
    k = np.empty((DOP853.A_EXTRA.shape[1],) + v.shape)   # a step's stages, then its dense output's
    err = np.empty((2,) + v.shape)                       # a step's E5 and E3 estimates
    outer = np.empty((len(v), len(generator.real), width))   # a right-hand side's c_m y
    products = outer.reshape(len(v), -1)
    # np.dot(first[s], w) = sum_j w[j] k[j] as rk_step forms it: stages 2-11, v_new, E5, E3
    first = [k.reshape(len(k), -1)[:s].T for s in range(n_stages + 2)]
    sums = [(first[s], a_mat[s, :s], stage, stage.reshape(-1)) for s in range(2, n_stages)]
    sums.append((first[n_stages], DOP853.B, v_new, v_new.reshape(-1)))
    with np.errstate(divide="ignore", invalid="ignore"):      # idle slots run on NaN
        while not (act == _DONE).all():
            step, jump, probing = act == _STEP, act == _JUMP, act.max() >= _SIZE
            t_new = np.minimum(t + h_abs * step, b)
            h = t_new - t
            hc = h[:, None]
            times = t + np.where(step, h, np.nan) * _STAGE_TIMES
            np.multiply(f * a_mat[1, 0], hc, out=stage)
            if probing:
                # in the first row a probe's f(a, y), its sizing's f(a + h0, y + h0 f) or a
                # jump's probe at the stretch's end (the stretch's midpoint in the last row)
                size = act == _SIZE
                times[0] = np.array([times[0], times[0], a + h0, a, b])[act, points]
                times[-1] = np.where(jump, 0.5 * (a + b), times[-1])
                np.copyto(stage, h0[:, None] * f, where=size[:, None])
            c = ham.func(times)[..., None]
            if jump.any():
                a, b = leap(jump, c[-1, ..., 0])
            # scipy's rk_step, G y as generator.apply forms it; stage 1 is also the probe's
            k[0] = f
            stage += v
            np.multiply(c[0], stage[:, None, :], out=outer)
            np.matmul(products, generator.stacked, out=k[1])
            for s, (previous, w, y, flat) in enumerate(sums, start=2):
                np.dot(previous, w, out=flat)
                y *= hc
                y += v
                np.multiply(c[s - 1], y[:, None, :], out=outer)
                np.matmul(products, generator.stacked, out=k[s])
            # the step's error norm and scipy's factor: min(10, 0.9 error^(-1/8)) on
            # acceptance, at most 1 just after a rejection, and max(0.2, 0.9 error^(-1/8))
            # on rejection, 0.2 for a NaN error
            scale = atol + np.maximum(np.abs(v), np.abs(v_new)) * rtol
            for e, row in zip((DOP853.E5, DOP853.E3), err.reshape(2, -1)):
                np.dot(first[n_stages + 1], e, out=row)
            err /= scale
            err5, err3 = _norm(err) ** 2
            mix = err5 + 0.01 * err3
            error = np.where(mix == 0, 0.0, h * err5 / np.sqrt(mix * width))
            accept = step & (error < 1)
            factor = np.fmin(np.fmax(_SAFETY * error ** _ERROR_EXPONENT, _MIN_FACTOR),
                             np.where(rejected, 1.0, _MAX_FACTOR))
            h_abs = h * factor      # every point that steps next is sized first
            rejected = step ^ accept
            if probing:
                # scipy's select_initial_step: the probe takes f0 = f(a, y) (k[1]) and h0,
                # sizing f(a + h0, y + h0 f0) (k[1], with f0 now in f) and h1; h_abs is
                # raised to 10 ulp of t below, as every step is
                probe, span = act >= _PROBE, b - a
                norms = _norm(np.array([v, k[1], f, k[1] - f]) / (atol + np.abs(v) * rtol))
                d0, d1_probe, d1, d2 = norms / width ** 0.5     # scipy's RMS norms
                guess = np.where(np.minimum(d0, d1_probe) < 1e-5, 1e-6, 0.01 * d0 / d1_probe)
                h0 = np.where(probe, np.minimum(guess, span), h0)
                d = np.maximum(d1, d2 / h0)
                h1 = np.where(d <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                              (0.01 / d) ** -_ERROR_EXPONENT)
                h_abs = np.where(size, np.minimum(np.minimum(100 * h0, h1), span), h_abs)
                np.copyto(f, k[1], where=probe[:, None])
            if interior:
                j, p = reached(accept & (grid <= t_new) & (grid < b - 1e-18))
                if len(j):
                    out[j, p] = _dop853_dense(ham, generator, k, t, v, h, v_new, grid[j, p], p)
            np.copyto(t, t_new, where=accept)
            np.copyto(v, v_new, where=accept[:, None])
            np.copyto(f, k[n_stages], where=accept[:, None])
            # a step starts at least 10 ulp of t long (scipy's minimum), and a retry below fails
            min_step = 10 * (np.nextafter(t, np.inf) - t)
            stuck = rejected & (h_abs < min_step)
            if stuck.any():
                q = stuck.argmax()
                raise StiffnessError(
                    f"integration failed on [{a[q]:.3e}, {b[q]:.3e}]: "
                    "Required step size is less than spacing between numbers.")
            np.maximum(h_abs, min_step, out=h_abs)
            act = following[act]
            ended = accept & (t_new == b)
            if ended.any():
                j, p = reached(ended & (grid <= b + 1e-18))
                out[j, p] = v[p]
                seg = seg + ended
                a, b = starts[points, seg], ends[points, seg]
                act = np.where(ended, opens[points, seg], act)
    final = b > a       # the points whose run ends in a drive-free stretch
    if final.any():
        leap(final, ham.func(np.where(final, 0.5 * (a + b), np.nan)[None])[0])
    return out.view(complex)


def _dop853_dense(ham, generator, k, t, v, h, v_new, times, p):
    """scipy's DOP853 dense output at times, each in the step of its point p, (t, v) -> v_new.

    The 3 extra stages come from one ham.func call, NaN where no time is read.
    """
    stage = np.full((len(DOP853.C_EXTRA), len(v)), np.nan)
    stage[:, p] = (t + h * DOP853.C_EXTRA[:, None])[:, p]
    flat, hc = k.reshape(len(k), -1), h[:, None]
    for s, (row, c) in enumerate(zip(DOP853.A_EXTRA, ham.func(stage)), start=DOP853.n_stages + 1):
        k[s] = generator.apply(c, v + np.dot(flat[:s].T, row[:s]).reshape(v.shape) * hc)
    dv = v_new - v
    poly = [dv, hc * k[0] - dv, 2 * dv - hc * (k[DOP853.n_stages] + k[0]),
            *hc * np.dot(DOP853.D, flat).reshape((-1,) + v.shape)]
    x = ((times - t[p]) / h[p])[:, None]
    out = np.zeros((len(p), v.shape[-1]))
    for i, q in enumerate(reversed(poly)):
        out += q[p]
        out *= x if i % 2 == 0 else 1 - x
    return out + v[p]


def _propagate(ham, generator, y0, grid, rtol, atol):
    """States y(t) on grid for dy/dt = G(t) y with y(grid[0]) = y0.

    G(t) contracts ham.func with the generator basis (_schrodinger or
    _lindblad).  y0 is one state or a (K, n) stack of them, and grid one
    time axis or a (T, K) stack of them, column k point k's own; out[i] is
    the state or stack at grid[i].  The lab frame sets max_step_s and runs
    every point on one clock over all the grid's times, split at every
    breakpoint: a static segment takes exact exponentials of its real-form
    generator (_expm_real), one stack over the times inside it and its end,
    and a driven one fixed sixth-order Magnus steps (_magnus_segment), which
    have no error control: at RTOL_DEFAULT they are max_step_s long, and a
    tighter rtol shortens them by (rtol / RTOL_DEFAULT)^(1/6), so that their
    global error, of order h^6, falls in proportion to rtol.  The rotating
    frame runs DOP853 with one clock per point (_dop853), so rtol and atol
    hold each point of a stack to the bound it gets alone; over dressed
    levels (ham.dressing) y0 and the states are in the bare basis.
    """
    if ham.dressing is not None:    # U_ij = R_ij e^{2 pi i (F_i - F_j) t}, dressed to bare, or
        r, f = ham.dressing         # U x U* on row-major vec(rho), at every grid time
        t = grid.reshape(grid.shape + (1,) * (y0.ndim - grid.ndim))[..., None, None]
        u = r * np.exp(1j * TWO_PI * (f[..., :, None] - f[..., None, :]) * t)
        u = u if y0.shape[-1] == len(r) else _kron(u, u.conj())
        y0 = (np.swapaxes(u[0].conj(), -1, -2) @ y0[..., None])[..., 0]
    y = np.array(y0, dtype=complex).reshape(-1, y0.shape[-1])
    times = np.broadcast_to(grid.reshape(len(grid), -1), (len(grid), len(y)))
    if not ham.max_step_s:
        out = _dop853(ham, generator, y, times, rtol, atol).reshape((len(grid),) + y0.shape)
        return out if ham.dressing is None else (u @ out[..., None])[..., 0]
    axis = np.unique(times)
    out = np.empty((len(axis),) + y.shape, dtype=complex)
    out[0] = y
    step_s = ham.max_step_s * min(1.0, max(rtol, RTOL_FLOOR) / RTOL_DEFAULT) ** (1.0 / 6.0)
    intervals = ham.active_intervals
    for a, b in _segments(axis[0], axis[-1], ham.breakpoints):
        mask = (axis > a + 1e-18) & (axis <= b + 1e-18)
        if ham.is_static_on(a, b, intervals):
            g = generator.matrix(ham.func(np.array([0.5 * (a + b)])))
            offsets = np.append(axis[mask], b) - a
            u = _expm_real(g * offsets.reshape((-1,) + (1,) * g.ndim))
            states = (u @ y.view(float)[..., None])[..., 0].view(complex)
            out[mask], y = states[:-1], states[-1]
            continue
        states, y = _magnus_segment(ham, generator, y, a, axis[mask], b, step_s)
        if states:
            out[mask] = states
    out = out[np.searchsorted(axis, times), np.arange(len(y))]
    return out.reshape((len(grid),) + y0.shape)


def evolve_schrodinger(ham, psi0, grid_s, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT,
                       keep_states=False):
    """Integrate the Schrodinger equation on [grid[0], grid[-1]].

    Propagation runs through the shared core (_propagate) with generator -i H.
    psi0 is one state, or a (K, 4) stack propagated together under a stacked
    Hamiltonian; populations and states then hold the stack axis after the
    time axis, and grid_s may then be (T, K), one time axis per point
    (non-decreasing columns from one start).  rtol and atol steer DOP853
    (scipy's DOP853 tableau and step control, on each point's own clock) and
    shorten the fixed sixth-order Magnus steps by (rtol / RTOL_DEFAULT)^(1/6)
    (see _propagate).  A norm drift beyond 1e-6 in any state triggers one
    retry with 100x tighter tolerances before raising StiffnessError.
    """
    grid = _check_grid(grid_s)
    psi0 = np.asarray(psi0, dtype=complex)
    if np.any(np.abs(np.linalg.norm(psi0, axis=-1) - 1.0) > 1e-9):
        raise ValueError("psi0 must be normalized")
    for scale in (1.0, 1e-2):
        states = _propagate(ham, _schrodinger(ham), psi0, grid, rtol * scale, atol * scale)
        drift = float(np.max(np.abs(np.linalg.norm(states, axis=-1) - 1.0)))
        if drift <= NORM_DRIFT_TOL:
            break
    else:
        raise StiffnessError(f"norm drift {drift:.2e} exceeds {NORM_DRIFT_TOL:g}")
    pops = {lab: np.abs(states[..., k]) ** 2 for k, lab in enumerate(BASIS_LABELS)}
    return SimulationResult(grid, pops, states if keep_states else None, drift)


def _kron(a, b):
    """Kronecker product over the last two axes, broadcast over the leading ones."""
    n, m = a.shape[-1], b.shape[-1]
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*stack, n * m, n * m)


def _secular(ops, r):
    """Collapse operators in the dressed basis R, split by the change (dn1, dn2) their elements
    make: the parts turn at different carrier combinations, and no cross term is kept."""
    change = 3 * (_N1_LEVELS[:, None] - _N1_LEVELS) + _N2_LEVELS[:, None] - _N2_LEVELS
    dressed = [r.T @ c @ r for c in ops]
    return [np.where(change == k, c, 0.0) for c in dressed for k in np.unique(change[c != 0])]


def _lindblad(ham, dissipation):
    """B_m = -i(O_m x I - I x O_m^T) on row-major vec(rho), the dissipator added to B_0."""
    ops, ident = ham.operators, np.eye(ham.dim)
    basis = -1j * (_kron(ops, ident) - _kron(ident, np.swapaxes(ops, -1, -2)))
    c_ops = dissipation.collapse_operators() if dissipation is not None else ()
    for c in c_ops if ham.dressing is None else _secular(c_ops, ham.dressing[0]):
        cd_c = c.conj().T @ c
        basis[0] += _kron(c, c.conj()) - 0.5 * (_kron(cd_c, ident) + _kron(ident, cd_c.T))
    return _Generator(basis)


def _density_drift(states):
    """Largest trace drift of a stack of density matrices, checked with their positivity."""
    drift = float(np.max(np.abs(np.einsum("...ii->...", states).real - 1.0)))
    if drift > NORM_DRIFT_TOL:
        raise StiffnessError(f"trace drift {drift:.2e} exceeds {NORM_DRIFT_TOL:g}")
    hermitian = 0.5 * (states + np.swapaxes(states.conj(), -1, -2))
    min_eig = float(np.min(np.linalg.eigvalsh(hermitian)))
    if min_eig < -1e-8:
        raise PositivityError(f"density matrix eigenvalue dropped to {min_eig:.2e}")
    return drift


def evolve_lindblad(ham, rho0, dissipation, grid_s, rtol=RTOL_DEFAULT,
                    atol=ATOL_DEFAULT, keep_states=False):
    """Master-equation evolution with per-qubit relaxation and pure dephasing.

    Propagates vec(rho) through the shared core (_propagate) with the
    Liouvillian generator (_lindblad); drive-free stretches therefore use the
    exact exponential of the static Liouvillian, which makes long free decays
    cheap, through the same real-form Taylor exponential as closed systems
    (_expm_real: within 6e-14 of scipy's expm for chip1 at 10 us).
    rho0 is one density matrix, or a (K, 4, 4) stack propagated together
    under a stacked Hamiltonian, with grid_s one time axis or (T, K) as in
    evolve_schrodinger.  rtol and atol steer DOP853 (scipy's DOP853 tableau
    and step control, on each point's own clock) and shorten the fixed
    sixth-order Magnus steps by (rtol / RTOL_DEFAULT)^(1/6) (see
    _propagate).  Trace is monitored to 1e-6 and every state is checked for
    negative eigenvalues below -1e-8.
    """
    grid = _check_grid(grid_s)
    rho0 = np.asarray(rho0, dtype=complex)
    n = ham.dim
    if rho0.shape[-2:] != (n, n):
        raise ValueError(f"rho0 must be {n}x{n}")
    if (np.any(np.abs(np.einsum("...ii->...", rho0).real - 1.0) > 1e-9)
            or np.min(np.linalg.eigvalsh(rho0)) < -1e-9):
        raise ValueError("rho0 must be a unit-trace positive-semidefinite matrix")
    vec0 = rho0.reshape(rho0.shape[:-2] + (n * n,))
    out = _propagate(ham, _lindblad(ham, dissipation), vec0, grid, rtol, atol)
    out = out.reshape((len(grid),) + rho0.shape)
    drift = _density_drift(out)
    pops = {lab: out[..., k, k].real for k, lab in enumerate(BASIS_LABELS)}
    return SimulationResult(grid, pops, out if keep_states else None, drift)


def make_blockade_protocol(system, pulse_length_s, delay_s,
                           shape="truncated_cosine", frame="rotating",
                           carrier_convention="dressed", gaussian_sigma_s=None,
                           readout_pad_s=0.0):
    """Two pi pulses with the standard blockade timing.

    delay_s = t_start(Q1 pulse) - t_start(Q2 pulse): positive delay excites
    qubit 2 first.  carrier_convention "dressed" drives each qubit's
    neighbor-in-ground transition; "shifted" drives the neighbor-excited lines
    (the alternative frame choice, kept for cross-checks).
    """
    if carrier_convention not in ("dressed", "shifted"):
        raise ValueError(f"unknown carrier_convention {carrier_convention!r}")
    shifted = carrier_convention == "shifted"
    p1, p2 = (pi_pulse(shape, pulse_length_s, system.conditional_transition(q, shifted),
                       target_qubit=q, start_time_s=max(sign * delay_s, 0.0),
                       gaussian_sigma_s=gaussian_sigma_s) for q, sign in ((1, 1.0), (2, -1.0)))
    total = max(p1.end_time_s, p2.end_time_s) + END_PAD_S + readout_pad_s
    return ProtocolSpec((p1, p2), total, frame, delay_s)


def build_protocol_hamiltonian(system, protocol):
    """The Hamiltonian of a ProtocolSpec in its frame, or the stack of a sequence of them.

    A sequence of K protocols, in one frame and with equally many pulses,
    gives one Hamiltonian whose func returns the (..., K, M) stack of their
    coefficients over one operator basis, taking per-point times on a
    trailing K axis: every protocol keeps its own pulse clock, targets,
    phases and frame, and points holds each protocol's own edges and drive
    windows.
    """
    stacked = not isinstance(protocol, ProtocolSpec)
    protocols = tuple(protocol) if stacked else (protocol,)
    frames = {p.frame for p in protocols}
    if len(frames) != 1:
        raise ValueError("a stack needs one or more protocols in one frame")
    frame, = frames
    rows = [p.pulses for p in protocols]
    if frame == "lab":
        return _lab_stack(system, rows, stacked)
    return _rotating_stack(system, rows, stacked)


def run_blockade_protocol(system, protocol, dissipation=None, n_grid=121,
                          rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT):
    """Simulate the two-pulse blockade sequence and return populations in time.

    Closed-system propagation unless a DissipationSpec is given.  Populations
    are basis-state probabilities; SimulationResult.p_excited(q) reduces them
    per qubit.  The final grid point is the readout instant.  rtol and atol
    steer the adaptive DOP853 segments of the rotating frame, exchange or
    not (see _rotating_stack).  Lab-frame runs take fixed sixth-order Magnus
    steps instead, 16 per period of the fastest carrier; at the defaults the 4,
    16 and 50 ns lab points lie within 1.8e-7 in population of DOP853 at
    rtol 1e-13.  There a tighter rtol only shortens the steps, by
    (rtol / RTOL_DEFAULT)^(1/6), cutting the error in proportion.
    """
    ham = build_protocol_hamiltonian(system, protocol)
    grid = np.unique(np.append(np.linspace(0.0, protocol.total_time_s, n_grid),
                               protocol.total_time_s))
    ground = np.eye(4, dtype=complex)[0]
    if dissipation is None:
        return evolve_schrodinger(ham, ground, grid, rtol=rtol, atol=atol)
    return evolve_lindblad(ham, np.outer(ground, ground), dissipation, grid, rtol=rtol, atol=atol)


def run_blockade_grid(system, protocols, dissipation=None):
    """Populations of every protocol of a grid at its readout, from one stacked propagation.

    The K protocols (the (delay, length) points of a blockade map: one frame,
    equally many pulses) are propagated as one (K, 4) state, or (K, 16) with a
    DissipationSpec, under their stacked Hamiltonian by one evolve_schrodinger
    or evolve_lindblad call, whose norm-drift retry or trace and positivity
    checks cover every point.  Each point runs on its own time axis from the
    grid's start to its readout instant, total_time_s.  In the rotating
    frame, exchange or not, each keeps its own DOP853 clock and jumps its
    drive-free stretch before the readout by one exact exponential (see
    _dop853), and the grid holds every point to rtol GRID_RTOL =
    RTOL_DEFAULT / 10, so each lies within 2e-10 of a far tighter run of
    run_blockade_protocol, the per-point path, and within 1e-9 of its
    default-tolerance run, however many points the grid has.  Lab-frame
    Magnus stacks run one clock over every point's readout (see _propagate).
    Returns a SimulationResult with the readout instants as times_s and one
    population per point.
    """
    protocols = tuple(protocols)
    ham = build_protocol_hamiltonian(system, protocols)
    readout = np.array([p.total_time_s for p in protocols], dtype=float)
    grid = np.array([np.full(len(readout), min(0.0, readout.min())), readout])
    rtol = RTOL_DEFAULT if ham.max_step_s else GRID_RTOL     # Magnus steps: one clock, no norm
    if dissipation is None:
        psi0 = np.zeros((len(protocols), 4), dtype=complex)
        psi0[:, 0] = 1.0
        result = evolve_schrodinger(ham, psi0, grid, rtol=rtol)
    else:
        rho0 = np.zeros((len(protocols), 4, 4), dtype=complex)
        rho0[:, 0, 0] = 1.0
        result = evolve_lindblad(ham, rho0, dissipation, grid, rtol=rtol)
    return SimulationResult(readout, {lab: pops[-1] for lab, pops in result.populations.items()},
                            norm_drift=result.norm_drift)


def pulse_spectral_power(pulse, center_offset_hz, window_hz):
    """Fraction of the drive power inside a spectral window around the carrier.

    The share of the envelope's power spectrum (_pulse_transform at x = f T) on
    [offset -+ window/2]; amplitude, phase and start time leave it unchanged.
    16-node Gauss-Legendre takes a panel per sinc lobe (per 1/(64 s) lobes for a
    gaussian of s = sigma/T < 1/64) out to _SPECTRAL_PANELS panels each side, then
    the envelope's edge value J adds its tail J^2 (1/(2 pi^2 y) + sin(2 pi y)/(4 pi^3
    y^2)) beyond y.  At most 2 _SPECTRAL_PANELS panels; within 1e-11 of exact.
    """
    for name, value in (("center_offset_hz", center_offset_hz), ("window_hz", window_hz)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if window_hz <= 0:
        raise ValueError("window_hz must be positive")
    shape, s = pulse.shape, (pulse.gaussian_sigma_s or 0.0) / pulse.duration_s
    width = max(1.0, 1.0 / (64.0 * s)) if shape == "gaussian" else 1.0
    cap = _SPECTRAL_PANELS * width
    lo, hi = pulse.duration_s * (center_offset_hz + np.array([-0.5, 0.5]) * window_hz)
    a, b = np.clip([lo, hi], -cap, cap)
    edges = np.r_[a, width * np.arange(np.floor(a / width) + 1.0, np.ceil(b / width)), b]
    half = 0.5 * np.diff(edges)[:, None]
    amplitude, power = _pulse_transform(shape, half * _legendre()[0] + edges[:-1, None] + half, s)
    inside = np.sum(half * _legendre()[1] * amplitude**2)
    edge = _pulse_shape(shape, 0.0, 1.0, s) ** 2 / np.pi     # J^2 / pi
    for near, far in ((lo, hi), (-hi, -lo)):       # past +cap, then past -cap mirrored
        if far > cap:
            u, v = TWO_PI * max(near, cap), TWO_PI * far
            inside += edge * ((1.0 + np.sin(u) / u) / u - (1.0 + np.sin(v) / v) / v)
    return float(inside / power)


def evenly_spaced(times):
    """Whether times increase, each within 1e-9 of a step of the even grid between its ends."""
    even = np.linspace(times[0], times[-1], len(times))
    step = even[1] - even[0]
    return bool(step > 0 and np.all(np.abs(times - even) <= 1e-9 * step))


def _fit_fringe(times, signal, min_contrast=0.1):
    """Frequency of a cosine fringe x = A cos(2 pi f t + phi) + c by linear prediction.

    On a uniform grid of step D every such signal obeys x[n+1] + x[n-1] =
    2 cos(2 pi f D) x[n] + b exactly (Prony; Hua and Sarkar, IEEE Trans.
    ASSP 38, 814 (1990)), so one two-column least-squares solve gives the
    cosine and f = arccos(.) / (2 pi D) in [0, 1/(2D)]: a line above the
    Nyquist frequency 1/(2D) reads as its alias.  A second least-squares
    solve, on cos, sin and 1 at that f, gives the contrast 2|A|.  The fit
    needs at least four samples, all finite (FitError otherwise, as when the
    phases of a long grid overflow), on an evenly spaced grid, which the
    caller checks (evenly_spaced).
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(signal, dtype=float)
    if len(times) < 4:
        raise FitError(f"a fringe fit needs at least 4 samples, got {len(times)}")
    if not np.isfinite(x).all():
        raise FitError(f"{np.sum(~np.isfinite(x))} of {len(x)} fringe samples are not finite")
    step = (times[-1] - times[0]) / (len(times) - 1)
    mid = x[1:-1]
    (two_cos, _), *_ = np.linalg.lstsq(np.column_stack([mid, np.ones_like(mid)]),
                                       x[2:] + x[:-2], rcond=None)
    cos = 0.5 * two_cos
    if abs(cos) > 1.0 + _COS_ROUNDING:
        raise FitError(f"no oscillation: the fringe's cosine estimate is {cos:.6g}")
    freq = np.arccos(np.clip(cos, -1.0, 1.0)) / (TWO_PI * step)
    turn = TWO_PI * freq * times
    (a, b, _), *_ = np.linalg.lstsq(np.column_stack([np.cos(turn), np.sin(turn), np.ones_like(x)]),
                                    x, rcond=None)
    contrast = 2.0 * np.hypot(a, b)
    if contrast < min_contrast:
        raise FitError(f"fringe contrast {contrast:.3f} below {min_contrast}")
    return float(freq)


def _half_pi_branches(detuning_hz):
    """(..., 2, 2) propagators exp(-2 pi i T [[0, r/2], [r/2, d]]) of qubit 1's pi/2 pulse.

    T = RAMSEY_PULSE_S, Rabi rate r = 1/(4 T), d each detuning from the drive.
    Rabi's formula: e^{-i pi T d} (cos 2 pi T h - i sin(2 pi T h) [[-d, r], [r, d]] / 2h),
    h = hypot(d, r) / 2.
    """
    d = np.asarray(detuning_hz, dtype=float)[..., None, None]
    r = 0.25 / RAMSEY_PULSE_S
    h = 0.5 * np.hypot(d, r)
    turn = TWO_PI * RAMSEY_PULSE_S * h
    traceless = 0.5 * (r * _SX - d * _SZ)
    return np.exp(-1j * np.pi * RAMSEY_PULSE_S * d) * (np.cos(turn) * _I2
                                                       - 1j * np.sin(turn) / h * traceless)


def run_conditional_ramsey(system, free_time_grid_s, drive_offset_hz=None):
    """Fringe frequencies (f0, f1) of a pi/2 - wait - pi/2 sequence on qubit 1.

    f0 is the fringe with the spectator (qubit 2) in |0>, f1 with it in |1>.
    The drive sits drive_offset_hz below the spectator-in-ground transition
    (default 1.5 |zeta| + 5 MHz so both fringes stay on the same side).  With
    the exchange dropped (dispersive operation), branch s is qubit 1 alone,
    detuned d_s = drive_offset_hz + s zeta: its fringe |<1| U_s diag(1,
    e^{-2 pi i d_s t}) U_s |0>|^2 (U_s: _half_pi_branches) turns at |d_s|.
    Subtract f0 from f1 to read off zeta.  An uneven grid raises ValueError.
    """
    grid = np.asarray(free_time_grid_s, dtype=float)
    if len(grid) >= 4 and not evenly_spaced(grid):     # fewer samples: _fit_fringe's FitError
        raise ValueError("a fringe fit needs evenly spaced times")
    if drive_offset_hz is None:
        drive_offset_hz = 1.5 * abs(system.zeta_hz) + 5e6
    detuning = drive_offset_hz + np.array([0.0, system.zeta_hz])
    with np.errstate(over="ignore", invalid="ignore"):    # NaN samples: _fit_fringe raises
        u = _half_pi_branches(detuning)
        free = np.exp(-1j * TWO_PI * np.outer(grid, detuning))
    fringe = np.abs(u[:, 1, 0] * (u[:, 0, 0] + u[:, 1, 1] * free)) ** 2
    return tuple(_fit_fringe(grid, x) for x in fringe.T)


def run_echo_conditional_phase(system, spectator_flip_time_s, total_free_time_s):
    """Conditional phase accumulated over a free window with a spectator flip.

    In the frame of both undriven transitions, qubit 1's coherence stands still
    with the spectator in 0 and turns at zeta with it in 1.  A flip at t_flip
    swaps the branches, so their difference gains 2 pi zeta (2 t_flip - tau)
    radians over the window tau: no flip (None, a flip at tau) gives 2 pi
    zeta tau, and a flip at tau/2 echoes it away.  The opening pi/2 pulse's
    phase is excluded.
    """
    tau = float(total_free_time_s)
    t_flip = tau if spectator_flip_time_s is None else spectator_flip_time_s
    if not 0.0 <= t_flip <= tau:
        raise ValueError("flip time must lie inside the free window")
    return TWO_PI * system.zeta_hz * (2.0 * t_flip - tau)


def check_row_stochastic(fidelity_matrix):
    """Raise StochasticityError unless every row (last axis) is a probability vector.

    NaN entries fail the check.
    """
    m = np.asarray(fidelity_matrix, dtype=float)
    if not (np.all(m >= -1e-12) and np.all(np.abs(m.sum(axis=-1) - 1.0) <= 1e-9)):
        raise StochasticityError("fidelity matrix rows must be probabilities summing to 1")
