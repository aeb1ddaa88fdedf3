"""Driven two-qubit dynamics: pulses, frames, solvers and protocols.

Everything here lives in the two-qubit computational space with basis order
|00>, |01>, |10>, |11> (qubit 1 is the left label).  A system is described by
its two neighbor-in-ground transition frequencies, the ZZ strength zeta
(E11 - E10 - E01 + E00) and optional transverse couplings:

    E00 = 0,  E01 = w2,  E10 = w1,  E11 = w1 + w2 + zeta.

Drives enter the lab frame as Omega_i(t) sin(2 pi f_d t + phi) sigma_y; in
the frame co-rotating with the carriers the rotating-wave approximation turns
them into Omega_i(t)/2 on the transverse axis, and driving each qubit at its
dressed transition leaves exactly zeta |11><11| plus the drives.

A Hamiltonian is real coefficients over one fixed basis of Hermitian
operators, H(t) = sum_m c_m(t) O_m: a static part with coefficient 1, then
in the rotating frame N1 and N2 (carrying the frame detunings), each qubit's
two transverse axes (Omega cos phi, Omega sin phi) and the two Hermitian
parts of the exchange term, in the lab frame sigma_y on each qubit.  Its
func maps a scalar time or an array of times to the matching stack of
coefficients.  The K protocols of a stack (build_protocol_hamiltonian) share
the basis and differ only in their coefficients.

Closed and open evolution share one propagation core for dy/dt = G(t) y.
Its generator basis (-i O_m, or the superoperators of -i[O_m, .] with the
dissipator) is built once in real form, on the interleaved (re, im) float
view of the state, so a right-hand side is one real matrix product over the
whole stack, and every exponential, closed or open, is one real Taylor
polynomial with scaling and squaring (_expm_real; within 4e-16 max(1, |A|_1)
of scipy's expm).  The core splits the time axis at every
pulse edge and gaussian peak (so no pulse is ever stepped over) and
propagates drive-free segments with exact exponentials.  A driven segment
of a Hamiltonian that sets max_step_s (lab-frame carriers, a rotating-frame
exchange term at a nonzero difference frequency) runs fixed sixth-order
three-node Magnus steps, 16 per period of its fastest frequency; at the
default tolerances they hold every carrier-resolved test case within 6.4e-7
in population of a DOP853 reference, and the lab-frame blockade points
within 1.8e-7.  A smooth one runs DOP853 (scipy's DOP853 tableau and step
control, one coefficient evaluation per step), its tolerances scaled by
1/sqrt(K) so that each of K stacked states is held to the bound it would get
alone.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import DOP853

from .errors import (
    FitError,
    PositivityError,
    ResolutionError,
    StiffnessError,
    StochasticityError,
    UnsupportedError,
)
from .spectrum import conditional_frequencies

TWO_PI = 2.0 * np.pi

BASIS_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))
PULSE_SHAPES = ("rectangular", "truncated_cosine", "gaussian")
FRAMES = ("lab", "rotating", "blockade_effective")

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
    [N1, N2] + [0.5 * (sm + sm.T) for sm in (SM1, SM2)] + [0.5j * (sm - sm.T) for sm in (SM1, SM2)]
    + [FLIP_FLOP + FLIP_FLOP.T, 1j * (FLIP_FLOP - FLIP_FLOP.T)])

RTOL_DEFAULT = 1e-9
ATOL_DEFAULT = 1e-12
RTOL_FLOOR = 100 * np.finfo(float).eps     # scipy's validate_tol floor, for DOP853 and Magnus
NORM_DRIFT_TOL = 1e-6
_COS_ROUNDING = 1e-12    # a fringe fit's cosine estimate may pass +-1 by this much
STEPS_PER_CARRIER_PERIOD = 16
END_PAD_S = 2e-9                  # a protocol's readout instant after its last pulse ends
RAMSEY_PULSE_S = 2e-9             # the rectangular pi/2 pulses of the Ramsey sequence
SPECTRAL_MAX_POINTS = 2**23       # the longest record pulse_spectral_power samples
_MAGNUS_BLOCK = 512               # Magnus node matrices (three a step) built together
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(0.15)   # Gauss-Legendre on [0, 1]
_TAYLOR = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, 17.0)])      # 1/k!, k = 0..16
# scipy's RungeKutta step-size control; the DOP853 tableau is read from scipy.integrate.DOP853
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_STAGE_TIMES = np.append(DOP853.C[1:], 1.0)   # a step's func times after t: 11 stages and t + h


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
        for name in ("amplitude_hz", "duration_s", "carrier_hz", "phase_rad",
                     "start_time_s", "gaussian_sigma_s"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.amplitude_hz < 0:
            raise ValueError("amplitude_hz must be non-negative")
        if self.target_qubit not in (1, 2):
            raise ValueError("target_qubit must be 1 or 2")
        if self.shape == "gaussian" and not self.gaussian_sigma_s:
            raise ValueError("gaussian pulses need gaussian_sigma_s")

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
        if self.shape == "rectangular":
            return self.amplitude_hz * self.duration_s
        if self.shape == "truncated_cosine":
            return self.amplitude_hz * self.duration_s / 2.0
        from scipy.special import erf
        s, half = self.gaussian_sigma_s, 0.5 * self.duration_s
        return self.amplitude_hz * s * np.sqrt(2 * np.pi) * erf(half / (s * np.sqrt(2)))


def calibrated_pulse(shape, duration_s, carrier_hz, rotation_cycles=0.5,
                     target_qubit=1, start_time_s=0.0, phase_rad=0.0,
                     gaussian_sigma_s=None):
    """Pulse with its amplitude set so the envelope area equals rotation_cycles.

    rotation_cycles = 1/2 is a pi pulse, 1/4 a pi/2 pulse.  For gaussian
    shapes the truncated-tail area is inverted numerically via erf.
    """
    probe = PulseSpec(shape, 1.0, duration_s, carrier_hz, phase_rad, start_time_s,
                      gaussian_sigma_s, target_qubit)
    return replace(probe, amplitude_hz=rotation_cycles / probe.area())


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
        ops = []
        for t1, sm in zip(self.t1_s, (SM1, SM2)):
            if np.isfinite(t1):
                ops.append(np.sqrt(1.0 / t1) * sm)
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

    func: object                # t -> (..., M) real c_m (c_0 = 1), (..., K, M) for a stack
    operators: np.ndarray       # (M, dim, dim) Hermitian O_m, in rad/s per unit coefficient
    breakpoints: tuple          # envelope support edges and gaussian peaks
    active_intervals: tuple     # (start, end) windows in which drives are on
    always_time_dependent: bool = False
    max_step_s: float = None    # resolves H's fastest frequency; set, it selects Magnus steps

    @property
    def dim(self):
        return self.operators.shape[-1]

    def matrix(self, t):
        return _combine(self.func(t), self.operators)

    def is_static_on(self, a, b):
        if self.always_time_dependent:
            return False
        return not any(s < b - 1e-18 and e > a + 1e-18 for s, e in self.active_intervals)


def _combine(c, matrices):
    """sum_m c[..., m] matrices[m] for real c, as one real matrix product over all of c."""
    flat = matrices.reshape(len(matrices), -1).view(float)
    return (c.reshape(-1, len(matrices)) @ flat).view(matrices.dtype).reshape(
        c.shape[:-1] + matrices.shape[1:])


def _pulse_stack(rows, stacked):
    """(field, envelope, edges, intervals) of K rows (protocols) of J pulses each.

    field(name) is the (K, J) array of a PulseSpec field, (J,) for one row
    when stacked is false, and envelope(t) the matching (..., K, J) or
    (..., J) Rabi rates in Hz at a float ndarray t, through PulseSpec's
    formula (_pulse_shape) once per shape.  edges holds all pulse edges and
    gaussian peaks: a gaussian far narrower than its window leaves the state
    at rest at the window's start, where DOP853's first step can span the
    whole segment, and with its peak an edge every step sequence samples it.
    """
    rows = [tuple(row) for row in rows]
    if not rows or len({len(row) for row in rows}) > 1:
        raise ValueError("a stack needs one or more protocols with equally many pulses")

    def field(name, dtype=float):
        # a missing gaussian_sigma_s becomes NaN
        values = np.array([[getattr(p, name) for p in row] for row in rows], dtype=dtype)
        return values if stacked else values[0]

    amplitude, start, duration, sigma = (field(name) for name in (
        "amplitude_hz", "start_time_s", "duration_s", "gaussian_sigma_s"))
    shapes = field("shape", object)
    kinds = [(kind, shapes == kind) for kind in sorted(set(shapes.ravel()))]
    intervals = sorted({(p.start_time_s, p.end_time_s) for row in rows for p in row})
    edges = {e for iv in intervals for e in iv}
    edges |= {p.start_time_s + 0.5 * p.duration_s for row in rows for p in row
              if p.shape == "gaussian"}
    per_pulse = (...,) + (None,) * start.ndim     # t against the (K, J) or (J,) fields

    def envelope(t):
        tau = t[per_pulse] - start
        if len(kinds) == 1:
            shape = _pulse_shape(kinds[0][0], tau, duration, sigma)
        else:
            shape = np.zeros(tau.shape)
            for kind, m in kinds:
                shape[..., m] = _pulse_shape(kind, tau[..., m], duration[m], sigma[m])
        return np.where((tau >= 0.0) & (tau <= duration), amplitude * shape, 0.0)

    return field, envelope, tuple(sorted(edges)), tuple(intervals)


def _used(operators, static, weights, always=()):
    """Drop the operators no point reaches (static (..., M) and pulse weights (..., J, M) zero)."""
    used = static.reshape(-1, len(operators)).any(0) | weights.reshape(-1, len(operators)).any(0)
    used[list(always)] = True
    return operators[used], static[..., used], weights[..., used]


def _contract(drive, weights):
    """sum_j drive[..., k, j] weights[k, j], one product per point over all times (axis 0)."""
    if drive.ndim == weights.ndim:
        return np.swapaxes(np.swapaxes(drive, 0, -2) @ weights, 0, -2)
    return (drive[..., None, :] @ weights)[..., 0, :]


def _lab_stack(system, rows, stacked):
    # sigma_y on each qubit carries the sum of its pulses' Omega(t) sin(2 pi f t + phi)
    field, envelope, edges, intervals = _pulse_stack(rows, stacked)
    on = field("target_qubit", int)[..., None] == (1, 2)
    operators, static, weights = _used(
        np.concatenate([TWO_PI * system.static_lab_matrix()[None], _LAB_DRIVES]),
        np.broadcast_to([1.0, 0.0, 0.0], on.shape[:-2] + (3,)),
        np.concatenate([np.zeros(on.shape[:-1] + (1,)), on], axis=-1))
    carrier_hz, phase = field("carrier_hz"), field("phase_rad")
    carrier = TWO_PI * carrier_hz
    fastest_hz = carrier_hz.max() if carrier_hz.size else system.omega1_hz
    per_pulse = (...,) + (None,) * carrier.ndim

    def func(t):
        t = np.asarray(t, dtype=float)
        drive = envelope(t) * np.sin(carrier * t[per_pulse] + phase)
        return static + _contract(drive, weights)

    return TimeDependentHamiltonian(
        func, operators, edges, intervals,
        max_step_s=1.0 / (STEPS_PER_CARRIER_PERIOD * fastest_hz),
    )


def _frame_levels(system, f1_hz, f2_hz):
    """Levels in Hz in the frame turning at f1 and f2, (K, 4) for K frames."""
    return (system.energies() - np.multiply.outer(f1_hz, _N1_LEVELS)
            - np.multiply.outer(f2_hz, _N2_LEVELS))


def _carrier_frame(system, pulses):
    """Each qubit's frame: the carrier of its pulses, or its own transition when undriven."""
    f = [None, None]
    for p in pulses:
        q = p.target_qubit - 1
        if f[q] is not None and not np.isclose(f[q], p.carrier_hz):
            raise UnsupportedError(
                "pulses on one qubit carry different carriers; "
                "pass frame_freqs_hz explicitly"
            )
        f[q] = p.carrier_hz
    return (f[0] if f[0] is not None else system.omega1_hz,
            f[1] if f[1] is not None else system.omega2_hz)


def _rotating_stack(system, rows, stacked, frame_freqs_hz=None, include_exchange=True):
    # the levels in the qubits' own frame, then _ROTATING_OPERATORS (the exchange's two if on)
    field, envelope, edges, intervals = _pulse_stack(rows, stacked)
    frames = np.array([_carrier_frame(system, row) if frame_freqs_hz is None
                       else frame_freqs_hz for row in rows], dtype=float)
    f1, f2 = (frames if stacked else frames[0]).T
    jpm = system.jxx_hz + system.jyy_hz          # coefficient of |10><01| + h.c.
    exchange_on = include_exchange and abs(jpm) > 0
    delta_d = f1 - f2
    m = 9 if exchange_on else 7
    on = field("target_qubit", int)[..., None] == (1, 2)
    phase = field("phase_rad")[..., None]
    static = np.zeros(on.shape[:-2] + (m,))
    static[..., 0] = 1.0
    static[..., 1], static[..., 2] = system.omega1_hz - f1, system.omega2_hz - f2
    weights = np.zeros(on.shape[:-1] + (m,))
    weights[..., 3:5], weights[..., 5:7] = on * np.cos(phase), on * np.sin(phase)
    own = TWO_PI * np.diag(_frame_levels(system, system.omega1_hz, system.omega2_hz))
    operators, static, weights = _used(np.concatenate([own[None], _ROTATING_OPERATORS[:m - 1]]),
                                       static, weights, always=range(7, m))
    per_point = (...,) + (None,) * np.ndim(delta_d)

    def func(t):
        t = np.asarray(t, dtype=float)
        c = static + _contract(envelope(t), weights)
        if exchange_on:
            turn = TWO_PI * delta_d * t[per_point]
            c[..., -2] = jpm * np.cos(turn)
            c[..., -1] = jpm * np.sin(turn)
        return c

    # fixed steps must resolve the fastest frequency in this frame: the exchange
    # rotation, the frame detunings and zeta, the exchange and the drives
    levels = _frame_levels(system, f1, f2)
    exchange_turns = exchange_on and bool(np.any(delta_d != 0))
    rate_hz = max(np.abs(delta_d).max(), np.abs(levels).max(), abs(jpm),
                  field("amplitude_hz").sum(axis=-1).max(initial=0.0))
    return TimeDependentHamiltonian(
        func, operators, edges, intervals,
        always_time_dependent=exchange_turns,
        max_step_s=1.0 / (STEPS_PER_CARRIER_PERIOD * rate_hz) if exchange_turns else None,
    )


def rotating_frame_transform(system, pulses, frame_freqs_hz=None, include_exchange=True):
    """Hamiltonian in the frame co-rotating with the drive carriers.

    The frame rotates each qubit at frame_freqs_hz (default: the carrier of
    that qubit's pulses, or its own transition when undriven).  Under the RWA
    the sigma_y sin-drive becomes Omega/2 on a fixed transverse axis (the
    2 omega_d terms are dropped); the axis gauge is chosen so a zero-phase
    pulse maps to +Omega/2 sigma_x, which differs from the raw sin -> RWA
    result only by a sigma_z conjugation that populations never see.  The
    excitation-conserving part of any XX+YY coupling is kept exactly as a
    difference-frequency term; its double-excitation part rotates at the
    carrier sum and is dropped with the RWA.  Full counter-rotating dynamics
    belongs to the lab frame (build_protocol_hamiltonian).
    """
    return _rotating_stack(system, [pulses], False, frame_freqs_hz, include_exchange)


@dataclass(frozen=True)
class ProtocolSpec:
    """Timed pulse sequence with a frame choice and readout instants.

    delay_s > 0 means the qubit-2 pulse starts before the qubit-1 pulse.
    """

    pulses: tuple
    total_time_s: float
    frame: str = "rotating"
    delay_s: float = 0.0
    readout_times_s: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if self.frame not in FRAMES:
            raise ValueError(f"unknown frame {self.frame!r}")
        if not (np.isfinite(self.total_time_s) and np.isfinite(self.delay_s)):
            raise ValueError("total_time_s and delay_s must be finite")
        ro = self.readout_times_s
        ro = (self.total_time_s,) if ro is None else tuple(ro)
        for t in ro:
            if not 0 <= t <= self.total_time_s + 1e-15:
                raise ValueError("readout times must fall inside [0, total_time]")
        object.__setattr__(self, "readout_times_s", ro)


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
    grid = np.asarray(grid_s, dtype=float)
    if grid.ndim != 1 or len(grid) < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid_s must be strictly increasing")
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
    whole stack, on the float view that DOP853 integrates.
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
        c = ham.func((left[:, None] + h[:, None] * _GAUSS_NODES).ravel())
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


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853_segment(ham, generator, y, a, times, b, rtol, atol):
    """Adaptive DOP853 propagation of y over [a, b], one ham.func call per step.

    Returns the states at times (sorted, inside (a, b]) and at b.  This is
    scipy's DOP853 (scipy.integrate.DOP853: its tableau, initial step, step
    control, E5/E3 error norm, 10 ulp minimum step and rtol floor), operation
    for operation on the float view of the stack, with one change: all of a
    step's stage times t + C_i h are known before it starts, so each step
    attempt takes its 11 inner stages and its t + h stage from one call of
    ham.func, and only the generator products run stage by stage.  A time
    inside the segment is read from the step that ends at or after it,
    through scipy's DOP853 dense output, whose 3 extra stages also come from
    one call; steps that hold no such time skip it.  Raises StiffnessError
    when the step falls below the minimum.
    """
    shape = y.shape
    rtol = max(rtol, RTOL_FLOOR)
    n_stages = DOP853.n_stages
    a_mat, b_vec, e3, e5 = DOP853.A, DOP853.B, DOP853.E3, DOP853.E5

    def rhs(c, v):
        return generator.apply(c, v.reshape(shape[:-1] + (-1,))).reshape(-1)

    v = np.ascontiguousarray(y).reshape(-1).view(float)
    k = np.empty((DOP853.A_EXTRA.shape[1], v.size))    # a step's stages, then its dense output's
    f = rhs(ham.func(a), v)
    # scipy's select_initial_step
    scale = atol + np.abs(v) * rtol
    d0, d1 = _rms(v / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, b - a)
    d2 = _rms((rhs(ham.func(a + h0), v + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    h_abs = min(100 * h0, h1, b - a)
    end = np.searchsorted(times, b - 1e-18)      # times[end:] are read at b itself
    states, first = [], 0
    t = a
    while t < b:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(f"integration failed on [{a:.3e}, {b:.3e}]: "
                                     "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, b)
            h = t_new - t
            h_abs = np.abs(h)
            c = ham.func(t + h * _STAGE_TIMES)
            k[0] = f
            for s in range(1, n_stages):
                k[s] = rhs(c[s - 1], v + np.dot(k[:s].T, a_mat[s, :s]) * h)
            v_new = v + h * np.dot(k[:n_stages].T, b_vec)
            f_new = k[n_stages] = rhs(c[-1], v_new)
            scale = atol + np.maximum(np.abs(v), np.abs(v_new)) * rtol
            err5 = np.dot(k[:n_stages + 1].T, e5) / scale
            err3 = np.dot(k[:n_stages + 1].T, e3) / scale
            err5_2, err3_2 = np.linalg.norm(err5) ** 2, np.linalg.norm(err3) ** 2
            error = (0.0 if err5_2 == 0 and err3_2 == 0 else
                     np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale)))
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(
                    _MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        last = min(np.searchsorted(times, t_new, side="right"), end)
        if last > first:
            states.extend(_dop853_dense(ham, rhs, k, t, v, h, v_new, f_new, times[first:last])
                          .view(complex).reshape((-1,) + shape))
            first = last
        t, v, f = t_new, v_new, f_new
    y = v.view(complex).reshape(shape)
    return states + [y] * (len(times) - end), y


def _dop853_dense(ham, rhs, k, t, v, h, v_new, f_new, times):
    """scipy's DOP853 dense output of the step from (t, v) to (t + h, v_new) at times."""
    c = ham.func(t + h * DOP853.C_EXTRA)
    for s, (row, c_s) in enumerate(zip(DOP853.A_EXTRA, c), start=DOP853.n_stages + 1):
        k[s] = rhs(c_s, v + np.dot(k[:s].T, row[:s]) * h)
    dv = v_new - v
    poly = np.empty((3 + len(DOP853.D), v.size))
    poly[0] = dv
    poly[1] = h * k[0] - dv
    poly[2] = 2 * dv - h * (f_new + k[0])
    poly[3:] = h * np.dot(DOP853.D, k)
    x = ((times - t) / h)[:, None]
    out = np.zeros((len(x), v.size))
    for i, p in enumerate(reversed(poly)):
        out += p
        out *= x if i % 2 == 0 else 1 - x
    return out + v


def _propagate(ham, generator, y0, grid, rtol, atol):
    """States y(t) on grid for dy/dt = G(t) y with y(grid[0]) = y0.

    G(t) contracts ham.func with the generator basis (_schrodinger or
    _lindblad).  y0 is one state or a stack of them, and out[i] is the state
    or stack at grid[i].  The time axis is split at every breakpoint.  A
    static segment takes exact exponentials of its real-form generator
    (_expm_real), one stack over the grid offsets inside it and its end, each
    applied to the state's float view; a driven one of a Hamiltonian
    that sets max_step_s takes fixed Magnus steps (_magnus_segment), any
    other DOP853 (_dop853_segment: scipy's DOP853 tableau and step control,
    one coefficient evaluation per step), its steps sized by its embedded
    error estimate alone, its inner grid times read from the dense output.
    rtol and atol steer DOP853, scaled by 1/sqrt(K) for a stack of K states:
    the error norm, the RMS over every real component of the stack, dilutes
    one state's error by sqrt(K).  The sixth-order Magnus steps have no error
    control: at RTOL_DEFAULT they are max_step_s long, and a tighter rtol
    shortens them by (rtol / RTOL_DEFAULT)^(1/6), so that their global error,
    of order h^6, falls in proportion to rtol.
    """
    shape = y0.shape
    per_state = 1.0 / np.sqrt(np.prod(shape[:-1]))     # DOP853 tolerance scale, see above
    y = np.array(y0, dtype=complex)
    out = np.empty((len(grid),) + shape, dtype=complex)
    out[0] = y0
    for a, b in _segments(grid[0], grid[-1], ham.breakpoints):
        mask = (grid > a + 1e-18) & (grid <= b + 1e-18)
        if ham.is_static_on(a, b):
            g = generator.matrix(ham.func(0.5 * (a + b)))
            offsets = np.append(grid[mask], b) - a
            u = _expm_real(g * offsets.reshape((-1,) + (1,) * g.ndim))
            states = (u @ y.view(float)[..., None])[..., 0].view(complex)
            out[mask], y = states[:-1], states[-1]
            continue
        if ham.max_step_s:
            tighter = max(rtol, RTOL_FLOOR) / RTOL_DEFAULT
            step_s = ham.max_step_s * min(1.0, tighter) ** (1.0 / 6.0)
            states, y = _magnus_segment(ham, generator, y, a, grid[mask], b, step_s)
        else:
            states, y = _dop853_segment(ham, generator, y, a, grid[mask], b,
                                        rtol * per_state, atol * per_state)
        if states:
            out[mask] = states
    return out


def evolve_schrodinger(ham, psi0, grid_s, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT,
                       keep_states=False):
    """Integrate the Schrodinger equation on [grid[0], grid[-1]].

    Propagation runs through the shared segment loop with generator -i H.
    psi0 is one state, or a (K, 4) stack propagated together under a stacked
    Hamiltonian; populations and states then hold the stack axis after the
    time axis.  rtol and atol steer the DOP853 segments (scipy's DOP853
    tableau and step control, one coefficient evaluation per step) and
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


def _lindblad(ham, dissipation):
    """B_m = -i(O_m x I - I x O_m^T) on row-major vec(rho), the dissipator added to B_0."""
    ops, ident = ham.operators, np.eye(ham.dim)
    basis = -1j * (_kron(ops, ident) - _kron(ident, np.swapaxes(ops, -1, -2)))
    for c in dissipation.collapse_operators() if dissipation is not None else ():
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

    Propagates vec(rho) through the shared segment loop with the Liouvillian
    generator (_lindblad); drive-free segments therefore use the exact
    exponential of the static Liouvillian, which makes long free decays cheap,
    through the same real-form Taylor exponential as closed systems
    (_expm_real: within 6e-14 of scipy's expm for chip1 at 10 us).
    rho0 is one density matrix, or a (K, 4, 4) stack propagated together
    under a stacked Hamiltonian.  rtol and atol steer the DOP853 segments
    (scipy's DOP853 tableau and step control, one coefficient evaluation per
    step) and shorten the fixed sixth-order Magnus steps by
    (rtol / RTOL_DEFAULT)^(1/6) (see _propagate).  Trace is
    monitored to 1e-6 and every state is checked for negative eigenvalues
    below -1e-8.
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
    if carrier_convention == "dressed":
        f1 = system.conditional_transition(1, False)
        f2 = system.conditional_transition(2, False)
    elif carrier_convention == "shifted":
        f1 = system.conditional_transition(1, True)
        f2 = system.conditional_transition(2, True)
    else:
        raise ValueError(f"unknown carrier_convention {carrier_convention!r}")
    t1 = max(delay_s, 0.0)
    t2 = max(-delay_s, 0.0)
    p1 = pi_pulse(shape, pulse_length_s, f1, target_qubit=1, start_time_s=t1,
                  gaussian_sigma_s=gaussian_sigma_s)
    p2 = pi_pulse(shape, pulse_length_s, f2, target_qubit=2, start_time_s=t2,
                  gaussian_sigma_s=gaussian_sigma_s)
    total = max(p1.end_time_s, p2.end_time_s) + END_PAD_S + readout_pad_s
    return ProtocolSpec((p1, p2), total, frame, delay_s, (total,))


def build_protocol_hamiltonian(system, protocol, include_exchange=True):
    """The Hamiltonian of a ProtocolSpec in its frame, or the stack of a sequence of them.

    A sequence of K protocols, in one frame and with equally many pulses,
    gives one Hamiltonian whose func returns the (..., K, M) stack of their
    coefficients over one operator basis: every protocol keeps its own pulse
    clock, targets, phases and frame, and the breakpoints are the union of
    all pulse edges and gaussian peaks.
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
    if frame == "blockade_effective":
        return _rotating_stack(system, rows, stacked, (system.omega1_hz, system.omega2_hz),
                               include_exchange=False)
    return _rotating_stack(system, rows, stacked, include_exchange=include_exchange)


def run_blockade_protocol(system, protocol, dissipation=None, n_grid=121,
                          include_exchange=True, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT):
    """Simulate the two-pulse blockade sequence and return populations in time.

    Closed-system propagation unless a DissipationSpec is given.  Populations
    are basis-state probabilities; SimulationResult.p_excited(q) reduces them
    per qubit.  The final grid point is the readout instant.  rtol and atol
    steer the adaptive DOP853 segments.  Lab-frame runs and rotating-frame
    runs with a detuned exchange term take fixed sixth-order Magnus steps
    instead, 16 per period of the fastest frequency; at the defaults the 4,
    16 and 50 ns lab points lie within 1.8e-7 in population of DOP853 at
    rtol 1e-13.  There a tighter rtol only shortens the steps, by
    (rtol / RTOL_DEFAULT)^(1/6), cutting the error in proportion.
    """
    ham = build_protocol_hamiltonian(system, protocol, include_exchange)
    grid = np.unique(np.concatenate([
        np.linspace(0.0, protocol.total_time_s, n_grid),
        np.asarray(protocol.readout_times_s, dtype=float),
    ]))
    if dissipation is None:
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        return evolve_schrodinger(ham, psi0, grid, rtol=rtol, atol=atol)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    return evolve_lindblad(ham, rho0, dissipation, grid, rtol=rtol, atol=atol)


def run_blockade_grid(system, protocols, dissipation=None):
    """Populations of every protocol of a grid at its readout, from one stacked propagation.

    The K protocols (the (delay, length) points of a blockade map: one frame,
    equally many pulses) are propagated as one (K, 4) state, or (K, 16) with a
    DissipationSpec, under their stacked Hamiltonian by one evolve_schrodinger
    or evolve_lindblad call, whose norm-drift retry or trace and positivity
    checks cover every point.  Each point is read at a segment boundary: where
    the Hamiltonian is static after a point's last pulse edge (it is not
    always_time_dependent), at that edge, then taken over the rest of its time
    by one exact exponential; otherwise at its readout instant, total_time_s,
    the last grid time of run_blockade_protocol, the per-point path, with which
    each point agrees to 1e-9 on DOP853 segments however many points the grid
    has (see _propagate).  Returns a SimulationResult with the readout
    instants as times_s and one population per point.
    """
    protocols = tuple(protocols)
    ham = build_protocol_hamiltonian(system, protocols)
    readout = np.array([p.total_time_s for p in protocols], dtype=float)
    stop = readout
    if not ham.always_time_dependent:
        last_edge = [max((q.end_time_s for q in p.pulses), default=0.0) for p in protocols]
        stop = np.minimum(last_edge, readout)
    ham = replace(ham, breakpoints=tuple(sorted({*ham.breakpoints, *stop.tolist()})))
    grid = np.unique(np.append(stop, 0.0))
    points = (np.searchsorted(grid, stop), np.arange(len(protocols)))
    if dissipation is None:
        psi0 = np.zeros((len(protocols), 4), dtype=complex)
        psi0[:, 0] = 1.0
        result = evolve_schrodinger(ham, psi0, grid, keep_states=True)
        generator, y = _schrodinger(ham), result.states[points]
    else:
        rho0 = np.zeros((len(protocols), 4, 4), dtype=complex)
        rho0[:, 0, 0] = 1.0
        result = evolve_lindblad(ham, rho0, dissipation, grid, keep_states=True)
        generator, y = _lindblad(ham, dissipation), result.states[points].reshape(-1, 16)
    tail = readout - stop
    if tail.any():
        # past every pulse edge, each point's Hamiltonian is the static one of its tail
        g = generator.matrix(ham.func(max(ham.breakpoints) + tail.max()))
        y = (_expm_real(g * tail[:, None, None]) @ y.view(float)[..., None])[..., 0].view(complex)
    if dissipation is None:
        pops = np.abs(y) ** 2
    else:
        rho = y.reshape(-1, 4, 4)
        _density_drift(rho)
        pops = np.einsum("kii->ki", rho).real
    return SimulationResult(readout, {lab: pops[:, k] for k, lab in enumerate(BASIS_LABELS)},
                            norm_drift=result.norm_drift)


def pulse_spectral_power(pulse, center_offset_hz, window_hz):
    """Fraction of the drive power inside a spectral window around the carrier.

    Computes |FFT of the complex baseband envelope|^2, integrates it over
    [offset - window/2, offset + window/2] and normalizes by the total power.
    The FFT grid is refined until the bin spacing is at most window/20; if
    that needs more than SPECTRAL_MAX_POINTS samples the record is declared too short.
    """
    if window_hz <= 0:
        raise ValueError("window_hz must be positive")
    # resolve the offset band, but never chase a window far past the envelope
    # bandwidth: beyond ~1000/T the pulse carries < 2e-4 of its power, and a
    # window wider than the sampled band simply captures everything
    span = abs(center_offset_hz) + 0.5 * window_hz
    f_needed = min(max(span, 4.0 / pulse.duration_s), 1000.0 / pulse.duration_s)
    dt = min(pulse.duration_s / 256.0, 1.0 / (16.0 * f_needed))
    t_record = max(4.0 * pulse.duration_s, 20.0 / window_hz)
    n = int(2 ** np.ceil(np.log2(t_record / dt)))
    if n > SPECTRAL_MAX_POINTS:
        raise ResolutionError(
            f"need {n} samples for resolution {window_hz / 20:.3g} Hz "
            f"(cap {SPECTRAL_MAX_POINTS})"
        )
    t = np.arange(n) * dt
    env = pulse.envelope(t + pulse.start_time_s) * np.exp(1j * pulse.phase_rad)
    spec = np.abs(np.fft.fft(env)) ** 2
    freqs = np.fft.fftfreq(n, dt)
    sel = (freqs >= center_offset_hz - window_hz / 2.0) & (
        freqs <= center_offset_hz + window_hz / 2.0)
    total = float(np.sum(spec))
    if total == 0.0:
        raise ValueError("pulse has zero power")
    return float(np.sum(spec[sel]) / total)


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
    needs at least four samples on an evenly spaced grid (ValueError
    otherwise).
    """
    times = np.asarray(times, dtype=float)
    x = np.asarray(signal, dtype=float)
    if len(times) < 4:
        raise FitError(f"a fringe fit needs at least 4 samples, got {len(times)}")
    if not evenly_spaced(times):
        raise ValueError("a fringe fit needs evenly spaced times")
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


def _half_pi_propagator(system, drive_freq_hz):
    """Propagator of a rectangular pi/2 pulse on qubit 1 in the drive frame."""
    pulse = calibrated_pulse("rectangular", RAMSEY_PULSE_S, drive_freq_hz,
                             rotation_cycles=0.25, target_qubit=1)
    ham = rotating_frame_transform(
        TwoQubitSystem(system.omega1_hz, system.omega2_hz, system.zeta_hz),
        (pulse,), (drive_freq_hz, system.omega2_hz), include_exchange=False)
    generator = _schrodinger(ham)        # the rectangular drive is static during the pulse
    u = _expm_real(generator.matrix(ham.func(0.0)) * RAMSEY_PULSE_S)
    return u[0::2, 0::2] + 1j * u[1::2, 0::2]


def run_conditional_ramsey(system, spectator_state, free_time_grid_s, drive_offset_hz=None):
    """Fringe frequency of a pi/2 - wait - pi/2 sequence on qubit 1.

    The drive sits drive_offset_hz below the spectator-in-ground transition
    (default 1.5 |zeta| + 5 MHz so both conditional fringes stay on the same
    side); the fitted fringe frequency is |transition - drive|.  The qubit-2
    exchange terms are dropped (dispersive operation).  Run with spectator 0
    and 1 and subtract to read off zeta.
    """
    if spectator_state not in (0, 1):
        raise ValueError("spectator_state must be 0 or 1")
    if drive_offset_hz is None:
        drive_offset_hz = 1.5 * abs(system.zeta_hz) + 5e6
    f_drive = system.omega1_hz - drive_offset_hz
    u_half = _half_pi_propagator(system, f_drive)

    psi0 = np.zeros(4, dtype=complex)
    psi0[1 if spectator_state else 0] = 1.0
    psi1 = u_half @ psi0

    # free evolution is diagonal in this frame (exchange dropped)
    energies = _frame_levels(system, f_drive, system.omega2_hz)
    grid = np.asarray(free_time_grid_s, dtype=float)
    phases = np.exp(-1j * TWO_PI * np.outer(grid, energies))
    states = (phases * psi1[None, :]) @ u_half.T
    p1 = np.abs(states[:, 2]) ** 2 + np.abs(states[:, 3]) ** 2
    return _fit_fringe(grid, p1)


def run_echo_conditional_phase(system, spectator_flip_time_s, total_free_time_s):
    """Conditional phase accumulated over a free window with a spectator flip.

    In the frame of both undriven transitions (_frame_levels), the qubit-1
    coherence of spectator branch s turns at E_1s - E_0s.  Flipping the
    spectator at t_flip hands the coherence to the other branch s', so over
    the window tau it gains 2 pi [(E_1s - E_0s) t_flip + (E_1s' - E_0s')
    (tau - t_flip)]; no flip (None) is a flip at tau.  The opening pi/2
    pulse only sets the coherence's starting phase, which this excludes.
    Returns the branch difference in radians: 2 pi zeta tau without a flip,
    2 pi zeta (2 t_flip - tau) with one, so a flip at tau/2 echoes the ZZ
    phase away.
    """
    tau = float(total_free_time_s)
    t_flip = tau if spectator_flip_time_s is None else spectator_flip_time_s
    if not 0.0 <= t_flip <= tau:
        raise ValueError("flip time must lie inside the free window")
    levels = _frame_levels(system, system.omega1_hz, system.omega2_hz)
    rate = levels[2:] - levels[:2]      # qubit 1's transition with the spectator in 0 and in 1
    branch = TWO_PI * (rate * t_flip + rate[::-1] * (tau - t_flip))
    return branch[1] - branch[0]


def check_row_stochastic(fidelity_matrix):
    """Raise StochasticityError unless every row (last axis) is a probability vector.

    NaN entries fail the check.
    """
    m = np.asarray(fidelity_matrix, dtype=float)
    if not (np.all(m >= -1e-12) and np.all(np.abs(m.sum(axis=-1) - 1.0) <= 1e-9)):
        raise StochasticityError("fidelity matrix rows must be probabilities summing to 1")
