import functools
import gc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, quad, solve_ivp
from scipy.linalg import expm
from scipy.special import erf

import dense_oracle
from zzkit import dynamics
from zzkit import (
    DissipationSpec,
    PulseSpec,
    TwoQubitSystem,
    evolve_lindblad,
    evolve_schrodinger,
    load_fixture,
    make_blockade_protocol,
    pi_pulse,
    pulse_spectral_power,
    run_blockade_grid,
    run_blockade_protocol,
    run_conditional_ramsey,
    run_echo_conditional_phase,
)
from zzkit.dynamics import (
    BASIS_LABELS,
    P11,
    TWO_PI,
    _fit_fringe,
    build_protocol_hamiltonian,
)
from zzkit.errors import (
    FitError,
    StiffnessError,
    UnsupportedError,
)

SYSTEM = TwoQubitSystem(6.307e9, 4.498e9, 19e6)
# device-scale XX+YY exchange, far from and close to the qubits' resonance
EXCHANGE = TwoQubitSystem(7.0e9, 4.5e9, 19e6, jxx_hz=8.05e6, jyy_hz=1.69e6)
NEAR_EXCHANGE = replace(EXCHANGE, omega1_hz=4.52e9)
# nearly resonant qubits, whose exchange turns far slower than zeta
RESONANT_EXCHANGE = TwoQubitSystem(5.001e9, 5.0e9, 19e6, jxx_hz=8e6)


def lab_frame(system, pulses):
    """The lab-frame Hamiltonian of pulses, through a protocol in that frame."""
    return build_protocol_hamiltonian(system, dynamics.ProtocolSpec(pulses, 100e-9, "lab"))


def rotating_frame(system, pulses):
    """The rotating-frame Hamiltonian of pulses, through a protocol in that frame."""
    return build_protocol_hamiltonian(system, dynamics.ProtocolSpec(pulses, 100e-9))


def master_equation_reference(ham, rho0, c_ops, grid):
    """drho/dt = -i[H, rho] + sum_c (c rho c^+ - {c^+ c, rho}/2), one DOP853 run."""
    n = ham.dim

    def rhs(t, y):
        rho = y.view(complex).reshape(n, n)
        h = ham.matrix(t)
        drho = -1j * (h @ rho - rho @ h)
        for c in c_ops:
            cd = c.conj().T
            drho += c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c)
        return drho.reshape(-1).view(float)

    sol = solve_ivp(rhs, (grid[0], grid[-1]), rho0.reshape(-1).view(float), method="DOP853",
                    t_eval=grid, rtol=1e-11, atol=1e-13)
    assert sol.success
    return np.ascontiguousarray(sol.y.T).view(complex).reshape(-1, n, n)


def schrodinger_reference(ham, psi0, grid, max_step=np.inf):
    """dpsi/dt = -i H(t) psi, one DOP853 run on scalar calls of ham.matrix."""
    def rhs(t, y):
        return (-1j * (ham.matrix(t) @ y.view(complex))).view(float)

    sol = solve_ivp(rhs, (grid[0], grid[-1]), psi0.view(float), method="DOP853",
                    t_eval=grid, rtol=1e-11, atol=1e-13, max_step=max_step)
    assert sol.success
    return np.ascontiguousarray(sol.y.T).view(complex)


def populations(states):
    """Basis populations, one row per time, of state vectors or density matrices."""
    if states.ndim == 3:
        return np.einsum("tii->ti", states).real
    return np.abs(states) ** 2


def real_form(g):
    """Real (..., 2d, 2d) form of complex (..., d, d) matrices on interleaved (re, im) parts."""
    out = np.empty(g.shape[:-2] + (2 * g.shape[-2], 2 * g.shape[-1]))
    out[..., 0::2, 0::2] = out[..., 1::2, 1::2] = g.real
    out[..., 0::2, 1::2], out[..., 1::2, 0::2] = -g.imag, g.imag
    return out


def ground_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    return psi


class TestPulses:
    def test_envelope_vanishes_outside_support(self):
        p = PulseSpec("truncated_cosine", 5e6, 100e-9, 6e9, start_time_s=50e-9)
        assert p.envelope(49.9e-9) == 0.0
        assert p.envelope(150.1e-9) == 0.0
        assert p.envelope(100e-9) == pytest.approx(5e6, rel=1e-12)  # peak at centre

    def test_truncated_cosine_shape(self):
        p = PulseSpec("truncated_cosine", 1.0, 1.0, 0.0)
        t = np.linspace(0, 1, 11)
        np.testing.assert_allclose(p.envelope(t), 0.5 * (1 - np.cos(2 * np.pi * t)),
                                   atol=1e-15)

    @pytest.mark.parametrize("shape", ["rectangular", "truncated_cosine", "gaussian"])
    def test_scalar_envelope_matches_array_envelope(self, shape):
        # the plain-float path a solver calls gives the array path's bits,
        # edges included
        p = PulseSpec(shape, 5e6, 100e-9, 6e9, start_time_s=50e-9, gaussian_sigma_s=25e-9)
        t = np.concatenate([np.linspace(40e-9, 160e-9, 61), [50e-9, 150e-9]])
        scalars = [p.envelope(x) for x in t]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_array_equal(scalars, p.envelope(t))
        assert p.envelope(np.float64(t[30])) == scalars[30]

    @pytest.mark.parametrize("shape,sigma", [("rectangular", None),
                                             ("truncated_cosine", None),
                                             ("gaussian", 25e-9)])
    def test_pi_calibration_area(self, shape, sigma):
        p = pi_pulse(shape, 100e-9, 6e9, gaussian_sigma_s=sigma)
        area, _ = quad(p.envelope, 0, p.duration_s, limit=200)
        assert area == pytest.approx(0.5, rel=1e-9)
        assert p.area() == pytest.approx(0.5, rel=1e-9)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            PulseSpec("square", 1e6, 1e-9, 6e9)

    @pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
    @pytest.mark.parametrize("sigma", [-5e-9, 0.0])
    def test_non_positive_sigma_rejected(self, shape, sigma):
        with pytest.raises(ValueError, match="gaussian_sigma_s must be positive"):
            PulseSpec(shape, 1e6, 20e-9, 5e9, gaussian_sigma_s=sigma)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["amplitude_hz", "duration_s", "carrier_hz",
                                       "phase_rad", "start_time_s", "gaussian_sigma_s"])
    def test_non_finite_field_rejected(self, field, value):
        good = {"shape": "gaussian", "amplitude_hz": 1e6, "duration_s": 20e-9,
                "carrier_hz": 5e9, "gaussian_sigma_s": 5e-9}
        with pytest.raises(ValueError, match=field):
            PulseSpec(**{**good, field: value})


class TestHamiltonians:
    def test_lab_static_without_drives(self):
        ham = lab_frame(SYSTEM, ())
        h = ham.matrix(0.0) / TWO_PI
        np.testing.assert_allclose(np.diag(h).real, SYSTEM.energies(), rtol=1e-15)

    def test_lab_drive_terms_add_linearly(self):
        p1 = pi_pulse("rectangular", 50e-9, 6.307e9, target_qubit=1)
        p2 = pi_pulse("rectangular", 50e-9, 4.498e9, target_qubit=2)
        t = 20e-9
        h12 = lab_frame(SYSTEM, (p1, p2)).matrix(t)
        h1 = lab_frame(SYSTEM, (p1,)).matrix(t)
        h2 = lab_frame(SYSTEM, (p2,)).matrix(t)
        h0 = lab_frame(SYSTEM, ()).matrix(t)
        np.testing.assert_allclose(h12, h1 + h2 - h0, atol=1e-3)

    def test_rwa_drive_element_is_half_amplitude(self):
        # mid-pulse the flip-flop matrix element is Omega(t)/2 on the target line
        p = pi_pulse("rectangular", 50e-9, SYSTEM.omega1_hz, target_qubit=1)
        ham = rotating_frame(SYSTEM, (p,))
        h = ham.matrix(25e-9) / TWO_PI
        assert abs(h[2, 0]) == pytest.approx(p.amplitude_hz / 2, rel=1e-12)

    def test_dressed_carriers_leave_pure_projector(self):
        prot = make_blockade_protocol(SYSTEM, 100e-9, 0.0, frame="rotating")
        ham = build_protocol_hamiltonian(SYSTEM, prot)
        h_quiet = ham.matrix(150e-9) / TWO_PI
        np.testing.assert_allclose(h_quiet, SYSTEM.zeta_hz * P11, atol=1e-6)

    def test_shifted_carriers_cancel_z_terms_onto_00(self):
        # driving the neighbor-excited lines leaves zeta |00><00| up to identity
        prot = make_blockade_protocol(SYSTEM, 100e-9, 0.0, frame="rotating",
                                      carrier_convention="shifted")
        ham = build_protocol_hamiltonian(SYSTEM, prot)
        h_quiet = ham.matrix(150e-9) / TWO_PI
        p00 = np.diag([1.0, 0, 0, 0])
        shift = SYSTEM.zeta_hz * np.eye(4)
        np.testing.assert_allclose(h_quiet, SYSTEM.zeta_hz * p00 - shift, atol=1e-6)

    def test_two_carriers_on_one_qubit_are_unsupported(self):
        # 50 kHz apart: a frame turning at either one leaves the other pulse
        # detuned, however close the two are, whichever pulse is listed last
        pulses = [PulseSpec("rectangular", 5e6, 100e-9, carrier, start_time_s=start)
                  for carrier, start in ((6.0e9, 0.0), (6.00005e9, 100e-9))]
        for order in (pulses, pulses[::-1]):
            with pytest.raises(UnsupportedError, match="one carrier per qubit"):
                rotating_frame(SYSTEM, order)
        assert lab_frame(SYSTEM, pulses).matrix(150e-9).shape == (4, 4)

    @pytest.mark.parametrize("system,frame", [
        (SYSTEM, "lab"), (SYSTEM, "rotating"), (EXCHANGE, "rotating"),
    ], ids=["lab", "rotating", "exchange"])
    def test_func_on_times_stacks_scalar_calls(self, system, frame):
        prot = make_blockade_protocol(system, 40e-9, 20e-9, frame=frame)
        ham = build_protocol_hamiltonian(system, prot)
        # before, inside, across and after the pulses
        times = np.linspace(-5e-9, prot.total_time_s + 5e-9, 37)
        for call in (ham.func, ham.matrix):
            want = np.array([call(t) for t in times])
            got = call(times)
            assert got.shape == (len(times),) + want.shape[1:]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())
        assert ham.matrix(times[-2:]).shape == (2, 4, 4)     # no drive on
        assert ham.func(times).shape == (len(times), len(ham.operators))


class TestEvolveSchrodinger:
    def test_constant_diagonal_populations_frozen(self):
        ham = lab_frame(SYSTEM, ())
        psi0 = np.array([0, 0, 1, 0], dtype=complex)
        res = evolve_schrodinger(ham, psi0, np.linspace(0, 100e-9, 11))
        np.testing.assert_allclose(res.p_excited(1), 1.0, atol=1e-12)

    def test_resonant_pi_pulse_full_transfer(self):
        p = pi_pulse("rectangular", 50e-9, SYSTEM.omega1_hz, target_qubit=1)
        ham = rotating_frame(SYSTEM, (p,))
        res = evolve_schrodinger(ham, ground_state(), np.array([0, 60e-9]))
        assert res.p_excited(1)[-1] == pytest.approx(1.0, abs=1e-6)
        assert res.norm_drift <= 1e-6

    def test_detuned_rabi_frequency(self):
        # generalized Rabi rate sqrt(Omega^2 + delta^2) for a constant drive
        omega_r, delta = 8e6, 6e6
        p = PulseSpec("rectangular", omega_r, 2e-6, SYSTEM.omega1_hz - delta,
                      target_qubit=1)
        ham = rotating_frame(SYSTEM, (p,))
        grid = np.linspace(0, 1.5e-6, 1501)
        res = evolve_schrodinger(ham, ground_state(), grid)
        freq = _fit_fringe(grid, res.p_excited(1))
        assert freq == pytest.approx(np.hypot(omega_r, delta), rel=1e-3)

    def test_isolated_late_pulse_not_skipped(self):
        # a pulse far from t=0 must still be resolved by the segmented solver
        p = pi_pulse("truncated_cosine", 16e-9, SYSTEM.omega1_hz, target_qubit=1,
                     start_time_s=500e-9)
        ham = rotating_frame(SYSTEM, (p,))
        res = evolve_schrodinger(ham, ground_state(), np.array([0, 600e-9]))
        assert res.p_excited(1)[-1] == pytest.approx(1.0, abs=1e-6)


class TestEvolveLindblad:
    def test_t1_decay_efolds_at_t1(self):
        t1 = 7.35e-6
        ham = rotating_frame(SYSTEM, ())
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[2, 2] = 1.0     # |10>
        grid = np.array([0.0, t1])
        res = evolve_lindblad(ham, rho0, DissipationSpec((t1, np.inf)), grid)
        assert res.p_excited(1)[-1] == pytest.approx(np.exp(-1.0), rel=0.01)

    def test_infinite_times_match_schrodinger(self):
        p = pi_pulse("truncated_cosine", 60e-9, SYSTEM.omega1_hz, target_qubit=1)
        ham = rotating_frame(SYSTEM, (p,))
        grid = np.linspace(0, 80e-9, 9)
        closed = evolve_schrodinger(ham, ground_state(), grid)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        opened = evolve_lindblad(ham, rho0, DissipationSpec((np.inf, np.inf)), grid)
        np.testing.assert_allclose(opened.p_excited(1), closed.p_excited(1), atol=1e-8)

    def test_pure_dephasing_analytic(self):
        t1, t2 = np.inf, 4e-6
        ham = rotating_frame(SYSTEM, ())
        plus = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
        rho0 = np.outer(plus, plus.conj())
        grid = np.linspace(0, 6e-6, 7)
        res = evolve_lindblad(ham, rho0, DissipationSpec((t1, t1), (t2, t2)), grid,
                              keep_states=True)
        coh = np.abs(res.states[:, 0, 2])
        np.testing.assert_allclose(coh, 0.5 * np.exp(-grid / t2), rtol=1e-6)
        np.testing.assert_allclose(res.p_excited(1), 0.5, atol=1e-9)

    def test_driven_dissipative_matches_master_equation(self):
        # truncated-cosine pi pulse with finite T1 and T2, against the
        # commutator-plus-dissipator master equation integrated directly
        p = pi_pulse("truncated_cosine", 60e-9, SYSTEM.omega1_hz, target_qubit=1)
        ham = rotating_frame(SYSTEM, (p,))
        diss = DissipationSpec((1e-6, 2e-6), (0.8e-6, 1.5e-6))
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        grid = np.linspace(0, 80e-9, 9)
        res = evolve_lindblad(ham, rho0, diss, grid, keep_states=True)
        want = master_equation_reference(ham, rho0, diss.collapse_operators(), grid)
        np.testing.assert_allclose(res.states, want, atol=1e-8)
        assert res.p_excited(1)[-1] < 0.99     # the dissipation is visible

    def test_open_lab_point_matches_master_equation(self):
        # carrier-resolved Magnus steps on the Liouvillian, with finite T1 and T2
        prot = make_blockade_protocol(SYSTEM, 4e-9, 1e-9, frame="lab")
        ham = build_protocol_hamiltonian(SYSTEM, prot)
        diss = DissipationSpec((1e-6, 2e-6), (0.8e-6, 1.5e-6))
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        grid = np.linspace(0, prot.total_time_s, 8)
        res = evolve_lindblad(ham, rho0, diss, grid, keep_states=True)
        want = master_equation_reference(ham, rho0, diss.collapse_operators(), grid)
        np.testing.assert_allclose(populations(res.states), populations(want), atol=2e-6)
        closed = evolve_schrodinger(ham, ground_state(), grid)
        assert abs(closed.p_excited(1)[-1] - res.p_excited(1)[-1]) > 1e-4   # T1 shows

    def test_t2_bound_enforced(self):
        with pytest.raises(ValueError):
            DissipationSpec((1e-6, 1e-6), (3e-6, 1e-6))


# lab points (pulse length, delay) held to a tight DOP853 run
LAB_POINTS = {"lab-4ns": (4e-9, 0.0), "lab-16ns": (16e-9, 10e-9), "lab-50ns": (50e-9, 20e-9)}


@functools.lru_cache(maxsize=None)
def lab_point(name):
    """(Hamiltonian, 9-point grid, times, states) of a lab point.

    The states are DOP853 at rtol 1e-13 (Magnus steps switched off) at the
    times: the grid and every segment edge inside it.
    """
    prot = make_blockade_protocol(SYSTEM, *LAB_POINTS[name], frame="lab")
    ham = build_protocol_hamiltonian(SYSTEM, prot)
    grid = np.linspace(0, prot.total_time_s, 9)
    times = np.union1d(grid, [t for t in ham.breakpoints if grid[0] < t < grid[-1]])
    res = evolve_schrodinger(replace(ham, max_step_s=None), ground_state(), times,
                             rtol=1e-13, atol=1e-15, keep_states=True)
    return ham, grid, times, res.states


class TestCarrierResolvedSegments:
    """Fixed Magnus steps on segments with an oscillation to resolve, against DOP853."""

    @pytest.mark.parametrize("name", ["lab-4ns", "lab-16ns"])
    def test_magnus_steps_have_sixth_order(self, name):
        # each driven segment from the reference state at its start: halving
        # the step divides the error at its end by 2^6 = 64 (2^4 for fourth order)
        ham, grid, times, want = lab_point(name)
        generator = dynamics._schrodinger(ham)
        errors = {1: [], 2: []}
        for a, b in dynamics._segments(grid[0], grid[-1], ham.breakpoints):
            if ham.is_static_on(a, b, ham.active_intervals):
                continue
            start, end = np.searchsorted(times, (a, b))
            for halving in errors:
                _, y = dynamics._magnus_segment(ham, generator, want[start], a, np.empty(0), b,
                                                ham.max_step_s / halving)
                errors[halving].append(np.max(np.abs(y - want[end])))
        assert max(errors[1]) / max(errors[2]) >= 40

    @pytest.mark.parametrize("name", list(LAB_POINTS))
    def test_lab_points_at_default_tolerances(self, name):
        ham, grid, times, want = lab_point(name)
        res = evolve_schrodinger(ham, ground_state(), grid, keep_states=True)
        np.testing.assert_allclose(populations(res.states),
                                   populations(want[np.isin(times, grid)]), atol=4e-7)

    def test_anti_hermitian_exponential_matches_expm(self, rng):
        # closed-system Magnus steps: a 512-stack of anti-Hermitian 4x4 step
        # exponents at the lab frame's scale (a few radians per step)
        a = rng.normal(size=(512, 4, 4)) + 1j * rng.normal(size=(512, 4, 4))
        omega = 0.5 * (a - np.swapaxes(a.conj(), -1, -2))
        got = dynamics._expm_real(real_form(omega))
        want = real_form(expm(omega))
        assert np.max(np.abs(got - want)) <= 1e-13
        eye = np.broadcast_to(np.eye(8), got.shape)
        assert np.max(np.abs(got @ np.swapaxes(got, -1, -2) - eye)) <= 1e-13

    @pytest.mark.parametrize("system,length,delay,frame", [
        (SYSTEM, 4e-9, 0.0, "lab"),
        (SYSTEM, 16e-9, 10e-9, "lab"),
        (EXCHANGE, 100e-9, 60e-9, "rotating"),
        (NEAR_EXCHANGE, 100e-9, 60e-9, "rotating"),
        (replace(EXCHANGE, omega1_hz=4.51e9), 100e-9, 60e-9, "rotating"),
        (replace(EXCHANGE, omega1_hz=4.502e9), 100e-9, 60e-9, "rotating"),
        (RESONANT_EXCHANGE, 200e-9, 60e-9, "rotating"),
    ], ids=["lab-4ns", "lab-16ns", "exchange-far-detuned", "exchange-20MHz",
            "exchange-10MHz", "exchange-2MHz", "exchange-1MHz-200ns"])
    def test_matches_direct_integration(self, system, length, delay, frame):
        prot = make_blockade_protocol(system, length, delay, frame=frame)
        ham = build_protocol_hamiltonian(system, prot)
        assert ham.max_step_s is not None
        grid = np.linspace(0, prot.total_time_s, 9)
        res = evolve_schrodinger(ham, ground_state(), grid, keep_states=True)
        want = schrodinger_reference(ham, ground_state(), grid)
        np.testing.assert_allclose(populations(res.states), populations(want), atol=2e-6)

    @pytest.mark.parametrize("system,length,frame", [
        (SYSTEM, 4e-9, "lab"), (NEAR_EXCHANGE, 100e-9, "rotating"),
    ], ids=["lab-4ns", "exchange-20MHz"])
    def test_tighter_rtol_shortens_steps(self, system, length, frame):
        # the sixth-order error falls with rtol: 100x tighter, 100x closer
        prot = make_blockade_protocol(system, length, 0.0, frame=frame)
        ham = build_protocol_hamiltonian(system, prot)
        grid = np.linspace(0, prot.total_time_s, 9)
        res = evolve_schrodinger(ham, ground_state(), grid, rtol=1e-11, atol=1e-14,
                                 keep_states=True)
        want = schrodinger_reference(ham, ground_state(), grid)
        np.testing.assert_allclose(populations(res.states), populations(want), atol=2e-8)

    @pytest.mark.parametrize("frame,dissipation", [
        ("lab", None), ("rotating", None),
        ("rotating", DissipationSpec((1e-6, 2e-6), (0.8e-6, 1.5e-6))),
    ], ids=["lab", "rotating", "lindblad"])
    def test_counting_func_sees_the_run(self, monkeypatch, frame, dissipation):
        # a wrapper swapped in for func, as a profiler counting H evaluations
        # does, is called and leaves the populations as they are
        prot = make_blockade_protocol(SYSTEM, 4e-9 if frame == "lab" else 40e-9, 2e-9,
                                      frame=frame)
        plain = run_blockade_protocol(SYSTEM, prot, dissipation, n_grid=5)
        calls = []
        build = dynamics.build_protocol_hamiltonian

        def counting_build(*args, **kwargs):
            ham = build(*args, **kwargs)

            def counted(t):
                calls.append(t)
                return ham.func(t)
            return replace(ham, func=counted)

        monkeypatch.setattr(dynamics, "build_protocol_hamiltonian", counting_build)
        counted = run_blockade_protocol(SYSTEM, prot, dissipation, n_grid=5)
        assert calls
        for lab in BASIS_LABELS:
            np.testing.assert_array_equal(counted.populations[lab], plain.populations[lab])


def grid_protocols(system, delays, lengths, **kw):
    return [make_blockade_protocol(system, length, delay, **kw)
            for delay in delays for length in lengths]


def readout_populations(result):
    """(K, 4) basis populations of a grid result, one row per point."""
    return np.array([result.populations[lab] for lab in BASIS_LABELS]).T


def per_point_populations(system, protocols, dissipation=None, **kw):
    """The oracle: run_blockade_protocol on each point, read at its last grid time."""
    return np.array([[r.populations[lab][-1] for lab in BASIS_LABELS] for r in
                     (run_blockade_protocol(system, p, dissipation, **kw)
                      for p in protocols)])


CHIP1_POINT = TwoQubitSystem(*(load_fixture("chip1").blockade_point[k]
                                for k in ("omega1_hz", "omega2_hz", "zeta_hz")))
CHIP1_DISSIPATION = DissipationSpec((7.8e-6, 8.8e-6), (5.0e-6, 1.1e-6))
# the closed (13 x 4) and Lindblad (5 x 4) blockade grids of zzbench's seed 11, in ns
BENCH_DELAYS = (-98.035, -84.658, -66.999, -48.642, -35.091, -17.091, 1.293, 16.634, 32.71,
                48.429, 65.905, 82.034, 98.899)
BENCH_LENGTHS = (30.715, 59.626, 100.557, 157.901)
BENCH_OPEN_DELAYS = (-59.402, -30.549, 1.812, 29.777, 61.419)
BENCH_OPEN_LENGTHS = (39.078, 79.005, 118.435, 162.775)


class TestStackedHamiltonian:
    @pytest.mark.parametrize("system,frame", [
        (SYSTEM, "lab"), (SYSTEM, "rotating"), (NEAR_EXCHANGE, "rotating"),
    ], ids=["lab", "rotating", "exchange"])
    def test_stack_matches_each_protocol(self, system, frame):
        prots = grid_protocols(system, (-30e-9, 0.0, 20e-9), (16e-9, 40e-9), frame=frame)
        stacked = build_protocol_hamiltonian(system, prots)
        singles = [build_protocol_hamiltonian(system, p) for p in prots]
        times = np.linspace(-5e-9, max(p.total_time_s for p in prots) + 5e-9, 29)
        want = np.stack([h.matrix(times) for h in singles], axis=1)
        np.testing.assert_allclose(stacked.matrix(times[:, None]), want, rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())
        np.testing.assert_allclose(stacked.matrix(times[7]), want[7], rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())
        # a trailing K axis gives every point its own time
        own = 4 * np.arange(len(prots))
        np.testing.assert_allclose(stacked.matrix(times[own]), want[own, np.arange(len(prots))],
                                   rtol=1e-14, atol=1e-14 * np.abs(want).max())
        assert set(stacked.breakpoints) == {e for h in singles for e in h.breakpoints}
        assert stacked.points == tuple((h.breakpoints, h.active_intervals) for h in singles)
        steps = [h.max_step_s for h in singles]
        assert stacked.max_step_s == (None if None in steps else min(steps))

    def test_mixed_shapes_share_the_pulse_formula(self):
        shapes = [pi_pulse("gaussian", 40e-9, SYSTEM.omega1_hz, gaussian_sigma_s=8e-9),
                  pi_pulse("rectangular", 30e-9, SYSTEM.omega1_hz, start_time_s=5e-9),
                  pi_pulse("truncated_cosine", 20e-9, SYSTEM.omega1_hz)]
        prots = [dynamics.ProtocolSpec((p,), 50e-9) for p in shapes]
        stacked = build_protocol_hamiltonian(SYSTEM, prots)
        times = np.linspace(0.0, 50e-9, 23)
        for k, p in enumerate(shapes):
            np.testing.assert_array_equal(stacked.matrix(times[:, None])[:, k, 2, 0].real,
                                          TWO_PI * 0.5 * p.envelope(times))

    def test_mixed_frames_and_pulse_counts_rejected(self):
        prots = [make_blockade_protocol(SYSTEM, 20e-9, 0.0, frame=frame)
                 for frame in ("lab", "rotating")]
        with pytest.raises(ValueError):
            build_protocol_hamiltonian(SYSTEM, prots)
        one_pulse = dynamics.ProtocolSpec(prots[1].pulses[:1], prots[1].total_time_s)
        with pytest.raises(ValueError):
            build_protocol_hamiltonian(SYSTEM, [prots[1], one_pulse])
        with pytest.raises(ValueError):
            build_protocol_hamiltonian(SYSTEM, [])

    def test_matrix_free_lindblad_rhs(self, monkeypatch, rng):
        # the DOP853 right-hand side equals each point's Liouvillian product
        # and builds no superoperator per call
        prots = grid_protocols(SYSTEM, (-20e-9, 10e-9), (30e-9,))
        ham = build_protocol_hamiltonian(SYSTEM, prots)
        generator = dynamics._lindblad(ham, CHIP1_DISSIPATION)
        y = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        c_ops = CHIP1_DISSIPATION.collapse_operators()
        want = np.array([dense_oracle.liouvillian(h, c_ops) @ y_k
                         for h, y_k in zip(ham.matrix(25e-9), y)])

        def no_superoperator(*args):
            raise AssertionError("superoperator built in the right-hand side")
        monkeypatch.setattr(dynamics, "_kron", no_superoperator)
        got = generator.apply(ham.func(25e-9), y.view(float)).view(complex)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())


def random_protocols(rng, system, frame, count, n_pulses=3):
    """Protocols of n_pulses random pulses each: every shape, target order and phase.

    Each protocol drives each qubit at its own carrier, detuned from the
    qubit's transition by up to 30 MHz, so in the rotating frame every point
    has its own frame frequencies.
    """
    shapes = ("rectangular", "truncated_cosine", "gaussian")
    out = []
    for _ in range(count):
        carriers = {1: system.omega1_hz + rng.uniform(-30e6, 30e6),
                    2: system.omega2_hz + rng.uniform(-30e6, 30e6)}
        pulses = []
        for _ in range(n_pulses):
            shape = shapes[rng.integers(3)]
            duration = rng.uniform(10e-9, 60e-9)
            target = int(rng.integers(1, 3))
            pulses.append(PulseSpec(shape, rng.uniform(1e6, 30e6), duration, carriers[target],
                                    phase_rad=rng.uniform(0, TWO_PI),
                                    start_time_s=rng.uniform(0, 40e-9),
                                    gaussian_sigma_s=duration / 5, target_qubit=target))
        out.append(dynamics.ProtocolSpec(pulses, max(p.end_time_s for p in pulses) + 5e-9,
                                         frame))
    return out


class TestRealFormCore:
    """One real-form exponential and block product for every propagation path."""

    @pytest.mark.parametrize("norm", [1e-3, 1.0, 30.0, 700.0, 1.4e4, 1e5])
    def test_real_exponential_matches_expm(self, rng, norm):
        # squaring s = ceil(log2 norm) times costs about one rounding per unit of norm
        a = rng.normal(size=(512, 4, 4)) + 1j * rng.normal(size=(512, 4, 4))
        omega = 0.5 * (a - np.swapaxes(a.conj(), -1, -2))
        omega *= norm / np.abs(real_form(omega)).sum(axis=-2).max()
        got = dynamics._expm_real(real_form(omega))
        assert np.max(np.abs(got - real_form(expm(omega)))) <= 1e-15 * max(1.0, norm)

    @pytest.mark.parametrize("duration", [1e-9, 200e-9, 10e-6], ids=["1ns", "200ns", "10us"])
    def test_real_exponential_of_chip1_liouvillian(self, duration):
        # the drive-free rotating-frame Liouvillian of a blockade point, whose
        # exponential is not unitary
        prot = make_blockade_protocol(SYSTEM, 20e-9, 0.0)
        ham = build_protocol_hamiltonian(SYSTEM, prot)
        generator = dynamics._lindblad(ham, CHIP1_DISSIPATION)
        lv = dense_oracle.liouvillian(ham.matrix(prot.total_time_s),
                                      CHIP1_DISSIPATION.collapse_operators())
        a = generator.matrix(ham.func(prot.total_time_s)) * duration
        norm = np.abs(a).sum(axis=-2).max()
        got = dynamics._expm_real(a)
        assert np.max(np.abs(got - real_form(expm(lv * duration)))) <= 1e-15 * max(1.0, norm)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_ordered_product_matches_sequential(self, rng, n):
        u = rng.normal(size=(n, 2, 8, 8))
        want = u[0]
        for u_i in u[1:]:
            want = u_i @ want
        np.testing.assert_allclose(dynamics._ordered_product(u), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("frame,dissipation,delays,lengths", [
        ("rotating", None, (-40e-9, 0.0, 30e-9), (20e-9, 50e-9)),
        ("rotating", CHIP1_DISSIPATION, (-40e-9, 30e-9), (20e-9, 50e-9)),
        ("lab", None, (-10e-9, 10e-9), (16e-9,)),
    ], ids=["closed", "lindblad", "lab"])
    def test_grids_run_without_eigh_or_expm(self, monkeypatch, frame, dissipation, delays,
                                            lengths):
        # every exponential of the core is _expm_real, closed or open, in every frame
        def forbidden(*args, **kwargs):
            raise AssertionError("the propagation core called eigh or expm")
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(scipy.linalg, "expm", forbidden)
        # and the name a `from scipy.linalg import expm` would bind in the module
        monkeypatch.setattr(dynamics, "expm", forbidden, raising=False)
        prots = grid_protocols(SYSTEM, delays, lengths, frame=frame)
        result = run_blockade_grid(SYSTEM, prots, dissipation)
        assert np.all(np.isfinite(readout_populations(result)))


class TestOperatorBasis:
    """Real coefficients over one operator basis, against the dense per-point oracle."""

    @pytest.mark.parametrize("system,frame", [
        (SYSTEM, "lab"), (EXCHANGE, "lab"), (SYSTEM, "rotating"), (EXCHANGE, "rotating"),
        (NEAR_EXCHANGE, "rotating"),
    ], ids=["lab", "lab-exchange", "rotating", "exchange", "exchange-20MHz"])
    def test_matrix_and_right_hand_sides_match_dense_oracle(self, rng, system, frame):
        prots = random_protocols(rng, system, frame, 6)
        dense = [dense_oracle.hamiltonian(system, p) for p in prots]
        times = np.concatenate([rng.uniform(-5e-9, 110e-9, 25),
                                [e for p in prots for q in p.pulses
                                 for e in (q.start_time_s, q.end_time_s)]])
        want = np.array([[h(t) for h in dense] for t in times])
        tol = 1e-12 * np.abs(want).max()
        ham = build_protocol_hamiltonian(system, prots)
        np.testing.assert_allclose(ham.matrix(times[:, None]), want, rtol=0, atol=tol)
        for k, prot in enumerate(prots):
            single = build_protocol_hamiltonian(system, prot)
            np.testing.assert_allclose(single.matrix(times), want[:, k], rtol=0, atol=tol)
            np.testing.assert_allclose(single.matrix(times[3]), want[3, k], rtol=0, atol=tol)

        closed = dynamics._schrodinger(ham)
        opened = dynamics._lindblad(ham, CHIP1_DISSIPATION)
        c_ops = CHIP1_DISSIPATION.collapse_operators()
        psi = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        rho = rng.normal(size=(6, 16)) + 1j * rng.normal(size=(6, 16))
        for t, h in zip(times[:6], want):
            c = ham.func(t)
            lv = np.array([dense_oracle.liouvillian(h_k, c_ops) for h_k in h])
            for generator, y, g in ((closed, psi, -1j * h), (opened, rho, lv)):
                np.testing.assert_allclose(generator.matrix(c), real_form(g), rtol=0,
                                           atol=1e-12 * np.abs(g).max())
                rhs = np.einsum("kij,kj->ki", g, y)
                got = generator.apply(c, y.view(float)).view(complex)
                np.testing.assert_allclose(got, rhs, rtol=0,
                                           atol=1e-12 * np.abs(rhs).max())


class TestBlockadeGrid:
    """One stacked propagation per grid, against run_blockade_protocol per point."""

    def test_closed_grid_matches_per_point(self):
        prots = grid_protocols(SYSTEM, np.linspace(-100e-9, 100e-9, 7), (30e-9, 100e-9, 160e-9))
        got = readout_populations(run_blockade_grid(SYSTEM, prots))
        np.testing.assert_allclose(got, per_point_populations(SYSTEM, prots), rtol=0, atol=1e-9)

    def test_lindblad_grid_matches_per_point(self):
        prots = grid_protocols(SYSTEM, (-60e-9, 0.0, 60e-9), (40e-9, 120e-9),
                               readout_pad_s=200e-9)
        result = run_blockade_grid(SYSTEM, prots, CHIP1_DISSIPATION)
        want = per_point_populations(SYSTEM, prots, CHIP1_DISSIPATION)
        np.testing.assert_allclose(readout_populations(result), want, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(result.times_s, [p.total_time_s for p in prots])

    @pytest.mark.parametrize("dissipation", [None, CHIP1_DISSIPATION], ids=["closed", "lindblad"])
    def test_grid_of_mixed_phases_and_target_order_matches_per_point(self, dissipation):
        # the points share no drive operator: a pi/2 - pi/2 Ramsey pair on
        # qubit 1, its second pulse at each point's own phase, around a pi
        # pulse on qubit 2 at each point's own delay, the pulses listed in a
        # different order at every point
        f1, f2 = SYSTEM.omega1_hz, SYSTEM.omega2_hz
        prots = []
        for k in range(6):
            pulses = [dynamics.calibrated_pulse("truncated_cosine", 30e-9, f1, 0.25),
                      pi_pulse("truncated_cosine", 40e-9, f2, target_qubit=2,
                               start_time_s=8e-9 * k),
                      dynamics.calibrated_pulse("truncated_cosine", 30e-9, f1, 0.25,
                                                start_time_s=60e-9, phase_rad=0.9 * k)]
            pulses = pulses[k % 3:] + pulses[:k % 3]
            prots.append(dynamics.ProtocolSpec(pulses[::-1] if k > 2 else pulses, 110e-9))
        got = readout_populations(run_blockade_grid(SYSTEM, prots, dissipation))
        want = per_point_populations(SYSTEM, prots, dissipation)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        assert np.ptp(got[:, 2] + got[:, 3]) > 0.3      # the phases show in p1

    @pytest.mark.parametrize("system,delays,lengths,frame", [
        (SYSTEM, (-1e-9, 2e-9), (4e-9,), "lab"),
        (NEAR_EXCHANGE, (-40e-9, 60e-9), (60e-9, 100e-9), "rotating"),
    ], ids=["lab", "exchange-20MHz"])
    def test_carrier_resolved_grid_matches_direct_integration(self, system, delays, lengths,
                                                              frame):
        prots = grid_protocols(system, delays, lengths, frame=frame)
        ham = build_protocol_hamiltonian(system, prots)
        assert ham.max_step_s is not None
        got = readout_populations(run_blockade_grid(system, prots))
        for k, prot in enumerate(prots):
            want = schrodinger_reference(build_protocol_hamiltonian(system, prot),
                                         ground_state(), np.array([0.0, prot.total_time_s]))
            np.testing.assert_allclose(got[k], populations(want)[-1], rtol=0, atol=2e-6)

    @pytest.mark.parametrize("delays,lengths,dissipation", [
        ((0.0,), (20e-9, 40e-9), None),
        ((0.0, 20e-9), (20e-9,), CHIP1_DISSIPATION),
        ((0.0,), (20e-9,), None),
        ((0.0,), (20e-9,), CHIP1_DISSIPATION),
    ], ids=["shared-edges", "shared-edges-lindblad", "one-point", "one-point-lindblad"])
    def test_shared_edges_and_one_point(self, delays, lengths, dissipation):
        prots = grid_protocols(SYSTEM, delays, lengths, readout_pad_s=10e-9)
        got = readout_populations(run_blockade_grid(SYSTEM, prots, dissipation))
        want = per_point_populations(SYSTEM, prots, dissipation)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("dissipation", [None, CHIP1_DISSIPATION], ids=["closed", "lindblad"])
    @pytest.mark.parametrize("shape,delays,lengths", [
        ("rectangular", (-60e-9, -20e-9, 0.0, 25e-9, 70e-9), (20e-9, 50e-9)),
        ("truncated_cosine", (-90e-9, -30e-9, 0.0, 12e-9, 30e-9, 75e-9), (30e-9, 45e-9)),
    ], ids=["rectangular", "overlapping-and-separated"])
    def test_edge_case_grid_matches_per_point(self, shape, delays, lengths, dissipation):
        # rectangular pulses switch the right-hand side at every edge, and
        # overlapping, touching and separated pulses give every point its own
        # mix of driven segments and drive-free stretches: each point of the
        # grid still steps as it does alone at the grid's tolerance
        prots = grid_protocols(SYSTEM, delays, lengths, shape=shape, readout_pad_s=10e-9)
        got = readout_populations(run_blockade_grid(SYSTEM, prots, dissipation))
        want = per_point_populations(SYSTEM, prots, dissipation, n_grid=2,
                                     rtol=dynamics.GRID_RTOL)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("delays,lengths,dissipation,readout_pad_s", [
        (BENCH_DELAYS, BENCH_LENGTHS, None, 0.0),
        (BENCH_OPEN_DELAYS, BENCH_OPEN_LENGTHS, CHIP1_DISSIPATION, 200e-9),
    ], ids=["closed-52", "lindblad-20"])
    def test_every_point_of_a_stack_keeps_one_point_tolerance(self, delays, lengths,
                                                               dissipation, readout_pad_s):
        # every point keeps its own clock and error norm, held to GRID_RTOL:
        # here against a far tighter per-point run
        prots = grid_protocols(SYSTEM, 1e-9 * np.array(delays), 1e-9 * np.array(lengths),
                               readout_pad_s=readout_pad_s)
        got = readout_populations(run_blockade_grid(SYSTEM, prots, dissipation))
        want = per_point_populations(SYSTEM, prots, dissipation, n_grid=2, rtol=1e-12,
                                     atol=1e-15)
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-10)

    def test_readout_before_the_first_drive_reads_the_initial_state(self):
        # a protocol file may read out at or before t = 0: that point has no
        # segment to run, and the others of its grid still step
        pulse = pi_pulse("rectangular", 10e-9, SYSTEM.omega1_hz)
        prots = [dynamics.ProtocolSpec((pulse,), total) for total in (-5e-9, 0.0, 5e-9, 30e-9)]
        got = readout_populations(run_blockade_grid(SYSTEM, prots))
        np.testing.assert_array_equal(got[:2], [[1.0, 0.0, 0.0, 0.0]] * 2)
        want = per_point_populations(SYSTEM, prots[2:], rtol=dynamics.GRID_RTOL)
        np.testing.assert_allclose(got[2:], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sigma_fraction", [100, 1000])
    def test_narrow_gaussian_is_never_stepped_over(self, sigma_fraction):
        # a gaussian far narrower than its window leaves the state at rest at
        # the window's start, and DOP853's first step there would span the
        # whole segment; the breakpoint at each gaussian peak puts the pulse
        # at a segment end, where every step sequence samples it
        length = 40e-9
        sigma = length / sigma_fraction
        prots = grid_protocols(SYSTEM, (0.0, 1e-9, 30e-9), (length,), shape="gaussian",
                               gaussian_sigma_s=sigma)
        got = readout_populations(run_blockade_grid(SYSTEM, prots))
        for k, prot in enumerate(prots):
            ham = build_protocol_hamiltonian(SYSTEM, prot)
            want = populations(schrodinger_reference(ham, ground_state(),
                                                     np.array([0.0, prot.total_time_s]),
                                                     max_step=sigma))[-1]
            np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-9)
            np.testing.assert_allclose(per_point_populations(SYSTEM, [prot])[0], want,
                                       rtol=0, atol=1e-9)

    def test_norm_drift_raises_like_the_per_point_path(self, monkeypatch):
        prots = grid_protocols(SYSTEM, (-20e-9, 20e-9), (30e-9,))
        monkeypatch.setattr(dynamics, "NORM_DRIFT_TOL", 0.0)
        for dissipation in (None, CHIP1_DISSIPATION):
            with pytest.raises(StiffnessError):
                run_blockade_protocol(SYSTEM, prots[0], dissipation)
            with pytest.raises(StiffnessError):
                run_blockade_grid(SYSTEM, prots, dissipation)


def point_events(calls, k):
    """What each func call did for point k of a _dop853 run, from the times it saw.

    A round's (12, K) call holds a step attempt's stage times (all finite),
    or one probe evaluation in its first row (its last row finite too when
    the point jumped a drive-free stretch just before); a (3, K) call holds
    a dense output's extra stage times, and the last, (1, K) call the
    midpoints of the drive-free stretches that end the points' runs.
    Returns ("attempt", start, h), ("probe", time), ("dense",), ("jump",) or
    ("idle",) per call.
    """
    events = []
    for times in calls:
        col = times[:, k]
        if len(col) == 1:
            events.append(("jump",) if np.isfinite(col[0]) else ("idle",))
        elif len(col) == len(DOP853.C_EXTRA):
            events.append(("dense",) if np.isfinite(col).all() else ("idle",))
        elif np.isfinite(col).all():
            h = (col[-1] - col[0]) / (1.0 - DOP853.C[1])
            events.append(("attempt", col[-1] - h, h))
        elif np.isfinite(col[0]):
            events.append(("probe", col[0]))
        else:
            events.append(("idle",))
    return events


def segment_counts(events):
    """SegmentCounts of each driven segment in turn: a pair of probes opens the next one."""
    segments = []
    for event in events:
        if event[0] == "probe" and (not segments or segments[-1]["probes"] == 2):
            segments.append({"probes": 0, "attempts": [], "dense": 0})
        if event[0] == "probe":
            segments[-1]["probes"] += 1
        elif event[0] == "attempt":
            segments[-1]["attempts"].append(event[1:])
        elif event[0] == "dense":
            segments[-1]["dense"] += 1
    counts = []
    for segment in segments:
        start, h = np.array(segment["attempts"]).T
        # a rejected attempt is retried from its own start, an accepted one continued from its end
        accepted = 1 + np.count_nonzero(np.diff(start) > 0.5 * h[:-1])
        counts.append(dense_oracle.SegmentCounts(segment["probes"], len(start), accepted,
                                                 segment["dense"]))
    return counts


def per_point_oracle(ham, generator, y0, grid, rtol, atol):
    """Each point of a _dop853 call alone, through solve_ivp_segment on its own segments.

    Point k's Hamiltonian is column k of the stack's, its right-hand side
    its row of the stack's, its segments run between its own breakpoints
    (ham.points[k]) from grid[0, k] to grid[-1, k], and a drive-free one is
    scipy's expm.  Returns the states at the grid times and, per point, the
    SegmentCounts of its driven segments.
    """
    windows = ham.points if len(ham.points) == len(y0) else ham.points * len(y0)
    out = np.empty(grid.shape + y0.shape[-1:], dtype=complex)
    counts = []
    for k, ((edges, intervals), y) in enumerate(zip(windows, y0)):
        def func(t, k=k):
            return ham.func(np.full(len(y0), t))[k]

        def apply(c, v, k=k):
            # point k's row of the product over the whole stack, rounded as the stack rounds it
            stack = np.zeros((len(y0),) + v.shape)
            stack[k] = v
            return generator.apply(np.broadcast_to(c, (len(y0),) + c.shape), stack)[k]
        single, times = replace(ham, func=func), grid[:, k]
        out[times <= times[0] + 1e-18, k] = y
        counts.append([])
        for a, b in dynamics._segments(times[0], times[-1], edges):
            inside = (times > a + 1e-18) & (times <= b + 1e-18)
            if not ham.is_static_on(a, b, intervals):
                states, y, segment = dense_oracle.solve_ivp_segment(
                    single, SimpleNamespace(apply=apply), y, a, times[inside], b, rtol, atol)
                if states:
                    out[inside, k] = states
                counts[-1].append(segment)
                continue
            g = generator.matrix(func(0.5 * (a + b)))
            for i in np.flatnonzero(inside):
                out[i, k] = (expm(g * (times[i] - a)) @ y.view(float)).view(complex)
            y = (expm(g * (b - a)) @ y.view(float)).view(complex)
    return out, counts


def record_stepper(monkeypatch, run):
    """run() with every _dop853 call recorded: (func calls, arguments, states) per call."""
    records = []
    stepper = dynamics._dop853

    def recorded(ham, *args):
        calls = []

        def func(t):
            calls.append(np.array(t, dtype=float))
            return ham.func(t)
        out = stepper(replace(ham, func=func), *args)
        records.append((calls, (ham,) + args, out))
        return out
    monkeypatch.setattr(dynamics, "_dop853", recorded)
    run()
    return records


ORACLE_RUNS = {
    "closed-52": lambda: run_blockade_grid(SYSTEM, grid_protocols(
        SYSTEM, 1e-9 * np.array(BENCH_DELAYS), 1e-9 * np.array(BENCH_LENGTHS))),
    "lindblad-20": lambda: run_blockade_grid(SYSTEM, grid_protocols(
        SYSTEM, 1e-9 * np.array(BENCH_OPEN_DELAYS), 1e-9 * np.array(BENCH_OPEN_LENGTHS),
        readout_pad_s=200e-9), CHIP1_DISSIPATION),
    "protocol-121": lambda: run_blockade_protocol(
        SYSTEM, make_blockade_protocol(SYSTEM, 60e-9, 20e-9), n_grid=121),
    "protocol-121-lindblad": lambda: run_blockade_protocol(
        SYSTEM, make_blockade_protocol(SYSTEM, 60e-9, 20e-9), CHIP1_DISSIPATION, n_grid=121),
    # a drive-free gap from 30 to 80 ns holding 53 grid times: a mid-run jump that
    # reads inside its stretch, and the probe that follows it in the same round
    "gap-121": lambda: run_blockade_protocol(
        SYSTEM, make_blockade_protocol(SYSTEM, 30e-9, 80e-9), n_grid=121),
    "gap-121-lindblad": lambda: run_blockade_protocol(
        SYSTEM, make_blockade_protocol(SYSTEM, 30e-9, 80e-9), CHIP1_DISSIPATION, n_grid=121),
    "gaussian-L/1000": lambda: run_blockade_grid(SYSTEM, grid_protocols(
        SYSTEM, (0.0, 1e-9, 30e-9), (40e-9,), shape="gaussian", gaussian_sigma_s=40e-12)),
    # lab_frame's rotating twin: its two points share every edge, so most of its rounds
    # have no point probing or sizing
    "twin-2": lambda: run_blockade_grid(CHIP1_POINT, grid_protocols(
        CHIP1_POINT, (-10e-9, 10e-9), (16e-9,))),
    "rtol-floor": lambda: run_blockade_protocol(
        SYSTEM, make_blockade_protocol(SYSTEM, 30e-9, 10e-9), n_grid=9, rtol=1e-16, atol=1e-16),
}


def counted_calls(monkeypatch, run):
    """The number of func calls of the Hamiltonians run() builds."""
    calls = []
    build = dynamics.build_protocol_hamiltonian

    def counting_build(*args, **kwargs):
        ham = build(*args, **kwargs)

        def counted(t):
            calls.append(t)
            return ham.func(t)
        return replace(ham, func=counted)
    monkeypatch.setattr(dynamics, "build_protocol_hamiltonian", counting_build)
    run()
    monkeypatch.setattr(dynamics, "build_protocol_hamiltonian", build)
    return len(calls)


class TestDop853Stepper:
    """The in-core DOP853 stepper against scipy's solve_ivp, the old solver, point by point."""

    @pytest.mark.parametrize("name", list(ORACLE_RUNS))
    def test_matches_solve_ivp_step_for_step(self, monkeypatch, name):
        # every point of a stack steps as solve_ivp steps it alone, over its own segments
        records = record_stepper(monkeypatch, ORACLE_RUNS[name])
        assert len(records) == 1
        (calls, args, out), = records
        want, want_counts = per_point_oracle(*args)
        assert sum(map(len, want_counts)) > 0
        for k, counts in enumerate(want_counts):
            assert segment_counts(point_events(calls, k)) == counts
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dissipation", [None, CHIP1_DISSIPATION], ids=["closed", "lindblad"])
    def test_one_func_call_per_step_attempt(self, monkeypatch, dissipation):
        # every stage time of a step attempt goes to func in one call, and the
        # dense output's three in one more: a stepper that went back to one
        # call per stage would call func about twelve times as often.  A point
        # alone does one thing per call: an attempt, a probe evaluation, a
        # dense output or a jump over its drive-free readout stretch
        prot = make_blockade_protocol(SYSTEM, 60e-9, 20e-9)
        (calls, args, _), = record_stepper(
            monkeypatch, lambda: run_blockade_protocol(SYSTEM, prot, dissipation))
        events = point_events(calls, 0)
        assert [kind for kind, *_ in events].count("jump") == 1
        assert all(kind != "idle" for kind, *_ in events)
        _, (want_counts,) = per_point_oracle(*args)
        got = segment_counts(events)
        assert got == want_counts
        assert len(calls) == 1 + sum(c.probes + c.attempts + c.dense for c in got)
        assert all(counts.dense for counts in got)

    @pytest.mark.parametrize("delays,lengths,dissipation,readout_pad_s", [
        (BENCH_DELAYS, BENCH_LENGTHS, None, 0.0),
        (BENCH_OPEN_DELAYS, BENCH_OPEN_LENGTHS, CHIP1_DISSIPATION, 200e-9),
    ], ids=["closed-52", "lindblad-20"])
    def test_a_grid_costs_about_its_slowest_point(self, monkeypatch, delays, lengths,
                                                  dissipation, readout_pad_s):
        # each point keeps its own clock, so a grid takes about as many rounds
        # as its slowest point alone (75 and 76 calls here); a stepper that
        # restarted every point at the union of all points' edges called func
        # 350 and 197 times on these grids
        prots = grid_protocols(SYSTEM, 1e-9 * np.array(delays), 1e-9 * np.array(lengths),
                               readout_pad_s=readout_pad_s)
        grid = counted_calls(monkeypatch, lambda: run_blockade_grid(SYSTEM, prots, dissipation))
        alone = max(counted_calls(monkeypatch, lambda: run_blockade_grid(SYSTEM, [p], dissipation))
                    for p in prots)
        assert grid <= 1.25 * alone

    def test_rtol_below_the_floor_reaches_the_stepper_as_the_floor(self):
        assert dynamics.RTOL_FLOOR == 100 * np.finfo(float).eps
        ham = build_protocol_hamiltonian(SYSTEM, make_blockade_protocol(SYSTEM, 30e-9, 0.0))
        runs = []
        for rtol in (1e-300, dynamics.RTOL_FLOOR, 2 * dynamics.RTOL_FLOOR):
            calls = []

            def func(t):
                calls.append(np.array(t, dtype=float))
                return ham.func(t)
            out = dynamics._dop853(replace(ham, func=func), dynamics._schrodinger(ham),
                                   ground_state()[None], np.array([[0.0], [10e-9], [30e-9]]),
                                   rtol, 1e-16)
            runs.append((calls, out))

        def same_calls(x, y):
            return len(x) == len(y) and all(
                a.shape == b.shape and np.array_equal(a, b, equal_nan=True) for a, b in zip(x, y))
        assert same_calls(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        assert not same_calls(runs[2][0], runs[1][0])

    def test_a_step_below_the_minimum_raises(self):
        # ten ulp of t = 1 s are 2.2e-15 s, and a 1e25 Hz ZZ term needs steps
        # ten orders shorter: the step control shrinks the step below the minimum
        system = TwoQubitSystem(6.3e9, 4.5e9, 1e25)
        pulse = pi_pulse("truncated_cosine", 1e-3, system.omega1_hz, start_time_s=1.0)
        ham = build_protocol_hamiltonian(system, dynamics.ProtocolSpec((pulse,), 1.001))
        generator, y = dynamics._schrodinger(ham), np.full(4, 0.5, dtype=complex)
        message = r"failed on \[1\.000e\+00, 1\.001e\+00\]: Required step size"
        with pytest.raises(StiffnessError, match=message):
            dynamics._dop853(ham, generator, y[None], np.array([[1.0], [pulse.end_time_s]]),
                             1e-9, 1e-12)
        with pytest.raises(StiffnessError, match=message):
            dense_oracle.solve_ivp_segment(ham, generator, y, 1.0, np.array([]),
                                           pulse.end_time_s, 1e-9, 1e-12)

    def test_a_stacked_lindblad_grid_leaves_no_garbage(self):
        # the stepper holds no solver object and makes no reference cycle, so
        # no round's stage arrays wait for the cycle collector
        prots = grid_protocols(SYSTEM, 1e-9 * np.array(BENCH_OPEN_DELAYS),
                               1e-9 * np.array(BENCH_OPEN_LENGTHS), readout_pad_s=200e-9)
        gc.collect()
        gc.disable()
        try:
            run_blockade_grid(SYSTEM, prots, CHIP1_DISSIPATION)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBlockadeProtocol:
    def test_zero_zeta_no_blockade_asymmetry(self):
        system = TwoQubitSystem(6.307e9, 4.498e9, 0.0)
        vals = {}
        for delay in (-80e-9, 80e-9):
            prot = make_blockade_protocol(system, 100e-9, delay)
            vals[delay] = run_blockade_protocol(system, prot).p_excited(1)[-1]
        assert abs(vals[80e-9] - vals[-80e-9]) < 1e-3

    def test_anti_correlated_populations(self):
        delays = np.linspace(-150e-9, 150e-9, 11)
        p1, p2 = [], []
        for d in delays:
            prot = make_blockade_protocol(SYSTEM, 100e-9, d)
            res = run_blockade_protocol(SYSTEM, prot)
            p1.append(res.p_excited(1)[-1])
            p2.append(res.p_excited(2)[-1])
        assert np.corrcoef(p1, p2)[0, 1] < -0.9

    def test_crossover_width_comparable_to_pulse_length(self):
        # width = delay span of the 95% -> 5% transition of P1(e)
        length = 200e-9
        delays = np.linspace(-300e-9, 300e-9, 25)
        probs = []
        for d in delays:
            prot = make_blockade_protocol(SYSTEM, length, d)
            probs.append(run_blockade_protocol(SYSTEM, prot).p_excited(1)[-1])
        probs = np.array(probs)

        def crossing(level):
            k = np.nonzero((probs[:-1] >= level) & (probs[1:] < level))[0][0]
            frac = (probs[k] - level) / (probs[k] - probs[k + 1])
            return delays[k] + frac * (delays[k + 1] - delays[k])

        width = crossing(0.05) - crossing(0.95)
        assert length / 2 <= width <= 2 * length

    def test_exchange_terms_average_out_when_far_detuned(self):
        # XX+YY of the device scale changes blockade populations < 1% when
        # the detuning dwarfs every drive scale
        system = TwoQubitSystem(7.0e9, 4.5e9, 19e6, jxx_hz=8.05e6, jyy_hz=1.69e6)
        bare = TwoQubitSystem(7.0e9, 4.5e9, 19e6)
        prot = make_blockade_protocol(system, 100e-9, 60e-9)
        with_j = run_blockade_protocol(system, prot)
        without = run_blockade_protocol(bare, prot)
        assert abs(with_j.p_excited(1)[-1] - without.p_excited(1)[-1]) < 0.01
        assert abs(with_j.p_excited(2)[-1] - without.p_excited(2)[-1]) < 0.01

    def test_shifted_convention_blocks_from_vacuum(self):
        # driving the neighbor-excited lines detunes both drives at the start,
        # the mirrored self-consistency of the two carrier conventions
        prot = make_blockade_protocol(SYSTEM, 200e-9, -100e-9,
                                      carrier_convention="shifted")
        res = run_blockade_protocol(SYSTEM, prot)
        assert res.p_excited(1)[-1] < 0.15


class TestSpectralPower:
    def test_full_band_fraction_is_the_sici_value(self):
        # +-500 GHz about a 50 ns pulse holds all but 4.05e-6 of its power
        p = pi_pulse("rectangular", 50e-9, 6e9)
        frac = pulse_spectral_power(p, 0.0, 1e12)
        assert frac == pytest.approx(0.999995947152655, abs=1e-10)
        assert frac == pytest.approx(dense_oracle.sinc_spectral_fraction(50e-9, 0.0, 1e12),
                                     abs=1e-10)

    def test_rectangular_sinc_null(self):
        duration = 100e-9
        p = pi_pulse("rectangular", duration, 6e9)
        window = 1.0 / (50 * duration)
        at_null = pulse_spectral_power(p, 1.0 / duration, window)
        at_peak = pulse_spectral_power(p, 0.0, window)
        assert at_null < 1e-3 * at_peak

    def test_short_pulse_carries_more_sideband_power(self):
        window = 1.0 / 9.1e-6
        short = pulse_spectral_power(pi_pulse("truncated_cosine", 16e-9, 6e9),
                                     19e6, window)
        long = pulse_spectral_power(pi_pulse("truncated_cosine", 200e-9, 6e9),
                                    19e6, window)
        assert short > 10 * long

    def test_narrow_window_on_a_short_pulse_is_the_sici_value(self):
        # a 1e-2 Hz window on a 1 ns pulse: 1e-11 of the sinc's main lobe
        p = pi_pulse("rectangular", 1e-9, 6e9)
        assert pulse_spectral_power(p, 0.0, 1e-2) == pytest.approx(
            dense_oracle.sinc_spectral_fraction(1e-9, 0.0, 1e-2), rel=1e-9)

    @pytest.mark.parametrize("length", [1e-9, 16e-9, 1e-6])
    @pytest.mark.parametrize("window", [1e4, 1e6, 1e8, 1e10, 1e12])
    @pytest.mark.parametrize("offset", [0.0, 19e6, 1e9])
    def test_rectangular_is_the_sici_value(self, length, window, offset):
        p = pi_pulse("rectangular", length, 6e9)
        assert pulse_spectral_power(p, offset, window) == pytest.approx(
            dense_oracle.sinc_spectral_fraction(length, offset, window), abs=1e-10)

    # sigma far below T/64: the spectrum is the untruncated gaussian's, many lobes wide
    @pytest.mark.parametrize("s", [1e-5, 1e-4, 1e-3])
    @pytest.mark.parametrize("lo,hi", [(-10.0, 10.0), (100.0, 2000.0), (-5e4, 3e3), (1e5, 3e5)])
    def test_narrow_gaussian_is_the_untruncated_one(self, s, lo, hi):
        p = pi_pulse("gaussian", 100e-9, 6e9, gaussian_sigma_s=s * 100e-9)
        frac = pulse_spectral_power(p, 0.5 * (lo + hi) / 100e-9, (hi - lo) / 100e-9)
        assert frac == pytest.approx(0.5 * (erf(TWO_PI * s * hi) - erf(TWO_PI * s * lo)),
                                     abs=1e-12)

    # windows in units of 1/T: the oracle's within 20 of the carrier, and three cuts
    # on a dyadic grid up to 3x the quadrature's reach, over a length 2^-k s, so that
    # adjacent windows share their edge bit for bit; past the reach a rectangular
    # window's edges off the sinc nulls test the closed-form tail against Si
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(shape=st.sampled_from(dynamics.PULSE_SHAPES), k=st.integers(20, 30),
           s=st.floats(1 / 20, 2.0), phase=st.floats(-10.0, 10.0),
           start=st.floats(-1e-6, 1e-6), center=st.floats(-20.0, 20.0),
           span=st.floats(-8.0, 1.3),
           cuts=st.lists(st.integers(-3 * 2**20, 3 * 2**20), min_size=3, max_size=3,
                         unique=True))
    def test_fraction_properties(self, shape, k, s, phase, start, center, span, cuts):
        length = 2.0**-k
        p = dynamics.calibrated_pulse(shape, length, 6e9, phase_rad=phase, start_time_s=start,
                                      gaussian_sigma_s=s * length)

        def fraction(lo, hi):
            return pulse_spectral_power(p, 0.5 * (lo + hi) / length, (hi - lo) / length)

        width = 10.0**span
        frac = fraction(center - 0.5 * width, center + 0.5 * width)
        assert 0.0 <= frac <= 1.0
        assert fraction(-center - 0.5 * width, -center + 0.5 * width) == pytest.approx(
            frac, abs=1e-12)
        assert frac == pytest.approx(dense_oracle.dft_spectral_fraction(
            p, center / length, width / length), abs=1e-8)
        x0, x1, x2 = sorted(c * dynamics._SPECTRAL_PANELS / 2**20 for c in cuts)
        whole = fraction(x0, x2)
        assert 0.0 <= whole <= 1.0
        assert fraction(x0, x1) + fraction(x1, x2) == pytest.approx(whole, abs=1e-12)
        assert fraction(-x2, -x0) == pytest.approx(whole, abs=1e-12)
        if shape == "rectangular":
            assert whole == pytest.approx(dense_oracle.sinc_spectral_fraction(
                length, 0.5 * (x0 + x2) / length, (x2 - x0) / length), abs=1e-10)


class TestConditionalRamsey:
    def test_zero_zeta_equal_fringes(self):
        system = TwoQubitSystem(6.307e9, 4.498e9, 0.0)
        grid = np.linspace(0, 1e-6, 2001)
        f0, f1 = run_conditional_ramsey(system, grid)
        assert f1 == pytest.approx(f0, rel=1e-9)

    # SYSTEM is chip1's blockade point; the 33.5 MHz windows of 401 points are
    # short records on which an unpadded-FFT seed once led a curve fit to a wrong fringe
    @pytest.mark.parametrize("window_s,n_points,offset_hz,spectator", [
        (1e-6, 2001, 12e6, 0),
        (0.4e-6, 401, 33.5e6, 0),
        (0.5e-6, 401, 33.5e6, 1),
        (0.9e-6, 401, 33.5e6, 1),
        (1.8e-6, 401, 33.5e6, 0),
    ])
    def test_fringe_at_drive_detuning(self, window_s, n_points, offset_hz, spectator):
        grid = np.linspace(0, window_s, n_points)
        f = run_conditional_ramsey(SYSTEM, grid, drive_offset_hz=offset_hz)[spectator]
        assert f == pytest.approx(offset_hz + spectator * SYSTEM.zeta_hz, rel=1e-3)

    # zzbench's ramsey inputs: 19 windows of 401 points at a 33.5 MHz offset (the
    # 200 ns one is the CI config's), and the warm-up's 101 points over 1 us at the
    # default offset, whose 52.5 MHz spectator-1 line lies above the 50 MHz Nyquist
    # frequency and reads as its alias.  Two oracles: the old curve fit on these
    # fringes, and this fit on the old fringes of the stacked 4x4 propagator
    @pytest.mark.parametrize("oracle", ["curve-fit", "stacked"])
    @pytest.mark.parametrize("grid,offset_hz", [
        *((np.linspace(0.0, round(0.1e-6 * k, 12), 401), 33.5e6) for k in range(2, 21)),
        (np.linspace(0.0, 1e-6, 101), None),
    ], ids=[*(f"window-{k}00ns" for k in range(2, 21)), "warm-up"])
    def test_linear_prediction_matches_curve_fit_oracle(self, monkeypatch, grid, offset_hz,
                                                        oracle):
        new = run_conditional_ramsey(SYSTEM, grid, drive_offset_hz=offset_hz)
        if oracle == "stacked":
            fringes = dense_oracle.stacked_ramsey_fringes(SYSTEM, grid, offset_hz)
            old = tuple(_fit_fringe(grid, x) for x in fringes.T)
        else:
            monkeypatch.setattr(dynamics, "_fit_fringe",
                                lambda t, x: dense_oracle.curve_fit_fringe(t, x)[0])
            old = run_conditional_ramsey(SYSTEM, grid, drive_offset_hz=offset_hz)
        assert new == pytest.approx(old, rel=1e-12, abs=0)

    @given(omega1=st.floats(4e9, 8e9), omega2=st.floats(4e9, 8e9),
           zeta=st.sampled_from([0.0, 400e6, -400e6]) | st.floats(-400e6, 400e6),
           offset=st.floats(-100e6, 100e6))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_branch_populations_match_the_stacked_propagator(self, omega1, omega2, zeta, offset):
        # each spectator branch's pi/2 pulse as run_conditional_ramsey builds it, against
        # the 4x4 pulse of the stacked rotating-frame Hamiltonian.  Their phases differ
        # by up to 2.5e-14: the stacked levels cancel GHz-scale energies to reach zeta
        system = TwoQubitSystem(omega1, omega2, zeta)
        pulses = []
        branches = dynamics._half_pi_branches
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_half_pi_branches",
                       lambda d: pulses.append(branches(d)) or pulses[-1])
            mp.setattr(dynamics, "_fit_fringe", lambda t, x: 0.0)
            run_conditional_ramsey(system, np.linspace(0.0, 1e-6, 401), offset)
        stacked = dense_oracle._half_pi_propagator(system, omega1 - offset)
        for s, u in enumerate(pulses[0]):
            block = stacked[np.ix_([s, 2 + s], [s, 2 + s])]
            np.testing.assert_allclose(np.abs(u) ** 2, np.abs(block) ** 2, rtol=0, atol=1e-14)

    def test_non_uniform_grid_raises(self):
        # every other point plus the first 50 of the rest moved by 0.3 ns: a fit
        # that took its step from the first two times read 24.197 MHz against 19
        grid = np.linspace(0.0, 200e-9, 401)
        uneven = np.sort(np.concatenate([grid[::2], grid[1:100:2] + 0.3e-9]))
        with pytest.raises(ValueError, match="evenly spaced"):
            run_conditional_ramsey(SYSTEM, uneven, drive_offset_hz=33.5e6)

    @pytest.mark.parametrize("n_points", [2, 3])
    def test_fit_needs_four_samples(self, n_points):
        grid = np.linspace(0, 1e-6, n_points)
        with pytest.raises(FitError, match="at least 4 samples"):
            _fit_fringe(grid, np.cos(TWO_PI * 3e6 * grid))

    @pytest.mark.parametrize("contrast", [0.0, 0.05])
    def test_low_contrast_raises(self, contrast):
        grid = np.linspace(0, 1e-6, 401)
        signal = 0.5 + 0.5 * contrast * np.cos(TWO_PI * 3e6 * grid + 0.4)
        with pytest.raises(FitError, match=f"fringe contrast {contrast:.3f} below 0.1"):
            _fit_fringe(grid, signal)

    def test_growing_record_is_no_oscillation(self):
        # x[n+1] + x[n-1] = 2 cosh(k D) x[n]: a cosine estimate above 1
        grid = np.linspace(0, 1e-6, 401)
        with pytest.raises(FitError, match="no oscillation"):
            _fit_fringe(grid, np.exp(grid / 0.2e-6))

    @given(n=st.integers(4, 600), step=st.floats(1e-10, 1e-8), start=st.floats(0.0, 1e-6),
           cycles=st.floats(0.05, 0.45), amp=st.floats(0.1, 1.0), phase=st.floats(0.0, 2 * np.pi),
           offset=st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_predictor_recovers_frequency_and_alias(self, n, step, start, cycles, amp, phase,
                                                    offset):
        # f = cycles / D inside the Nyquist band, and its alias 1/D - f above it
        grid = start + step * np.arange(n)
        freq = cycles / step
        for line in (freq, 1.0 / step - freq):
            signal = amp * np.cos(TWO_PI * line * grid + phase) + offset
            assert _fit_fringe(grid, signal) == pytest.approx(freq, rel=1e-9)

    def test_beta_table_model_fringe_difference(self, chip1):
        system = TwoQubitSystem.from_pauli_decomposition(chip1.beta)
        grid = np.linspace(0, 2e-6, 4001)
        f0, f1 = run_conditional_ramsey(system, grid)
        assert abs(f1 - f0) == pytest.approx(abs(system.zeta_hz), rel=1e-3)
        assert abs(system.zeta_hz) == pytest.approx(15.25e6, rel=1e-4)


class TestEchoConditionalPhase:
    TAU = 300e-9
    ECHO_SYSTEM = TwoQubitSystem(6e9, 4.5e9, 2e6)

    def test_half_window_flip_cancels(self):
        phase = run_echo_conditional_phase(self.ECHO_SYSTEM, self.TAU / 2, self.TAU)
        assert phase == pytest.approx(0.0, abs=1e-12)

    def test_no_flip_full_phase(self):
        phase = run_echo_conditional_phase(self.ECHO_SYSTEM, None, self.TAU)
        assert phase == pytest.approx(TWO_PI * 2e6 * self.TAU, rel=0, abs=1e-12)

    def test_quarter_window_flip(self):
        phase = run_echo_conditional_phase(self.ECHO_SYSTEM, self.TAU / 4, self.TAU)
        assert phase == pytest.approx(-TWO_PI * 2e6 * self.TAU / 2, rel=0, abs=1e-12)

    # the old loop ran in the frame of a drive offset_hz below qubit 1, which
    # turns both branches alike and leaves their difference unchanged
    @pytest.mark.parametrize("offset_hz", [0.0, 33.5e6])
    @pytest.mark.parametrize("flip", [None, 0.5, 0.25])
    def test_matches_stepping_loop_oracle(self, flip, offset_hz):
        t_flip = None if flip is None else flip * self.TAU
        phase = run_echo_conditional_phase(self.ECHO_SYSTEM, t_flip, self.TAU)
        loop = dense_oracle.echo_phase_loop(self.ECHO_SYSTEM, t_flip, self.TAU,
                                            drive_offset_hz=offset_hz)
        assert phase == pytest.approx(loop, rel=0, abs=1e-12)

    def test_flip_outside_window_raises(self):
        with pytest.raises(ValueError, match="inside the free window"):
            run_echo_conditional_phase(self.ECHO_SYSTEM, 1.1 * self.TAU, self.TAU)


class TestSystemConstruction:
    def test_from_beta_table_transitions_positive(self, chip1):
        system = TwoQubitSystem.from_pauli_decomposition(chip1.beta)
        assert system.omega1_hz > 0 and system.omega2_hz > 0
        assert system.zeta_hz == pytest.approx(chip1.beta.zeta_hz)
        assert system.jxx_hz == pytest.approx(8.05325187e6)

    def test_energy_bookkeeping(self):
        e = SYSTEM.energies()
        assert e[3] - e[2] - e[1] + e[0] == pytest.approx(SYSTEM.zeta_hz)
        assert SYSTEM.conditional_transition(1, True) - \
            SYSTEM.conditional_transition(1, False) == pytest.approx(SYSTEM.zeta_hz)

    def test_nan_zeta_rejected(self):
        with pytest.raises(ValueError, match="zeta_hz"):
            TwoQubitSystem(6.3e9, 4.5e9, np.nan)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["omega1_hz", "omega2_hz", "zeta_hz", "jxx_hz",
                                       "jyy_hz"])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(EXCHANGE, **{field: value})
