import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from zzkit import (
    Coupling,
    FosterMode,
    JunctionParticipation,
    KerrParams,
    SquidSpec,
    effective_josephson_energy,
    kerr_from_foster,
    participation_from_foster,
    transmon_pair,
    transmon_spectrum,
)
from zzkit.circuit import TRANSMON_RATIO_MAX, check_transmon, transmon_levels
from zzkit.cli import main
from zzkit.errors import DimensionMismatchError
from zzkit.io import load_circuit_file, read_zz_sweep_csv
from zzkit.spectrum import single_excitation_scan

from conftest import make_transmon


def charge_basis_levels(ej_hz, ec_hz, cutoff=200):
    """Oracle: omega01 and omega02 of 4 E_C n^2 - E_J cos(phi) at ng = 0 from a
    tridiagonal eigensolve in the charge basis, |n| <= cutoff."""
    n = np.arange(-cutoff, cutoff + 1, dtype=float)
    vals = eigh_tridiagonal(4.0 * ec_hz * n**2, -0.5 * ej_hz * np.ones(2 * cutoff),
                            select="i", select_range=(0, 2))[0]
    return vals[1] - vals[0], vals[2] - vals[0]


class TestEffectiveJosephsonEnergy:
    def test_zero_flux(self):
        assert effective_josephson_energy(SquidSpec(20e9, 0.481, 0.0)) == pytest.approx(20e9)

    def test_half_flux_gives_asymmetry_fraction(self):
        # at half flux only the junction imbalance survives
        ej = effective_josephson_energy(SquidSpec(20e9, 0.481, 0.5))
        assert ej == pytest.approx(0.481 * 20e9, rel=1e-12)

    def test_symmetric_quarter_flux(self):
        ej = effective_josephson_energy(SquidSpec(20e9, 0.0, 0.25))
        assert ej == pytest.approx(20e9 / np.sqrt(2), rel=1e-12)

    @given(d=st.floats(-0.95, 0.95), flux=st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_periodic_and_even_in_flux(self, d, flux):
        # abs floor: at d = 0 and half flux the true value is 0, so two
        # evaluations only agree to machine noise on the E_J_sum scale
        base = effective_josephson_energy(SquidSpec(17e9, d, flux))
        tol = dict(rel=1e-12, abs=1e-12 * 17e9)
        assert effective_josephson_energy(SquidSpec(17e9, d, flux + 1.0)) == pytest.approx(
            base, **tol)
        assert effective_josephson_energy(SquidSpec(17e9, d, -flux)) == pytest.approx(
            base, **tol)

    def test_flux_periodicity_on_grid(self):
        fluxes = np.linspace(-0.5, 0.5, 101)
        sq = [effective_josephson_energy(SquidSpec(20e9, 0.3, f)) for f in fluxes]
        sq_shift = [effective_josephson_energy(SquidSpec(20e9, 0.3, f + 1.0)) for f in fluxes]
        np.testing.assert_allclose(sq, sq_shift, rtol=1e-14)

    def test_strictly_positive_with_asymmetry(self):
        assert effective_josephson_energy(SquidSpec(20e9, 0.05, 0.5)) > 0

    def test_unity_asymmetry_limit_is_flux_flat(self):
        # as |d| -> 1 the two junction branches balance at every flux
        vals = [effective_josephson_energy(SquidSpec(20e9, 1 - 1e-9, f))
                for f in np.linspace(0, 1, 21)]
        assert (max(vals) - min(vals)) / max(vals) < 1e-8

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SquidSpec(20e9, 1.0, 0.0)
        with pytest.raises(ValueError):
            SquidSpec(-1e9, 0.0, 0.0)


class TestTransmonSpectrum:
    def test_anharmonicity_asymptote(self):
        # |alpha| -> E_C from above; the excess falls off like (E_J/E_C)^(-1/2),
        # so the 5% level is only reached around ratio ~300
        ec = 0.25e9
        excesses = []
        for ratio in (50, 200, 2000):
            s = transmon_spectrum(make_transmon(ratio * ec, ec))
            excesses.append(abs(s.anharmonicity_hz) / ec - 1.0)
        assert excesses[0] == pytest.approx(0.149, abs=0.01)
        assert excesses[0] > excesses[1] > excesses[2]
        assert excesses[2] < 0.05

    def test_anharmonicity_negative(self):
        s = transmon_spectrum(make_transmon(15e9, 0.3e9))
        assert s.anharmonicity_hz < 0

    def test_table_point_alpha_at_sweet_spot(self):
        # E_J root-solved so omega01 = 6.27 GHz at E_C = 351 MHz; the exact
        # charge-basis anharmonicity there is -407.8 MHz, i.e. the quoted
        # -351 MHz value corresponds to a back-solved E_C near 309 MHz
        ec = 0.351e9
        ej = brentq(
            lambda x: transmon_spectrum(make_transmon(x, ec)).omega01_hz - 6.27e9,
            5e9, 60e9)
        s = transmon_spectrum(make_transmon(ej, ec))
        assert s.omega01_hz == pytest.approx(6.27e9, abs=1e3)
        assert s.anharmonicity_hz == pytest.approx(-407.8e6, rel=0.01)

    def test_charge_basis_vs_asymptotic_formula(self):
        s = transmon_spectrum(make_transmon(15e9, 0.3e9))
        w_asym = np.sqrt(8.0 * 15e9 * 0.3e9) - 0.3e9     # leading order: sqrt(8 E_J E_C) - E_C
        assert abs(s.omega01_hz - w_asym) / s.omega01_hz < 0.02

    def test_levels_increasing(self):
        s = transmon_spectrum(make_transmon(20e9, 0.3e9))
        assert s.levels_hz.shape == (3,) and s.levels_hz[0] == 0.0
        assert np.all(np.diff(s.levels_hz) > 0)
        assert s.levels_hz[2] - 2 * s.levels_hz[1] == pytest.approx(s.anharmonicity_hz,
                                                                    rel=1e-12)

    def test_sweet_spot_extrema(self):
        # omega01 is flux-stationary at zero and half flux
        spec = make_transmon(25e9, 0.3e9, d=0.45)
        h = 1e-4
        for flux in (0.0, 0.5):
            wp = transmon_spectrum(spec.at_flux(flux + h)).omega01_hz
            wm = transmon_spectrum(spec.at_flux(flux - h)).omega01_hz
            w0 = transmon_spectrum(spec.at_flux(flux)).omega01_hz
            # derivative vanishes: symmetric difference ~ curvature * h^2
            assert abs(wp - wm) / 2 < abs(wp + wm - 2 * w0) * 10
        mid = transmon_spectrum(spec.at_flux(0.25 + h)).omega01_hz
        mid2 = transmon_spectrum(spec.at_flux(0.25 - h)).omega01_hz
        assert abs(mid - mid2) / 2 > 1e3   # generic point is not stationary

    def test_warns_outside_transmon_regime(self):
        with pytest.warns(UserWarning, match="transmon regime"):
            transmon_spectrum(make_transmon(3e9, 0.3e9))

    def test_not_a_transmon_below_unit_ratio(self):
        with pytest.raises(ValueError, match="not a transmon"):
            transmon_spectrum(make_transmon(0.2e9, 0.3e9))


class TestMathieuLevels:
    # ratios where scipy's characteristic values misbehave: with SciPy 1.17,
    # mathieu_b(4, q), which transmon_levels does not use, is off level 3 near
    # E_J/E_C = 74.73-74.76, a_0 is NaN at scattered points of 1334.5-1335.3
    # and b_2 at 1641.1494; 34.9 and 1692-1933 (wrong b_4, and levels that
    # sorting a_0..b_4 would swap) were reported with another version.
    RATIOS = np.concatenate([np.geomspace(1.0, 2000.0, 300), [34.9, 74.7, 74.8, 1641.1494],
                             np.linspace(74.72, 74.77, 11), np.linspace(1334.4, 1335.4, 101),
                             np.linspace(1692.0, 1933.0, 25)])

    def test_matches_charge_basis_solve(self):
        ec = 0.25e9
        omega01, alpha = transmon_levels(self.RATIOS * ec, ec)
        for ratio, w01, a in zip(self.RATIOS, omega01, alpha):
            want01, want02 = charge_basis_levels(ratio * ec, ec)
            assert abs(w01 - want01) <= 2e-11 * want01, ratio
            assert abs(2 * w01 + a - want02) <= 2e-11 * want02, ratio

    def test_matches_charge_basis_solve_up_to_the_bound(self):
        # a dense scan; scipy's values first jump to another branch near 4087
        ratios = np.geomspace(1.0, TRANSMON_RATIO_MAX, 4000)
        omega01, alpha = transmon_levels(ratios, 1.0)
        want = np.array([charge_basis_levels(r, 1.0, cutoff=60) for r in ratios])
        np.testing.assert_allclose(omega01, want[:, 0], rtol=1e-9, atol=0)
        np.testing.assert_allclose(2 * omega01 + alpha, want[:, 1], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("ratio", [4000.001, 1.09e4, 2e4, 1e290])
    def test_checks_raise_beyond_the_bound(self, ratio):
        # at 2e4, transmon_levels gives omega01 12x the charge-basis value
        spec = make_transmon(ratio * 0.2e9, 0.2e9)
        with pytest.raises(ValueError, match="beyond the levels' verified range"):
            check_transmon(spec)
        with pytest.raises(ValueError, match="beyond the levels' verified range"):
            transmon_pair([20e9, ratio * 0.2e9], 0.2e9, Coupling.fixed(0.1e9))
        assert check_transmon(make_transmon(TRANSMON_RATIO_MAX * 0.2e9, 0.2e9))

    def test_flux_scan_checks_its_largest_ratio(self):
        # qubit 2 at 5000 at zero flux and below 4000 at 0.4: its smallest ratio is in range
        q1, q2 = make_transmon(18e9, 0.3e9), make_transmon(5000 * 0.2e9, 0.2e9, d=0.3)
        s1 = transmon_spectrum(q1)
        with pytest.raises(ValueError, match="E_J/E_C = 5000 > 4000 at flux 0:"):
            single_excitation_scan(s1, q2, Coupling.fixed(0.1e9), [0.4, 0.0])

    def test_scipy_nan_points_are_mended(self):
        # SciPy 1.17 returns NaN for a_0 at q = -667.445 and for b_2 at q = -820.5747
        ratios = np.array([1334.89, 1641.1494])
        omega01, alpha = transmon_levels(ratios, 1.0)
        assert np.isfinite(omega01).all() and np.isfinite(alpha).all()
        assert transmon_levels(ratios[0], 1.0) == (omega01[0], alpha[0])

    def test_transmon_spectrum_uses_the_effective_josephson_energy(self):
        spec = make_transmon(36.65e9, 0.309e9, d=0.48, flux=0.37)
        s = transmon_spectrum(spec)
        want01, want02 = charge_basis_levels(effective_josephson_energy(spec.squid),
                                             spec.ec_hz)
        assert s.omega01_hz == pytest.approx(want01, rel=2e-11)
        assert s.levels_hz[2] == pytest.approx(want02, rel=2e-11)

    def test_broadcasts_like_scalar_calls(self):
        ej = np.array([[12e9, 20e9], [30e9, 35e9]])
        ec = np.array([0.2e9, 0.3e9])
        omega01, alpha = transmon_levels(ej, ec)
        assert omega01.shape == alpha.shape == (2, 2)
        for idx in np.ndindex(ej.shape):
            one = transmon_levels(ej[idx], ec[idx[1]])
            assert (omega01[idx], alpha[idx]) == (one[0], one[1])


class TestKerrFromFoster:
    def test_quartic_hand_value(self):
        # E_J/2 * phi^4 = 10 GHz / 2 * 0.3^4 = 40.5 MHz
        part = JunctionParticipation(np.array([[0.3]]), np.array([10e9]))
        mode = FosterMode(1e-9, 1e-13)
        params = kerr_from_foster([mode], part)
        assert params.self_kerr_hz[0] == pytest.approx(-40.5e6, rel=1e-12)

    def test_shared_junction_cross_kerr_identity(self, rng):
        for _ in range(20):
            phi = rng.uniform(0.05, 0.35, size=(2, 1))
            ej = rng.uniform(5e9, 30e9)
            part = JunctionParticipation(phi, np.array([ej]))
            modes = [FosterMode(1e-9, 1e-13), FosterMode(0.5e-9, 1e-13)]
            params = kerr_from_foster(modes, part)
            a1, a2 = -params.self_kerr_hz
            assert params.cross_kerr_hz[0, 1] == pytest.approx(
                2 * np.sqrt(a1 * a2), rel=1e-12)
            assert np.all(params.self_kerr_hz <= 0)
            assert params.cross_kerr_hz[0, 1] >= 0

    def test_zero_participation_mode(self):
        part = JunctionParticipation(np.array([[0.25], [0.0]]), np.array([12e9]))
        modes = [FosterMode(1e-9, 1e-13), FosterMode(0.5e-9, 1e-13)]
        params = kerr_from_foster(modes, part)
        assert params.self_kerr_hz[1] == 0.0
        assert params.cross_kerr_hz[0, 1] == 0.0

    def test_dimension_mismatch(self):
        part = JunctionParticipation(np.array([[0.3]]), np.array([10e9]))
        with pytest.raises(DimensionMismatchError):
            kerr_from_foster([FosterMode(1e-9, 1e-13), FosterMode(2e-9, 1e-13)], part)

    def test_participation_from_foster_uses_mode_impedance(self):
        mode = FosterMode(2e-9, 80e-15)
        part = participation_from_foster([mode], 15e9)
        assert part.phi_zpf[0, 0] == pytest.approx(mode.phi_zpf)

    def test_participation_warns_above_half(self):
        with pytest.warns(UserWarning, match="quartic"):
            JunctionParticipation(np.array([[0.6]]), np.array([10e9]))


class TestKerrParamsValidation:
    def test_rejects_asymmetric_cross_kerr(self):
        with pytest.raises(ValueError):
            KerrParams(np.array([5e9, 6e9]), np.array([-0.3e9, -0.3e9]),
                       np.array([[0.0, 1e6], [2e6, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            KerrParams(np.array([5e9]), np.array([-0.3e9]), np.array([[1e6]]))


def pair_columns(q1, q2, coupling):
    """transmon_pair on two TransmonSpecs, each at its own bias."""
    return transmon_pair([effective_josephson_energy(q.squid) for q in (q1, q2)],
                         [q1.ec_hz, q2.ec_hz], coupling)


class TestTwoTransmonKerr:
    """transmon_pair: the one reduction of a coupled pair to (omega01, alpha, g)."""

    def test_uncoupled_limit(self, chip1):
        q1 = chip1.qubits[0].transmon()
        q2 = chip1.qubits[1].transmon()
        _, _, g = pair_columns(q1, q2, Coupling.capacitive(0.0, q1.ec_hz, q2.ec_hz))
        assert g == 0.0

    def test_design_coupling_reproduces_estimated_exchange(self, chip1):
        # design C12 = 5.11 fF with node capacitances from the charging
        # energies puts g within a few percent of the quoted 240 MHz estimate
        q1f, q2f = chip1.qubits
        q1 = q1f.transmon(0.5)                      # 6.270 GHz
        q2 = q2f.transmon(0.0)                      # 6.348 GHz
        _, _, g = pair_columns(q1, q2, Coupling.capacitive(5.11e-15, q1f.ec_hz, q2f.ec_hz))
        assert g == pytest.approx(240e6, rel=0.15)

    def test_swap_symmetry(self):
        qa = make_transmon(18e9, 0.28e9)
        qb = make_transmon(23e9, 0.31e9, d=0.3, flux=0.2)
        w_ab, alpha_ab, g_ab = pair_columns(qa, qb, Coupling.capacitive(5e-15, 0.28e9, 0.31e9))
        w_ba, alpha_ba, g_ba = pair_columns(qb, qa, Coupling.capacitive(5e-15, 0.31e9, 0.28e9))
        assert w_ab[0] != w_ab[1] and alpha_ab[0] != alpha_ab[1]
        np.testing.assert_array_equal(w_ba, w_ab[::-1])
        np.testing.assert_array_equal(alpha_ba, alpha_ab[::-1])
        assert g_ba == g_ab

    def test_stacked_points_match_single_points(self, rng):
        ej = rng.uniform(5e9, 40e9, (2, 7))
        ec = np.array([[0.28e9], [0.31e9]])
        coupling = Coupling.capacitive(4e-15, 0.28e9, 0.31e9)
        w, alpha, g = transmon_pair(ej, ec, coupling)
        assert w.shape == alpha.shape == (2, 7) and g.shape == (7,)
        for k in range(7):
            one = transmon_pair(ej[:, k], ec[:, 0], coupling)
            np.testing.assert_array_equal(one[0], w[:, k])
            np.testing.assert_array_equal(one[1], alpha[:, k])
            assert one[2] == g[k]

    def test_rejects_a_non_transmon_point(self):
        ej = np.array([[20e9, 20e9, 20e9], [20e9, 0.1e9, 0.2e9]])
        with pytest.raises(ValueError, match="E_J/E_C = 0.33 < 1"):
            transmon_pair(ej, 0.3e9, Coupling.fixed(0.1e9))

    def test_warns_on_large_coupling_fraction(self, tmp_path):
        # C12 = 20 fF against node capacitances of 64.6 fF: 45 % of the shunts
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"qubits": [{"ej_sum_hz": 18e9, "ec_hz": 0.3e9}] * 2,
                                    "coupling": {"c12_farads": 20e-15}}))
        with pytest.warns(UserWarning, match="two-node"):
            load_circuit_file(str(path))

    def test_circuit_beyond_the_levels_range_exit_code(self, tmp_path, capsys):
        # E_J/E_C = 2e4 once swept with omega01 = 1.02e12 Hz, not 7.98e10
        circuit = tmp_path / "c.json"
        circuit.write_text(json.dumps({
            "qubits": [{"ej_sum_hz": 18e9, "ec_hz": 0.28e9},
                       {"ej_sum_hz": 4e12, "ec_hz": 200e6}],
            "coupling": {"c12_farads": 5e-15}}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"circuit": str(circuit), "delta_hz": [0.5e9, 2e9]}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "zz.csv"), "zz-sweep"]) == 2
        err = capsys.readouterr().err
        assert "c.json:qubits[1]: E_J/E_C = 2e+04 > 4000" in err and "Traceback" not in err

    def test_no_bare_cross_kerr_at_bilinear_order(self, tmp_path):
        # every ZZ comes through g: an uncoupled circuit file sweeps to zeta = 0
        circuit = tmp_path / "c.json"
        circuit.write_text(json.dumps({
            "qubits": [{"ej_sum_hz": 18e9, "ec_hz": 0.28e9},
                       {"ej_sum_hz": 23e9, "ec_hz": 0.31e9}],
            "coupling": {"c12_farads": 0.0}}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"circuit": str(circuit), "delta_hz": [-1e9, 0.5e9, 2e9]}))
        out = str(tmp_path / "zz.csv")
        assert main(["--config", str(cfg), "--out", out, "zz-sweep"]) == 0
        for row in read_zz_sweep_csv(out):
            assert row["zeta_exact_hz"] == pytest.approx(0.0, abs=1e-5)
