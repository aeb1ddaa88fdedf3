import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vectorfit_oracle as oracle
from zzkit import FosterMode, RationalFit, foster_from_fit, vector_fit
from zzkit import vectorfit
from zzkit.circuit import foster_impedance
from zzkit.cli import main
from zzkit.errors import FitDivergedError, IllConditionedError, NonPhysicalModeError
from zzkit.io import ADMITTANCE_HEADER, write_csv


def lc_mode(freq_hz, z_ohms=100.0, r_ohms=np.inf):
    omega = 2 * np.pi * freq_hz
    c = 1.0 / (z_ohms * omega)
    return FosterMode(z_ohms / omega, c, r_ohms)


def sample_grid(f_lo, f_hi, n=600):
    return 2 * np.pi * np.linspace(f_lo, f_hi, n)


class TestVectorFit:
    def test_single_lossless_mode_pole_recovery(self):
        mode = lc_mode(6.0e9)
        omegas = sample_grid(1e9, 12e9)
        z = foster_impedance([mode], omegas)
        fit = vector_fit((omegas, z), n_poles=2)
        freqs = np.abs(fit.poles.imag)
        assert np.max(np.abs(freqs - mode.omega_rad_s) / mode.omega_rad_s) < 1e-6
        assert np.all(fit.poles.real <= 1e-9 * np.abs(fit.poles))

    def test_two_separated_modes(self):
        modes = [lc_mode(3.0e9), lc_mode(9.0e9, z_ohms=60.0)]
        omegas = sample_grid(0.5e9, 14e9, 800)
        z = foster_impedance(modes, omegas)
        fit = vector_fit((omegas, z), n_poles=4)
        got = np.sort(np.unique(np.round(np.abs(fit.poles), 3)))
        want = np.sort([m.omega_rad_s for m in modes])
        # each true mode matched within 1e-6 relative
        for w in want:
            assert np.min(np.abs(got - w)) / w < 1e-6

    def test_noise_floor(self, rng):
        mode = lc_mode(5.0e9)
        omegas = sample_grid(1e9, 10e9)
        z = foster_impedance([mode], omegas)
        z = z * (1.0 + 1e-8 * rng.standard_normal(len(z)))
        fit = vector_fit((omegas, z), n_poles=2)
        assert fit.fit_error <= 1e-6

    def test_needs_enough_samples(self):
        omegas = sample_grid(1e9, 10e9, n=7)
        z = np.ones(7, dtype=complex)
        with pytest.raises(ValueError, match="samples"):
            vector_fit((omegas, z), n_poles=2)

    def test_diverged_fit_raises(self):
        # three sharp resonances cannot be represented by a single real pole:
        # no relocation round improves on the first
        modes = [lc_mode(2e9), lc_mode(5e9), lc_mode(8e9)]
        omegas = sample_grid(1e9, 10e9, 200)
        z = foster_impedance(modes, omegas)
        with pytest.raises(FitDivergedError):
            vector_fit((omegas, z), n_poles=1)

    def test_passivity_invariant_enforced(self):
        with pytest.raises(ValueError, match="passive"):
            RationalFit(np.array([1e9 + 2e9j, 1e9 - 2e9j]),
                        np.array([1.0 + 0j, 1.0 - 0j]), 0.0, 0.0)

    # a real pole has imaginary part exactly 0; a pair is upper pole, then its exact conjugate
    @pytest.mark.parametrize("poles", [
        [-1e6 + 2e9j],
        [-1e7 + 0j, -1e6 + 2e9j],
        [-1e6 - 2e9j, -1e6 + 2e9j],
        [-1e6 + 2e9j, -1e7 + 0j, -1e6 - 2e9j],
        [-1e6 + 2e9j, -1e6 - 2e9j * (1 + 1e-15)],
    ], ids=["lone-complex-pole", "lone-after-a-real-pole", "lower-pole-first", "pair-apart",
            "near-conjugate"])
    def test_pole_layout_enforced(self, poles):
        with pytest.raises(ValueError, match="exact conjugate"):
            RationalFit(np.array(poles), np.ones(len(poles), dtype=complex), 0.0, 0.0)

    def test_pole_layout_accepted(self):
        poles = [-1e7 + 0j, -1e6 + 2e9j, -1e6 - 2e9j, -2e7 - 0j, -3e6 + 5e9j, -3e6 - 5e9j]
        fit = RationalFit(np.array(poles), np.ones(6, dtype=complex), 0.0, 0.0)
        assert fit.poles.tolist() == poles

    # the last frequency scales the problem: at 0 the scaled grid is not finite, and a
    # negative one mirrors every pole into the lower half plane, lower pole first
    @pytest.mark.parametrize("omegas", [
        np.linspace(-9e9, 0.0, 100), -2 * np.pi * np.linspace(9e9, 1e9, 100),
    ], ids=["ends-at-zero", "all-negative"])
    def test_last_frequency_must_be_positive(self, omegas):
        z = foster_impedance([lc_mode(5e9)], sample_grid(1e9, 9e9, 100))
        with pytest.raises(ValueError, match="last sample frequency must be positive"):
            vector_fit((omegas, z), n_poles=2)


class TestFosterFromFit:
    def test_exact_lossless_recovery(self):
        mode = lc_mode(4.0e9, z_ohms=85.0)
        omegas = sample_grid(1e9, 8e9)
        z = foster_impedance([mode], omegas)
        fit = vector_fit((omegas, z), n_poles=2)
        rec, = foster_from_fit(fit)
        assert rec.inductance_l == pytest.approx(mode.inductance_l, rel=1e-9)
        assert rec.capacitance_c == pytest.approx(mode.capacitance_c, rel=1e-9)
        assert rec.kappa_rad_s == 0.0

    def test_lossless_two_mode_kappas(self):
        modes = [lc_mode(3.0e9), lc_mode(7.5e9)]
        omegas = sample_grid(1e9, 12e9, 800)
        fit = vector_fit((omegas, foster_impedance(modes, omegas)), n_poles=4)
        recovered = foster_from_fit(fit)
        assert len(recovered) == 2
        assert all(m.kappa_rad_s == 0.0 for m in recovered)

    def test_kappa_from_pole_real_part(self):
        # directly construct the pole-residue form of a lossy parallel RLC
        omega0 = 2 * np.pi * 5e9
        kappa = 2 * np.pi * 2e6
        c = 80e-15
        nu = np.sqrt(omega0**2 - kappa**2 / 4)
        pole = -kappa / 2 + 1j * nu
        residue = 1.0 / (2 * c) + 1j * kappa / (4 * c * nu)
        fit = RationalFit(np.array([pole, np.conj(pole)]),
                          np.array([residue, np.conj(residue)]), 0.0, 0.0)
        mode, = foster_from_fit(fit)
        assert mode.kappa_rad_s == pytest.approx(kappa, rel=1e-9)
        assert mode.capacitance_c == pytest.approx(c, rel=1e-9)
        assert mode.omega_rad_s == pytest.approx(omega0, rel=1e-9)

    def test_nonphysical_mode_rejected(self):
        pole = -1e6 + 1j * 2 * np.pi * 5e9
        fit = RationalFit(np.array([pole, np.conj(pole)]),
                          np.array([-1.0 + 0j, -1.0 - 0j]), 0.0, 0.0)
        with pytest.raises(NonPhysicalModeError):
            foster_from_fit(fit)

    def test_roundtrip_random_networks(self, rng):
        # synthesize -> fit -> resynthesize reproduces the samples
        for _ in range(10):
            n_modes = rng.integers(1, 5)
            freqs = np.sort(rng.uniform(2e9, 12e9, n_modes))
            while np.any(np.diff(freqs) < 0.7e9):
                freqs = np.sort(rng.uniform(2e9, 12e9, n_modes))
            modes = [lc_mode(f, z_ohms=rng.uniform(40, 150)) for f in freqs]
            omegas = sample_grid(0.5e9, 15e9, 900)
            z = foster_impedance(modes, omegas)
            fit = vector_fit((omegas, z), n_poles=2 * n_modes)
            rec = foster_from_fit(fit)
            z_back = foster_impedance(rec, omegas)
            rms = np.linalg.norm(z_back - z) / np.linalg.norm(z)
            assert rms < 1e-6
            got = np.sort([m.omega_rad_s for m in rec])
            want = np.sort([m.omega_rad_s for m in modes])
            np.testing.assert_allclose(got, want, rtol=1e-6)


class TestFosterFitCommand:
    @staticmethod
    def fit_command(tmp_path, omegas):
        path = tmp_path / "y.csv"
        z = foster_impedance([lc_mode(5e9)], sample_grid(1e9, 9e9, 100))
        write_csv(path, ADMITTANCE_HEADER, [omegas, z.real, z.imag])
        return main(["--out", str(tmp_path / "f.json"), "foster-fit", str(path), "--n-poles", "2"])

    # before, the first ended in LAPACK's DLASCL warnings on stdout and an SVD message
    # naming no cause; the second exited 0 with every pole mirrored
    @pytest.mark.parametrize("omegas", [
        np.linspace(-9e9, 0.0, 100), -sample_grid(1e9, 9e9, 100)[::-1],
    ], ids=["ends-at-zero", "all-negative"])
    def test_last_frequency_not_positive_exits_2(self, tmp_path, capfd, omegas):
        assert self.fit_command(tmp_path, omegas) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert "the last sample frequency must be positive" in err
        assert not (tmp_path / "f.json").exists()

    # at 1e290 the reconstructed L overflowed a Python float power (exit 1, traceback);
    # at 1e-300 the pair's L, C and R are out of a float's range
    @pytest.mark.parametrize("scale,message", [
        (1e290, "a reconstructed L, C or R is not finite and positive"),
        (1e-300, "a reconstructed L, C or R is not finite and positive"),
    ], ids=["times-1e290", "times-1e-300"])
    def test_extreme_frequencies_exit_4(self, tmp_path, capfd, scale, message):
        assert self.fit_command(tmp_path, sample_grid(1e9, 9e9, 100) * scale) == 4
        out, err = capfd.readouterr()
        assert out == ""
        assert "NonPhysicalModeError: " in err and message in err

    # the real-pole test had an absolute floor of 1e-12 rad/s: below it, the mode's
    # pair counted as a real pole with a large residue (exit 4, "real pole")
    @pytest.mark.parametrize("scale", [1.0, 1e-22, 1e-23, 1e-30])
    def test_slow_scaled_grids_recover_the_mode(self, tmp_path, capfd, scale):
        assert self.fit_command(tmp_path, sample_grid(1e9, 9e9, 100) * scale) == 0
        assert capfd.readouterr().err == ""
        (mode,) = json.loads((tmp_path / "f.json").read_text())["modes"]
        assert mode["freq_hz"] == pytest.approx(5e9 * scale, rel=1e-9)

    # numpy's LinAlgError subclasses ValueError, so the config-error wrapper once
    # reported a solve that did not converge as a config error (exit 2)
    def test_solve_that_does_not_converge_exits_4(self, tmp_path, capfd, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", fail)
        assert self.fit_command(tmp_path, sample_grid(1e9, 9e9, 100)) == 4
        out, err = capfd.readouterr()
        assert out == ""
        assert "numeric failure: LinAlgError: SVD did not converge" in err
        assert not (tmp_path / "f.json").exists()


class TestFosterElements:
    # Python floats raise on an overflowing power and on a zero divisor; each of
    # these stages was a traceback or a mode with a NaN element before
    @pytest.mark.parametrize("pole,residue", [
        (-1e6 + 3e200j, 1.0 + 0j),          # omega**2 overflows
        (-0.0 + 2e-12j, 1e300 + 0j),        # C omega**2 underflows to 0
        (-1e-3 + 1e9j, 0.0 + 1j),           # Re residue 0
        (-1e6 + 1e9j, complex(np.nan, 0.0)),
        (-0.9 + 0.1j, 0.5 / 1.5e308 + 0j),  # C = 1.5e308: kappa C overflows, so R = 0
    ], ids=["omega-squared-overflows", "l-divisor-underflows", "zero-residue-real-part",
            "nan-residue", "r-underflows"])
    def test_non_finite_element_raises(self, pole, residue):
        fit = RationalFit(np.array([pole, np.conj(pole)]),
                          np.array([residue, np.conj(residue)]), 0.0, 0.0)
        with pytest.raises(NonPhysicalModeError, match="not finite and positive"):
            foster_from_fit(fit)


def fit_outcome(module, samples, n_poles):
    """The fit's poles, residues, direct term and error and the Foster elements, as
    bytes and hex strings, up to the first exception, which ends the list as
    (class, message)."""
    out = []
    try:
        fit = module.vector_fit(samples, n_poles)
        out += [fit.poles.tobytes(), fit.residues.tobytes(),
                float(fit.direct_term).hex(), float(fit.fit_error).hex()]
        out += [float(v).hex() for m in module.foster_from_fit(fit)
                for v in (m.inductance_l, m.capacitance_c, m.resistance_r)]
    except Exception as exc:
        out.append((type(exc), str(exc)))
    return out


MODES = st.tuples(st.floats(1e9, 14e9), st.floats(20.0, 200.0),
                  st.one_of(st.just(np.inf), st.floats(1e2, 1e7)))


class TestPairWalkingOracle:
    """vectorfit reads pairs by position; the oracle walks and searches for them."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(MODES, min_size=1, max_size=5), st.sampled_from([-1, 0, 1]),
           st.sampled_from([0.0, 1e-8]), st.integers(0, 2**32 - 1))
    def test_fits_equal_the_oracles_byte_for_byte(self, modes, extra, noise, seed):
        omegas = sample_grid(0.5e9, 15e9, 300)
        z = foster_impedance([lc_mode(f, z_ohms, r) for f, z_ohms, r in modes], omegas)
        z = z * (1.0 + noise * np.random.default_rng(seed).standard_normal(len(z)))
        n_poles = max(1, 2 * len(modes) + extra)
        got = fit_outcome(vectorfit, (omegas, z), n_poles)
        assert got == fit_outcome(oracle, (omegas, z), n_poles)

    # one network for each outcome the oracle test compares
    @pytest.mark.parametrize("modes,n_poles,raised", [
        ([(4e9, 100.0, np.inf), (9e9, 60.0, 1e5)], 4, None),
        ([(4e9, 100.0, np.inf), (9e9, 60.0, 1e5)], 3, NonPhysicalModeError),
        ([(4e9, 100.0, np.inf), (9e9, 60.0, 1e5)], 5, IllConditionedError),
        ([(2e9, 100.0, np.inf), (5e9, 100.0, np.inf), (8e9, 100.0, np.inf)], 1,
         FitDivergedError),
    ], ids=["fits", "real-pole", "rank-deficient", "diverged"])
    def test_each_outcome_equals_the_oracles(self, modes, n_poles, raised):
        omegas = sample_grid(0.5e9, 15e9, 300)
        z = foster_impedance([lc_mode(*mode) for mode in modes], omegas)
        got = fit_outcome(vectorfit, (omegas, z), n_poles)
        assert got == fit_outcome(oracle, (omegas, z), n_poles)
        assert (got[-1][0] if isinstance(got[-1], tuple) else None) is raised
