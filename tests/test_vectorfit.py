import numpy as np
import pytest

from zzkit import FosterMode, RationalFit, foster_from_fit, vector_fit
from zzkit.circuit import foster_impedance
from zzkit.errors import FitDivergedError, NonPhysicalModeError


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
