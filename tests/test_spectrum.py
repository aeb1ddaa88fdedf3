from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzkit import (
    Coupling,
    KerrParams,
    PauliDecomposition,
    conditional_frequencies,
    diagonalize_and_label,
    pauli_decomposition,
    zeta_exact,
    zeta_perturbative,
    zeta_resonant,
    zeta_series_high_detuning,
    transmon_spectrum,
)
from zzkit.errors import (
    AmbiguousLabelError,
    DomainError,
    NoCrossingError,
    TruncationError,
)
from zzkit.spectrum import _kerr_matrices, dressed_blocks, refine_crossing, single_excitation_scan

from conftest import crossing, make_transmon
from dense_oracle import (
    block_labeling,
    brent_crossing,
    computational_energies,
    dense_hamiltonian,
    dense_labeling,
    kerr_matrices_loop,
    schrieffer_wolff_shifts,
)

CHIP1_BETA5 = 3.81259047e6


def kerr(w1=6.27e9, w2=4.27e9, a1=-351e6, a2=-312e6, g=0.2e9, chi=0.0):
    return KerrParams(np.array([w1, w2]), np.array([a1, a2]),
                      np.zeros((2, 2)), exchange_g_hz=g, bare_cross_kerr_chi_hz=chi)


def assert_same_labeling(spec, want):
    """The same labels and ambiguous set, and energies within rel 1e-10 / abs 1e-4 Hz."""
    assert list(spec.energies) == list(want.energies)
    assert spec.ambiguous == want.ambiguous
    for lab, energy in want.energies.items():
        assert spec.energies[lab] == pytest.approx(energy, rel=1e-10, abs=1e-4), lab


class TestBuildHamiltonian:
    def test_two_excitation_matrix_element(self):
        params = kerr(g=0.123e9)
        ham = dense_hamiltonian(params, (3, 3), None)
        i20 = ham.basis_labels.index((2, 0))
        i11 = ham.basis_labels.index((1, 1))
        assert ham.matrix[i20, i11] == pytest.approx(np.sqrt(2) * 0.123e9, rel=1e-14)

    def test_uncoupled_is_diagonal(self):
        ham = dense_hamiltonian(kerr(g=0.0), (4, 4), None)
        assert np.max(np.abs(ham.matrix - np.diag(np.diag(ham.matrix)))) == 0.0

    def test_harmonic_spectrum_is_additive(self):
        params = kerr(a1=0.0, a2=0.0, g=0.0)
        ham = dense_hamiltonian(params, (4, 4), None)
        w1, w2 = params.mode_freqs_hz
        want = sorted(w1 * i + w2 * j for i, j in ham.basis_labels)
        np.testing.assert_allclose(np.sort(np.diag(ham.matrix)), want, rtol=1e-15)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            diagonalize_and_label(kerr(), (1, 3), None)

    def test_eigenpair_residuals(self):
        ham = dense_hamiltonian(kerr(), (4, 4), 4)
        evals, evecs = np.linalg.eigh(ham.matrix)
        scale = np.linalg.norm(ham.matrix, 2)
        res = np.linalg.norm(ham.matrix @ evecs - evecs * evals, axis=0)
        assert np.max(res) <= 1e-10 * scale


class TestKerrMatrices:
    """The index-table build against the per-label loop it replaced, bit for bit."""

    SCALES = (7e9, 5e9, 4e8, 4e8, 2e7, 3e8)      # w1, w2, a1, a2, chi, g

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_the_loop(self, data):
        # an N block of levels up to (20, 20), or a whole truncation with a cap
        levels = data.draw(st.tuples(st.integers(1, 20), st.integers(1, 20)))
        if data.draw(st.booleans()):
            n = data.draw(st.integers(0, sum(levels) - 2))
            labels = [(i, n - i) for i in range(n + 1) if i < levels[0] and n - i < levels[1]]
        else:
            cap = data.draw(st.integers(0, sum(levels) - 2))
            labels = [(i, j) for i in range(levels[0]) for j in range(levels[1]) if i + j <= cap]
        # w1's shape sets the stack's; each other parameter is a scalar or of that shape
        shape = data.draw(st.sampled_from([(), (1,), (7,), (30,)]))
        scalar = data.draw(st.lists(st.booleans(), min_size=5, max_size=5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        params = [rng.uniform(-self.SCALES[0], self.SCALES[0], shape)]
        params += [rng.uniform(-s, s) if flat else rng.uniform(-s, s, shape)
                   for s, flat in zip(self.SCALES[1:], scalar)]
        h = _kerr_matrices(labels, *params)
        assert h.shape == shape + (len(labels), len(labels))
        assert np.array_equal(h, kerr_matrices_loop(labels, *params))

    def test_python_floats_and_zero_frequencies(self):
        # Python scalars, and w1 = -0.0 and w2 = 0, whose products keep their signs
        labels = [(0, 2), (1, 1), (2, 0)]
        for params in ((6.27e9, 4.27e9, -351e6, -312e6, 3e6, 0.2e9),
                       (-0.0, 0.0, -351e6, 0.0, -3e6, -0.2e9)):
            h, want = _kerr_matrices(labels, *params), kerr_matrices_loop(labels, *params)
            assert h.shape == (3, 3) and np.array_equal(h, want)
            assert np.array_equal(np.signbit(h), np.signbit(want))


class TestLabeling:
    def test_uncoupled_labels_are_exact(self):
        spec = diagonalize_and_label(kerr(g=0.0))
        assert all(ov == pytest.approx(1.0) for ov in spec.overlaps.values())
        assert spec.energies[(1, 0)] == pytest.approx(6.27e9)
        assert not spec.ambiguous

    def test_dispersive_lamb_shift(self):
        # E_10 shifts by ~ g^2 / Delta for small g/Delta
        delta, g = 2.0e9, 0.02e9
        spec = diagonalize_and_label(kerr(w2=6.27e9 - delta, g=g), (3, 3), None)
        shift = spec.energies[(1, 0)] - 6.27e9
        assert shift == pytest.approx(g**2 / delta, rel=0.05)

    def test_resonant_hybridization_flagged(self):
        spec = diagonalize_and_label(kerr(w2=6.27e9, g=0.2e9))
        assert (1, 0) in spec.ambiguous and (0, 1) in spec.ambiguous
        assert spec.overlaps[(1, 0)] == pytest.approx(0.5, abs=1e-6)

    # transmon-like modes below the 2:1 resonance w1 = 2 w2, where |10> would meet
    # |02> across blocks and the dense eigh mix them; with g >= 20 MHz even the
    # fifth-order splitting of |05>, |50> at equal modes is far above rounding
    @given(w=st.tuples(st.floats(4.5e9, 7.5e9), st.floats(4.5e9, 7.5e9)),
           alpha=st.tuples(st.floats(-400e6, -100e6), st.floats(-400e6, -100e6)),
           g=st.floats(20e6, 300e6), chi=st.floats(-20e6, 20e6),
           levels=st.tuples(st.integers(2, 6), st.integers(2, 6)),
           cap=st.one_of(st.none(), st.integers(0, 10)))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_blocks_match_dense_labeling(self, w, alpha, g, chi, levels, cap):
        # equal modes (drawn at the bounds) hybridize degenerate pairs such as
        # |12>, |21> half and half, and every assignment of such a pair is
        # optimal: so the optimum, the labels above 1/2 overlap and each
        # block's energies are compared
        params = kerr(*w, *alpha, g=g, chi=chi)
        spec = diagonalize_and_label(params, levels, cap)
        ham = dense_hamiltonian(params, levels, cap)
        # the blocks built from the Kerr parameters are the dense matrix's blocks
        assert spec == block_labeling(ham)
        want, _ = dense_labeling(ham)
        assert list(spec.energies) == list(want.energies)
        assert sum(spec.overlaps.values()) == pytest.approx(sum(want.overlaps.values()),
                                                            abs=1e-6)
        for lab, overlap in want.overlaps.items():
            if overlap > 0.5 + 1e-6:
                assert lab not in spec.ambiguous
                assert spec.energies[lab] == pytest.approx(want.energies[lab], rel=1e-10,
                                                           abs=1e-4), lab
        for n in {i + j for i, j in ham.basis_labels}:
            block = [lab for lab in ham.basis_labels if sum(lab) == n]
            np.testing.assert_allclose(sorted(spec.energies[lab] for lab in block),
                                       sorted(want.energies[lab] for lab in block),
                                       rtol=1e-10, atol=1e-4)


    def test_negative_cap_keeps_no_state(self):
        # no state has n1 + n2 < 0: the spectrum is empty, and zeta names a missing label
        spec = diagonalize_and_label(kerr(), (4, 4), -1)
        assert spec.energies == {} and spec.basis_labels == () and not spec.ambiguous
        with pytest.raises(AmbiguousLabelError, match="missing"):
            zeta_exact(spec)


class TestZetaExact:
    def test_uncoupled_zero(self):
        assert zeta_exact(diagonalize_and_label(kerr(g=0.0))) == pytest.approx(0.0, abs=1e-6)

    def test_harmonic_exchange_is_additive(self):
        spec = diagonalize_and_label(kerr(a1=0.0, a2=0.0, g=0.3e9), (5, 5), None)
        assert abs(zeta_exact(spec)) <= 1e-9 * 6.27e9

    def test_chip1_two_gigahertz_point(self, chip1):
        q1f, q2f = chip1.qubits
        w1 = 6.270e9
        w2 = w1 - 2.0e9
        g = chip1.g_at(w1, w2)
        spec = diagonalize_and_label(kerr(w1=w1, w2=w2, g=g))
        zeta = zeta_exact(spec)
        assert 10e6 <= abs(zeta) <= 25e6
        assert zeta < 0

    def test_ambiguous_raises_then_resonant_convention(self):
        spec = diagonalize_and_label(kerr(w2=6.27e9, g=0.2455e9), (4, 4), None)
        with pytest.raises(AmbiguousLabelError):
            zeta_exact(spec)
        zres = zeta_resonant(spec)
        # symmetric point: E11-like level repelled upward by ~ sqrt(a^2/4 + 4g^2)
        assert zres > 0.25e9

    def test_bare_cross_kerr_additivity(self):
        # in the deeply dispersive regime the explicit -chi n1 n2 term adds -chi
        base = kerr(g=0.3e6)
        chi = 5e6
        z0 = zeta_exact(diagonalize_and_label(base))
        z1 = zeta_exact(diagonalize_and_label(replace(base, bare_cross_kerr_chi_hz=chi)))
        assert (z1 - z0) == pytest.approx(-chi, rel=1e-6)

    def test_truncation_convergence(self, chip1):
        w1, w2 = 6.27e9, 4.27e9
        g = chip1.g_at(w1, w2)
        z33 = zeta_exact(diagonalize_and_label(kerr(g=g), (3, 3), None))
        z55 = zeta_exact(diagonalize_and_label(kerr(g=g), (5, 5), None))
        assert abs(z33 - z55) / abs(z55) < 1e-3


class TestDressedBlocks:
    """The stacked N <= 2 block core against the dense labeled spectrum."""

    W1, A1, A2 = 6.27e9, -351e6, -312e6
    # through both sides of resonance (delta = 0) and the |alpha1| pole, with
    # both points hit exactly
    DELTAS = np.concatenate([np.linspace(-1.2e9, 2.2e9, 341), [0.0, 351e6, -312e6]])

    def dense(self, delta, g, levels, cap, chi=0.0):
        """The dense oracle's zeta, flags and one-excitation pair.

        diagonalize_and_label must give the oracle's labels, flags and energies.
        """
        params = kerr(w1=self.W1, w2=self.W1 - delta, a1=self.A1, a2=self.A2, g=g, chi=chi)
        spec, pair = dense_labeling(dense_hamiltonian(params, levels, cap))
        assert_same_labeling(diagonalize_and_label(params, levels, cap), spec)
        try:
            zeta = zeta_exact(spec)
        except AmbiguousLabelError:
            zeta = zeta_resonant(spec)
        flags = [lab in spec.ambiguous for lab in ((0, 1), (1, 0), (1, 1))]
        return zeta, flags, pair

    # (10, 10): blocks of up to 10 states take _assign's Hungarian branch
    @pytest.mark.parametrize("levels,cap", [((4, 4), 4), ((3, 3), None), ((5, 5), 3),
                                            ((6, 6), None), ((2, 3), 2), ((2, 2), None),
                                            ((10, 10), None)])
    def test_matches_dense_labeling(self, levels, cap):
        g = 0.02 * np.sqrt(self.W1 * (self.W1 - self.DELTAS))
        zetas, pairs, ambiguous = dressed_blocks(self.W1, self.W1 - self.DELTAS, self.A1,
                                                 self.A2, g, 0.0, levels, cap)
        assert zetas.shape == self.DELTAS.shape
        for k, delta in enumerate(self.DELTAS):
            zeta, flags, pair = self.dense(delta, g[k], levels, cap)
            assert zetas[k] == pytest.approx(zeta, rel=1e-10, abs=1e-4), delta
            assert list(ambiguous[k]) == flags, delta
            np.testing.assert_allclose(pairs[k], pair, rtol=1e-14)
        # the resonance flags both one-excitation labels; where |11> meets |20>
        # (near the pole) or |02>, (1, 1) is flagged too, unless the truncation
        # keeps neither
        assert ambiguous[-3, :2].all()
        assert ambiguous[:, 2].any() == (levels != (2, 2))

    def test_cross_kerr_and_scalar_broadcast(self):
        zeta, flags, _ = self.dense(1.3e9, 0.21e9, (4, 4), 4, chi=3e6)
        zetas, pairs, ambiguous = dressed_blocks(self.W1, self.W1 - 1.3e9, self.A1, self.A2,
                                                 0.21e9, 3e6)
        assert zetas.shape == (1,) and pairs.shape == (1, 2)
        assert zetas[0] == pytest.approx(zeta, rel=1e-10)
        assert list(ambiguous[0]) == flags

    def test_truncation_errors_match_dense(self):
        with pytest.raises(TruncationError):
            dressed_blocks(self.W1, 4.27e9, self.A1, self.A2, 0.1e9, 0.0, (1, 3))
        for cap in (0, 1):
            with pytest.raises(AmbiguousLabelError):
                zeta_exact(diagonalize_and_label(kerr(), (4, 4), cap))
            with pytest.raises(AmbiguousLabelError, match="missing"):
                dressed_blocks(self.W1, 4.27e9, self.A1, self.A2, 0.1e9, 0.0, (4, 4), cap)

    def test_flux_scan_pairs_match_dense(self, chip1):
        q1 = chip1.qubits[0].transmon(0.5)
        q2 = chip1.qubits[1].transmon()
        fluxes = np.linspace(-0.2, -0.01, 9)
        s1 = transmon_spectrum(q1)
        omega2, pairs = single_excitation_scan(s1, q2, chip1.coupling(), fluxes)
        for flux, w2, pair in zip(fluxes, omega2, pairs):
            # the oracle: one scalar transmon_spectrum per flux
            s2 = transmon_spectrum(q2.at_flux(flux))
            params = KerrParams(
                np.array([s1.omega01_hz, s2.omega01_hz]),
                np.array([s1.anharmonicity_hz, s2.anharmonicity_hz]), np.zeros((2, 2)),
                exchange_g_hz=chip1.g_at(s1.omega01_hz, s2.omega01_hz))
            assert w2 == params.mode_freqs_hz[1]
            want = diagonalize_and_label(params, (3, 3), None).single_excitation_energies()
            np.testing.assert_allclose(pair, want, rtol=1e-14)


class TestZetaPerturbative:
    def test_zero_coupling_and_chi(self):
        assert zeta_perturbative(0.0, 2e9, 351e6, 312e6) == 0.0

    def test_harmonic_terms_cancel(self):
        for delta in (0.7e9, 1.5e9, 3e9):
            assert zeta_perturbative(0.2e9, delta, 0.0, 0.0) == pytest.approx(0.0)

    def test_hand_evaluated_point(self):
        # 2 g^2 [1/(D+|a2|) - 1/(D-|a1|)] at the quoted device parameters
        zeta = zeta_perturbative(240e6, 2.0e9, 351e6, 312e6)
        assert zeta == pytest.approx(-20.0e6, rel=0.005)

    def test_pole_guard(self):
        # a guarded point is NaN, an empty zz-sweep cell
        assert np.isnan(zeta_perturbative(0.1e9, 351.5e6, 351e6, 312e6))

    @pytest.mark.parametrize("delta", [-312.0e6, -312.5e6, -311.2e6])
    def test_second_pole_guarded(self, delta):
        # |11> meets |02> at delta = -|alpha2|: guarded like delta = |alpha1|,
        # in the formula and in the shift of |11>
        assert np.isnan(zeta_perturbative(0.2e9, delta, -351e6, -312e6))
        de11, de10, _ = schrieffer_wolff_shifts(0.2e9, delta, -351e6, -312e6)
        assert np.isnan(de11) and np.isfinite(de10)

    def test_just_outside_both_guards_finite(self):
        for delta in (-313.1e6, -310.9e6, 349.9e6, 352.1e6):
            assert np.isfinite(zeta_perturbative(0.2e9, delta, -351e6, -312e6))

    def test_perturbative_agreement_with_exact(self, rng):
        # dispersive draws: g/Delta <= 0.05 and Delta >= 2 max |alpha|
        worst = 0.0
        for _ in range(20):
            a1 = -rng.uniform(150e6, 400e6)
            a2 = -rng.uniform(150e6, 400e6)
            delta = rng.uniform(2 * max(abs(a1), abs(a2)), 3e9)
            g = rng.uniform(0.01, 0.05) * delta
            w1 = rng.uniform(5e9, 7e9)
            spec = diagonalize_and_label(kerr(w1=w1, w2=w1 - delta, a1=a1, a2=a2, g=g),
                           (5, 5), None)
            ze = zeta_exact(spec)
            zp = zeta_perturbative(g, delta, a1, a2)
            worst = max(worst, abs(ze - zp) / abs(ze))
        assert worst <= 0.05


class TestZetaSeries:
    def test_equal_alpha_order_two(self):
        # the 1/D^2 coefficient depends only on the summed |alpha|; the overall
        # sign follows the closed form (negative beyond the straddling regime)
        g, d, a = 0.1e9, 4e9, 300e6
        got = zeta_series_high_detuning(g, d, -a, -a, chi_bare_hz=2e6, order=2)
        assert got == pytest.approx(-2e6 - 4 * g**2 * a / d**2, rel=1e-12)

    def test_order_four_matches_closed_form(self):
        a = 300e6
        d = 10 * a
        g = 0.1e9
        series = zeta_series_high_detuning(g, d, -a, -a, order=4)
        closed = zeta_perturbative(g, d, -a, -a)
        assert abs(series - closed) / abs(closed) < 0.002

    def test_zero_coupling_gives_minus_chi(self):
        assert zeta_series_high_detuning(0.0, 4e9, -0.3e9, -0.3e9,
                                         chi_bare_hz=7e6) == pytest.approx(-7e6)

    def test_domain_guard(self):
        # outside delta > 2 max|alpha| the series is NaN, an empty zz-sweep cell
        assert np.isnan(zeta_series_high_detuning(0.1e9, 0.5e9, -0.3e9, -0.3e9))

    @pytest.mark.parametrize("order", [1, 5])
    def test_order_outside_two_to_four_raises(self, order):
        with pytest.raises(DomainError):
            zeta_series_high_detuning(0.1e9, 4e9, -0.3e9, -0.3e9, order=order)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestFormulasOnArrays:
    """Each formula on a grid gives its scalar calls' values bit for bit, NaN exactly
    at the guarded points."""

    A1, A2 = -351e6, -312e6

    @pytest.fixture
    def grid(self, rng):
        # a dense detuning grid through both poles and the series' domain edge,
        # with the poles and edge themselves and points just inside each guard
        deltas = np.concatenate([rng.uniform(-1.5e9, 3e9, 400),
                                 [351e6, 351.9e6, -312e6, -312.9e6, 702e6, 702.1e6]])
        return deltas, rng.uniform(1e6, 300e6, deltas.size)

    def test_perturbative(self, grid):
        deltas, g = grid
        got = zeta_perturbative(g, deltas, self.A1, self.A2, chi_bare_hz=1e5)
        scalar = [zeta_perturbative(float(gk), float(dk), self.A1, self.A2, chi_bare_hz=1e5)
                  for gk, dk in zip(g, deltas)]
        np.testing.assert_array_equal(_bits(got), _bits(scalar))
        guarded = ((np.abs(deltas - 351e6) < 1e6) | (np.abs(deltas + 312e6) < 1e6))
        np.testing.assert_array_equal(np.isnan(got), guarded)
        assert guarded.sum() >= 4

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_series(self, grid, order):
        deltas, g = grid
        got = zeta_series_high_detuning(g, deltas, self.A1, self.A2, order=order)
        scalar = [zeta_series_high_detuning(float(gk), float(dk), self.A1, self.A2, order=order)
                  for gk, dk in zip(g, deltas)]
        np.testing.assert_array_equal(_bits(got), _bits(scalar))
        np.testing.assert_array_equal(np.isnan(got), deltas <= 702e6)

    def test_schrieffer_wolff(self, grid):
        deltas, g = grid
        got = np.array(schrieffer_wolff_shifts(g, deltas, self.A1, self.A2))
        scalar = np.array([schrieffer_wolff_shifts(float(gk), float(dk), self.A1, self.A2)
                           for gk, dk in zip(g, deltas)]).T
        np.testing.assert_array_equal(_bits(got), _bits(scalar))
        np.testing.assert_array_equal(np.isnan(got[0]), np.isnan(
            zeta_perturbative(g, deltas, self.A1, self.A2)))


class TestSchriefferWolff:
    def test_single_excitation_shifts_cancel(self):
        _, de10, de01 = schrieffer_wolff_shifts(0.1e9, 1.7e9, 351e6, 312e6)
        assert de10 + de01 == 0.0

    def test_zero_coupling(self):
        assert schrieffer_wolff_shifts(0.0, 1e9, 0.3e9, 0.3e9) == (0.0, 0.0, 0.0)

    def test_hand_value(self):
        _, de10, _ = schrieffer_wolff_shifts(50e6, 1.0e9, 0.3e9, 0.3e9)
        assert de10 == pytest.approx(2.5e6, rel=1e-12)

    def test_identity_with_perturbative_zeta(self):
        g, d, a1, a2 = 0.12e9, 1.9e9, 351e6, 312e6
        de11, de10, de01 = schrieffer_wolff_shifts(g, d, a1, a2)
        assert de11 - de10 - de01 == pytest.approx(
            zeta_perturbative(g, d, a1, a2), rel=1e-14)


class TestPauliDecomposition:
    def test_chip1_beta_table_zeta(self, chip1):
        assert chip1.beta.zeta_hz == pytest.approx(4 * CHIP1_BETA5, rel=1e-12)
        assert chip1.beta.zeta_hz == pytest.approx(15.25e6, rel=1e-4)

    def test_flat_energies_give_zero_betas(self):
        spec = diagonalize_and_label(kerr(g=0.0))
        flat = {lab: 1.0e9 for lab in spec.energies}
        flat_spec = type(spec)(
            energies=flat, overlaps=spec.overlaps, ambiguous=frozenset(),
            basis_labels=spec.basis_labels)
        decomp = pauli_decomposition(flat_spec)
        assert decomp.beta_hz[1] == decomp.beta_hz[4] == decomp.beta_hz[5] == 0.0

    @given(e=st.lists(st.floats(-1e10, 1e10, allow_nan=False), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_energies(self, e):
        beta = np.zeros(6)
        e00, e01, e10, e11 = e
        beta[0] = (e00 + e01 + e10 + e11) / 4
        beta[1] = (e00 - e01 + e10 - e11) / 4
        beta[4] = (e00 + e01 - e10 - e11) / 4
        beta[5] = (e00 - e01 - e10 + e11) / 4
        back = computational_energies(PauliDecomposition(beta))
        for lab, val in zip(((0, 0), (0, 1), (1, 0), (1, 1)), e):
            assert back[lab] == pytest.approx(val, abs=1e-5 * max(1.0, abs(val)))

    def test_decomposition_from_spectrum_round_trip(self, chip1):
        g = chip1.g_at(6.27e9, 4.27e9)
        spec = diagonalize_and_label(kerr(g=g))
        decomp = pauli_decomposition(spec, j_dressed_hz=g)
        back = computational_energies(decomp)
        for lab in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert back[lab] == pytest.approx(spec.energies[lab], abs=1e-3)
        assert decomp.zeta_hz == pytest.approx(zeta_exact(spec), abs=1e-3)
        assert decomp.beta_hz[2] == decomp.beta_hz[3] == g / 2

    def test_conditional_splitting_equals_zeta(self, rng):
        betas = rng.uniform(-1e9, 1e9, size=(1000, 6))
        for b in betas:
            d = PauliDecomposition(b)
            w10, w11, w20, w21 = conditional_frequencies(d)
            assert w11 - w10 == pytest.approx(4 * b[5], rel=1e-12, abs=1e-3)
            assert w21 - w20 == pytest.approx(4 * b[5], rel=1e-12, abs=1e-3)

    def test_zero_beta5_no_splitting(self):
        d = PauliDecomposition([1e9, 2e8, 1e6, 1e6, 3e8, 0.0])
        w10, w11, w20, w21 = conditional_frequencies(d)
        assert w11 - w10 == 0.0 and w21 - w20 == 0.0


class TestAvoidedCrossing:
    def test_fixed_g_recovers_exchange_rate(self):
        # with a flux-independent coupling the two-state gap minimum is 2g
        q1 = make_transmon(36.65e9, 0.309e9, d=0.48, flux=0.5)
        q2 = make_transmon(20.93e9, 0.262e9, d=0.458, flux=0.0)
        g = 0.2455e9
        j, flux_min = crossing(q1, q2, Coupling.fixed(g), np.linspace(-0.2, -0.01, 25))
        assert j == pytest.approx(g, rel=1e-6)
        assert -0.12 < flux_min < -0.05

    def test_chip1_capacitive_coupling(self, chip1):
        q1 = chip1.qubits[0].transmon(0.5)
        q2 = chip1.qubits[1].transmon()
        j, flux_min = crossing(q1, q2, chip1.coupling(), np.linspace(-0.2, -0.01, 25))
        assert 2 * j == pytest.approx(491e6, rel=0.05)
        assert flux_min == pytest.approx(-0.1, abs=0.02)

    # the stacked zoom against bounded Brent on one scalar flux at a time, from
    # coarse to fine grids: within 1e-3 Hz and 1e-6 flux quanta, and 1e-5 Hz
    # and 1e-7 on the 400-point grids
    @pytest.mark.parametrize("num", [5, 41, 400])
    @pytest.mark.parametrize("span", [(-0.16, -0.02), (-0.12, -0.05), (-0.10, -0.07)])
    def test_zoom_matches_brent(self, chip1, span, num):
        q1f, q2f = chip1.qubits
        q1, q2 = q1f.transmon(float(q1f.default_flux_phi0)), q2f.transmon()
        fluxes = np.linspace(*span, num)
        s1 = transmon_spectrum(q1)
        _, pairs = single_excitation_scan(s1, q2, chip1.coupling(), fluxes)
        gaps = pairs[:, 1] - pairs[:, 0]
        j, flux_min = refine_crossing(s1, q2, chip1.coupling(), fluxes, gaps)
        want_j, want_flux = brent_crossing(s1, q2, chip1.coupling(), fluxes, gaps)
        fine = num == 400
        assert j == pytest.approx(want_j, rel=0, abs=1e-5 if fine else 1e-3)
        assert flux_min == pytest.approx(want_flux, rel=0, abs=1e-7 if fine else 1e-6)

    def test_no_crossing_raises(self, chip1):
        q1 = chip1.qubits[0].transmon(0.5)
        q2 = chip1.qubits[1].transmon()
        with pytest.raises(NoCrossingError):
            crossing(q1, q2, chip1.coupling(), np.linspace(0.3, 0.45, 10))


class TestMonotonicTrend:
    def test_chip1_zeta_magnitude_decreases_with_detuning(self, chip1):
        deltas = np.linspace(0.6e9, 2.4e9, 7)
        mags = []
        for d in deltas:
            w2 = 6.27e9 - d
            g = chip1.g_at(6.27e9, w2)
            mags.append(abs(zeta_exact(diagonalize_and_label(kerr(w2=w2, g=g)))))
        assert np.all(np.diff(mags) < 0)
