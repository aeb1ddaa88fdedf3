import json
from dataclasses import asdict
from importlib import resources

import pytest

from zzkit import transmon_spectrum
from zzkit.errors import ConfigError
from zzkit.fixtures import load_fixture


class TestChip1Integrity:
    def test_sweet_spot_frequencies_reproduced(self, chip1):
        # back-solved E_J, E_C, d reproduce the recorded sweet-spot table
        targets = {"Q1": (9.197e9, 6.270e9), "Q2": (6.348e9, 4.200e9)}
        for q in chip1.qubits:
            uss = transmon_spectrum(q.transmon(0.0)).omega01_hz
            lss = transmon_spectrum(q.transmon(0.5)).omega01_hz
            assert abs(uss - targets[q.label][0]) < 1e6
            assert abs(lss - targets[q.label][1]) < 1e6

    def test_anharmonicity_reproduced_at_pinned_flux(self, chip1):
        for q in chip1.qubits:
            s = transmon_spectrum(q.transmon(q.alpha_flux_phi0))
            assert abs(s.anharmonicity_hz - q.alpha_hz) < 2e6

    def test_backsolved_asymmetry_near_reported(self, chip1):
        # the flux-curve fit of the experiment quotes 0.481 / 0.475
        assert chip1.qubits[0].asymmetry_d == pytest.approx(0.481, abs=0.01)
        assert chip1.qubits[1].asymmetry_d == pytest.approx(0.475, abs=0.02)

    def test_design_capacitance_reproduces_estimated_j(self, chip1):
        # g(C12 design) at the 6.27 GHz crossing lands near the 240 MHz estimate
        g = chip1.g_at(6.27e9, 6.27e9, effective=False)
        assert g == pytest.approx(240e6, rel=0.05)

    def test_effective_capacitance_reproduces_measured_splitting(self, chip1):
        g = chip1.g_at(6.27e9, 6.27e9, effective=True)
        assert 2 * g == pytest.approx(491e6, rel=1e-9)

    def test_blockade_point_values(self, chip1):
        bp = chip1.blockade_point
        assert bp["zeta_hz"] == 19e6
        assert bp["omega1_hz"] == 6.307e9


class TestChip2Integrity:
    def test_sweet_spot_reproduced(self, chip2):
        for q, (w, a) in zip(chip2.qubits, ((7.9104e9, -324e6), (5.5667e9, -288e6))):
            s = transmon_spectrum(q.transmon(0.0))
            assert abs(s.omega01_hz - w) < 1e6
            assert abs(s.anharmonicity_hz - a) < 2e6

    def test_beta_table_zeta(self, chip2):
        assert chip2.beta.zeta_hz == pytest.approx(4 * 5.07031322e6, rel=1e-12)


class TestFixtureLoading:
    def test_unknown_fixture_rejected(self):
        with pytest.raises(ConfigError):
            load_fixture("chip9")

    def test_every_numeric_field_has_provenance(self, chip1, chip2):
        for fx in (chip1, chip2):
            for q in fx.qubits:
                for key in ("omega_uss_hz", "alpha_hz", "ej_sum_hz", "ec_hz",
                            "asymmetry_d", "t1_s", "t2_star_s", "t2_echo_s"):
                    assert key in q.provenance, (fx.name, q.label, key)

    def test_qubits_keep_the_recorded_values(self, chip1, chip2):
        # every QubitFixture field is the file's value; the file records more
        for fx in (chip1, chip2):
            raw = json.loads(resources.files("zzkit.data").joinpath(f"{fx.name}.json").read_text())
            for q, recorded in zip(fx.qubits, raw["qubits"], strict=True):
                kept = asdict(q)
                assert kept == {k: recorded[k] for k in kept}
                assert set(recorded) - set(kept) == {"asymmetry_d_reported"}

    def test_relaxation_fit_values(self, chip1, chip2):
        assert chip1.relaxation_fit["t1_decay_s"] == 7.35e-6
        assert chip1.relaxation_fit["t1_recovery_s"] == 9.57e-6
        assert chip2.relaxation_fit["t1_decay_s"] == 3.1e-6
