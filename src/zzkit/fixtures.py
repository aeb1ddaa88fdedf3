"""Shipped device fixtures and their loaders.

Fixture files record measured device parameters together with a provenance
note for every numeric field: "paper-table" and "paper-text" values are taken
verbatim from the device characterization, "back-solved" values (junction
energies, charging energies, asymmetries, the effective coupling capacitance)
are inverted from those so that the transmon spectrum reproduces the
recorded sweet-spot frequencies and anharmonicities exactly.

The effective coupling capacitance is chosen so that the capacitive coupling
model reproduces the measured minimum splitting 2J at the qubit-qubit
crossing; the design capacitance is kept alongside for comparison.
"""

import json
from dataclasses import dataclass, fields
from importlib import resources

from .circuit import Coupling, SquidSpec, TransmonSpec
from .errors import ConfigError
from .spectrum import PauliDecomposition

FIXTURE_NAMES = ("chip1", "chip2")


@dataclass(frozen=True)
class QubitFixture:
    label: str
    omega_uss_hz: float
    omega_lss_hz: float          # None when only one sweet-spot was characterized
    alpha_hz: float
    alpha_flux_phi0: float
    ej_sum_hz: float
    ec_hz: float
    asymmetry_d: float
    default_flux_phi0: float
    t1_s: float
    t2_star_s: float
    t2_echo_s: float
    provenance: dict

    def transmon(self, flux_phi0=None):
        flux = self.default_flux_phi0 if flux_phi0 is None else flux_phi0
        return TransmonSpec(SquidSpec(self.ej_sum_hz, self.asymmetry_d, flux), self.ec_hz)


@dataclass(frozen=True)
class DeviceFixture:
    name: str
    qubits: tuple
    coupling_data: dict
    blockade_point: dict
    relaxation_fit: dict
    beta: PauliDecomposition

    def coupling(self, effective=True):
        """Capacitive coupling with the back-solved (or design) C12."""
        key = "c12_eff_farads" if effective else "c12_design_farads"
        return Coupling.capacitive(self.coupling_data[key],
                                   self.qubits[0].ec_hz, self.qubits[1].ec_hz)

    def g_at(self, omega1_hz, omega2_hz, effective=True):
        return self.coupling(effective).g_at(omega1_hz, omega2_hz)


def _require_provenance(record, context):
    prov = record.get("provenance", {})
    for key, value in record.items():
        if key in ("provenance", "label", "description"):
            continue
        if isinstance(value, (int, float)) and value is not None and key not in prov:
            raise ConfigError(f"{context}: field {key!r} lacks a provenance note")


def load_fixture(name):
    """Load a shipped fixture ("chip1" or "chip2") by name."""
    if name not in FIXTURE_NAMES:
        raise ConfigError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    raw = json.loads(
        resources.files("zzkit.data").joinpath(f"{name}.json").read_text())
    qubits = []
    for q in raw["qubits"]:
        _require_provenance(q, f"{name}:{q['label']}")
        # the file also records fields QubitFixture does not keep (asymmetry_d_reported)
        qubits.append(QubitFixture(**{f.name: q[f.name] for f in fields(QubitFixture)}))
    _require_provenance(raw["coupling"], f"{name}:coupling")
    _require_provenance(raw["blockade_point"], f"{name}:blockade_point")
    _require_provenance(raw["relaxation_fit"], f"{name}:relaxation_fit")
    return DeviceFixture(
        name=raw["name"],
        qubits=tuple(qubits),
        coupling_data=raw["coupling"],
        blockade_point=raw["blockade_point"],
        relaxation_fit=raw["relaxation_fit"],
        beta=PauliDecomposition(raw["beta_hz"]),
    )
