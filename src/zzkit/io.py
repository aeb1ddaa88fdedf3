"""File formats: circuit descriptions, sample files, sweep outputs.

All numeric columns are written with shortest round-trip float formatting so
reruns of a deterministic command are byte identical.  Every reader rejects
unknown keys and malformed headers with a ConfigError naming the offending
field, and every writer has a matching reader used as a schema self-test.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .circuit import (
    Coupling,
    FosterMode,
    JunctionParticipation,
    SquidSpec,
    TransmonSpec,
    effective_josephson_energy,
)
from .dynamics import DissipationSpec, ProtocolSpec, PulseSpec, check_row_stochastic
from .errors import ConfigError, StochasticityError

ZZ_SWEEP_HEADER = ["delta_hz", "zeta_exact_hz", "zeta_perturbative_hz",
                   "zeta_series_hz", "ambiguous_flag"]
BLOCKADE_HEADER = ["delay_s", "pulse_len_s", "p1_e", "p2_e"]
BLOCKADE_MEASURED = ["p1_e_measured", "p2_e_measured"]
FLUX_HEADER = ["flux_phi0", "omega1_bare_hz", "omega2_bare_hz",
               "dressed_lower_hz", "dressed_upper_hz"]
HISTORY_HEADER = ["generation", "best_zeta_hz", "n_feasible"]
ADMITTANCE_HEADER = ["freq_rad_s", "re_y", "im_y"]
RAMSEY_HEADER = ["spectator_state", "fringe_hz"]
SPECTRAL_HEADER = ["pulse_len_s", "spectral_fraction"]


def _fmt(x):
    if x is None:
        return ""
    return repr(float(x))


def _check_keys(record, allowed, context):
    unknown = set(record) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def _require(record, key, context):
    if key not in record:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return record[key]


@dataclass(frozen=True)
class CircuitDescription:
    qubits: tuple
    coupling: Coupling
    foster_modes: tuple = None
    participation: JunctionParticipation = None


def load_circuit_file(path):
    """Parse the circuit description JSON (unknown keys rejected)."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    _check_keys(raw, ["qubits", "coupling", "foster", "participation"], path)
    qubits = []
    for k, q in enumerate(_require(raw, "qubits", path)):
        ctx = f"{path}: qubits[{k}]"
        _check_keys(q, ["ej_sum_hz", "ec_hz", "asymmetry_d", "flux_phi0"], ctx)
        try:
            squid = SquidSpec(_require(q, "ej_sum_hz", ctx),
                              q.get("asymmetry_d", 0.0), q.get("flux_phi0", 0.0))
            qubits.append(TransmonSpec(squid, _require(q, "ec_hz", ctx)))
        except ValueError as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    if len(qubits) != 2:
        raise ConfigError(f"{path}: expected exactly 2 qubits, got {len(qubits)}")

    c = _require(raw, "coupling", path)
    _check_keys(c, ["c12_farads", "g_hz"], f"{path}: coupling")
    if ("c12_farads" in c) == ("g_hz" in c):
        raise ConfigError(f"{path}: coupling needs exactly one of c12_farads | g_hz")
    if "g_hz" in c:
        coupling = Coupling.fixed(c["g_hz"])
    else:
        coupling = Coupling.capacitive(c["c12_farads"], qubits[0].ec_hz, qubits[1].ec_hz)

    foster = None
    if "foster" in raw:
        foster = []
        for k, m in enumerate(raw["foster"]):
            ctx = f"{path}: foster[{k}]"
            _check_keys(m, ["l_henries", "c_farads", "r_ohms"], ctx)
            r = m.get("r_ohms")
            foster.append(FosterMode(_require(m, "l_henries", ctx),
                                     _require(m, "c_farads", ctx),
                                     np.inf if r in (None, "inf") else r))
        foster = tuple(foster)

    participation = None
    if "participation" in raw:
        phi = np.asarray(raw["participation"], dtype=float)
        ej = np.array([effective_josephson_energy(q.squid) for q in qubits])
        participation = JunctionParticipation(phi, ej[: phi.shape[1]])
    return CircuitDescription(tuple(qubits), coupling, foster, participation)


def load_protocol_file(path):
    """Parse a pulse-protocol JSON: frame, pulses, delay, dissipation, readout.

    Returns (ProtocolSpec, DissipationSpec or None, readout_matrices pair or None).
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    _check_keys(raw, ["frame", "pulses", "delay_s", "total_time_s",
                      "readout_times_s", "dissipation", "readout_matrix"], path)
    raw_pulses = _require(raw, "pulses", path)
    if not isinstance(raw_pulses, list) or not raw_pulses:
        raise ConfigError(f"{path}: pulses must be a non-empty list of pulse objects, "
                          f"got {raw_pulses!r}")
    pulses = []
    for k, p in enumerate(raw_pulses):
        ctx = f"{path}: pulses[{k}]"
        if not isinstance(p, dict):
            raise ConfigError(f"{ctx} must be an object, got {p!r}")
        _check_keys(p, ["shape", "amplitude_hz", "duration_s", "carrier_hz",
                        "phase_rad", "start_time_s", "gaussian_sigma_s",
                        "target_qubit"], ctx)
        try:
            pulses.append(PulseSpec(
                _require(p, "shape", ctx), _require(p, "amplitude_hz", ctx),
                _require(p, "duration_s", ctx), _require(p, "carrier_hz", ctx),
                p.get("phase_rad", 0.0), p.get("start_time_s", 0.0),
                p.get("gaussian_sigma_s"), p.get("target_qubit", 1)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    total = raw.get("total_time_s", max(p.end_time_s for p in pulses) + 2e-9)
    try:
        protocol = ProtocolSpec(tuple(pulses), total, raw.get("frame", "rotating"),
                                raw.get("delay_s", 0.0),
                                tuple(raw["readout_times_s"])
                                if "readout_times_s" in raw else None)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    dissipation = _dissipation_spec(raw["dissipation"], path) if "dissipation" in raw else None
    readout = readout_matrices(raw["readout_matrix"], path) if "readout_matrix" in raw else None
    return protocol, dissipation, readout


def _dissipation_spec(raw, context):
    """DissipationSpec from {"t1_s": [t1, t1], "t2_s": [t2 or null, t2 or null]}.

    t2_s is optional.  Anything else is a ConfigError naming the field.
    """
    context = f"{context}: dissipation"
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} must be an object with t1_s and optional t2_s")
    _check_keys(raw, ["t1_s", "t2_s"], context)
    _require(raw, "t1_s", context)

    def pair(key, nullable):
        value = raw[key]
        if not (isinstance(value, list) and len(value) == 2 and all(
                isinstance(t, (int, float)) or (nullable and t is None) for t in value)):
            raise ConfigError(f"{context}: {key} must be a pair of times, got {value!r}")
        return tuple(value)

    try:
        return DissipationSpec(pair("t1_s", False),
                               pair("t2_s", True) if raw.get("t2_s") is not None else None)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def readout_matrices(raw, context):
    """Validate a readout_matrix entry: (matrix for qubit 1, matrix for qubit 2).

    Accepts one 2x2 confusion matrix shared by both qubits or a pair of 2x2
    matrices; every row must be a probability vector.
    """
    try:
        m = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: readout_matrix: {exc}") from exc
    if m.shape == (2, 2):
        m = np.stack([m, m])
    if m.shape != (2, 2, 2):
        raise ConfigError(
            f"{context}: readout_matrix must be 2x2 or a pair of 2x2, got shape {m.shape}")
    try:
        check_row_stochastic(m)
    except StochasticityError as exc:
        raise ConfigError(f"{context}: readout_matrix: {exc}") from exc
    return m[0], m[1]


def load_admittance_csv(path):
    """Read sampled response data: header freq_rad_s,re_y,im_y."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ADMITTANCE_HEADER:
            raise ConfigError(
                f"{path}: header must be {','.join(ADMITTANCE_HEADER)}, got {header}")
        omegas, values = [], []
        for k, row in enumerate(reader):
            if len(row) != 3:
                raise ConfigError(f"{path}: line {k + 2}: expected 3 columns")
            try:
                omegas.append(float(row[0]))
                values.append(complex(float(row[1]), float(row[2])))
            except ValueError as exc:
                raise ConfigError(f"{path}: line {k + 2}: {exc}") from exc
    return np.array(omegas), np.array(values)


def write_admittance_csv(path, omegas, values):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ADMITTANCE_HEADER)
        for om, v in zip(omegas, values):
            w.writerow([_fmt(om), _fmt(v.real), _fmt(v.imag)])


def write_zz_sweep_csv(path, rows):
    """rows: iterable of dicts with the ZZ_SWEEP_HEADER keys (None -> empty cell)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ZZ_SWEEP_HEADER)
        for r in rows:
            w.writerow([_fmt(r["delta_hz"]), _fmt(r["zeta_exact_hz"]),
                        _fmt(r["zeta_perturbative_hz"]), _fmt(r["zeta_series_hz"]),
                        str(r["ambiguous_flag"])])


def read_zz_sweep_csv(path):
    return _read_csv(path, ZZ_SWEEP_HEADER, str_cols={"ambiguous_flag"})


def write_blockade_csv(path, rows, with_measured=False):
    header = BLOCKADE_HEADER + (BLOCKADE_MEASURED if with_measured else [])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in rows:
            w.writerow([_fmt(r[k]) for k in header])


def read_blockade_csv(path):
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header == BLOCKADE_HEADER:
        return _read_csv(path, BLOCKADE_HEADER)
    return _read_csv(path, BLOCKADE_HEADER + BLOCKADE_MEASURED)


def write_flux_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(FLUX_HEADER)
        for r in rows:
            w.writerow([_fmt(r[k]) for k in FLUX_HEADER])


def read_flux_csv(path):
    return _read_csv(path, FLUX_HEADER)


def write_history_csv(path, history):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(HISTORY_HEADER)
        for rec in history:
            w.writerow([str(rec.generation), _fmt(rec.best_zeta_hz),
                        str(rec.n_feasible)])


def read_history_csv(path):
    return _read_csv(path, HISTORY_HEADER)


def write_ramsey_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RAMSEY_HEADER)
        for r in rows:
            w.writerow([str(r["spectator_state"]), _fmt(r["fringe_hz"])])


def read_ramsey_csv(path):
    return _read_csv(path, RAMSEY_HEADER)


def write_spectral_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SPECTRAL_HEADER)
        for r in rows:
            w.writerow([_fmt(r[k]) for k in SPECTRAL_HEADER])


def read_spectral_csv(path):
    return _read_csv(path, SPECTRAL_HEADER)


def _read_csv(path, expected_header, str_cols=()):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise ConfigError(
                f"{path}: header must be {','.join(expected_header)}, got {header}")
        rows = []
        for k, row in enumerate(reader):
            if len(row) != len(expected_header):
                raise ConfigError(f"{path}: line {k + 2}: wrong column count")
            rec = {}
            for name, cell in zip(expected_header, row):
                if name in str_cols:
                    rec[name] = cell
                else:
                    rec[name] = None if cell == "" else float(cell)
            rows.append(rec)
    return rows


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def spectrum_dump(spectrum, decomp=None):
    """JSON-ready dump of a labeled spectrum (labels, energies, overlaps, betas)."""
    payload = {
        "labels": [list(lab) for lab in sorted(spectrum.energies)],
        "energies_hz": {f"{i}{j}": spectrum.energies[(i, j)]
                        for i, j in sorted(spectrum.energies)},
        "overlaps": {f"{i}{j}": spectrum.overlaps[(i, j)]
                     for i, j in sorted(spectrum.overlaps)},
        "ambiguous": [f"{i}{j}" for i, j in sorted(spectrum.ambiguous)],
    }
    if decomp is not None:
        payload["beta_hz"] = [float(b) for b in decomp.beta_hz]
        payload["zeta_hz"] = float(decomp.zeta_hz)
    return payload
