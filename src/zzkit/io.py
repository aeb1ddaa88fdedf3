"""File formats: the JSON config schema, circuit and protocol files, CSV data.

Every JSON input (a command's --config and the files it names) is read by
read_json and checked by parse against a field table.  For every table,
unknown keys are rejected, every number is finite, a boolean is not a
number, keys that exclude each other (a OneOf row) are not given together,
and each error is a ConfigError naming the field path, such as
`blockade:spectral:window_hz` or `circuit.json:qubits[1]:ec_hz`.  Every
CSV output goes through write_csv, which writes numbers with shortest
round-trip float formatting, so reruns are byte identical.
"""

import csv
import functools
import json
import reprlib
import sys
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .circuit import Coupling, SquidSpec, TransmonSpec, check_transmon
from .dynamics import (
    END_PAD_S,
    FRAMES,
    PULSE_SHAPES,
    DissipationSpec,
    ProtocolSpec,
    PulseSpec,
    check_row_stochastic,
)
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

REQUIRED = object()     # the default of a key that must be given
# One row of a field table.  kind maps (JSON value, field path) to the parsed
# value or raises a ConfigError; an absent key takes default as it is, unless
# it is REQUIRED; check is (predicate on the parsed value, message) or None.
Field = namedtuple("Field", "key kind default check", defaults=(REQUIRED, None))
# A row of a field table that names no key of its own: the keys an object
# gives come from at most one of groups (tuples of keys), or, when required,
# from exactly one, given whole.
OneOf = namedtuple("OneOf", "groups required", defaults=(False,))


# ------------------------------------------------------------ config schema

def _open(path, field, newline=None):
    """The file at path, which the config field or flag `field` names, open for reading."""
    try:
        return open(path, newline=newline)
    except OSError as exc:
        raise ConfigError(f"{field}: cannot read {path}: {exc.strerror}") from exc


def read_json(path, field):
    """The JSON value in the file at path, which the config field `field` names."""
    try:
        with _open(path, field) as fh:
            return json.load(fh)
    except ValueError as exc:       # invalid JSON, undecodable bytes, overlong integers
        raise ConfigError(f"{field}: {path}: invalid JSON ({exc})") from exc


@contextmanager
def config_errors(context):
    """Raise a ValueError or TypeError of the block as a ConfigError naming context."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def parse(raw, fields, context, make=None):
    """The JSON object raw checked against a field table: a dict, or make(**dict).

    context is the object's field path; each key's path is context:key.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} must be an object, got {reprlib.repr(raw)}")
    rules = [f for f in fields if isinstance(f, OneOf)]
    fields = [f for f in fields if not isinstance(f, OneOf)]
    unknown = set(raw) - {f.key for f in fields}
    if unknown:
        raise ConfigError("unknown keys " + ", ".join(f"{context}:{k}" for k in sorted(unknown)))
    record = {}
    for f in fields:
        if f.key in raw:
            record[f.key] = f.kind(raw[f.key], f"{context}:{f.key}")
            if f.check is not None and not f.check[0](record[f.key]):
                raise ConfigError(f"{context}:{f.key} {f.check[1]}, "
                                  f"got {reprlib.repr(raw[f.key])}")
        elif f.default is REQUIRED:
            raise ConfigError(f"{context}: missing required key {f.key!r}")
        else:
            record[f.key] = f.default
    for rule in rules:
        _one_of(raw, rule, context)
    if make is None:
        return record
    with config_errors(context):
        return make(**record)


def _one_of(raw, rule, context):
    """Raise unless the keys of raw meet a OneOf rule."""
    hit = [group for group in rule.groups if any(k in raw for k in group)]
    if len(hit) > 1 or (rule.required and not hit):
        options = " | ".join(g[0] if len(g) == 1 else "{" + ", ".join(g) + "}"
                             for g in rule.groups)
        got = [k for group in hit for k in group if k in raw]
        raise ConfigError(f"{context}: {'needs' if rule.required else 'takes'} keys from "
                          f"{'exactly' if rule.required else 'at most'} one of {options}, "
                          f"got {got or 'none'}")
    for key in hit[0] if rule.required else ():
        if key not in raw:
            raise ConfigError(f"{context}: missing required key {key!r}")


def _kind_error(path, what, value):
    return ConfigError(f"{path} must be {what}, got {reprlib.repr(value)}")


def number(value, path):
    """Kind: a finite JSON number, as a float.  A boolean is not a number."""
    if type(value) not in (int, float):
        raise _kind_error(path, "a number", value)
    if not abs(value) <= sys.float_info.max:     # NaN, +-Infinity or an overlong integer
        raise _kind_error(path, "finite", value)
    return float(value)


def integer(value, path):
    """Kind: a JSON integer, or a number with an integral value, as an int."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise _kind_error(path, "an integer", value)
    return value


def _typed(json_type, what):
    """Kind: a JSON value of one Python type, as it is."""
    def kind(value, path):
        if type(value) is not json_type:
            raise _kind_error(path, what, value)
        return value
    return kind


string = _typed(str, "a string")        # a file path or a name
boolean = _typed(bool, "true or false")


def choice(*options):
    """Kind: one of the strings in options."""
    def kind(value, path):
        if type(value) is not str or value not in options:
            raise _kind_error(path, f"one of {list(options)}", value)
        return value
    return kind


def optional(kind):
    """Kind: null, taken as None, or a value of kind."""
    return lambda value, path: None if value is None else kind(value, path)


def array(*shape, element=number):
    """Kind: nested JSON lists of the given shape, as nested tuples of element values.

    A None length is any length, the same across the level.
    """
    def kind(value, path):
        sizes = list(shape)

        def nested(v, depth, where):
            if depth == len(sizes):
                return element(v, where)
            if sizes[depth] is None and isinstance(v, list):
                sizes[depth] = len(v)
            if not isinstance(v, list) or len(v) != sizes[depth]:
                shown = " x ".join("n" if n is None else str(n) for n in shape)
                raise _kind_error(path, f"an array of shape {shown}", value)
            return tuple(nested(x, depth + 1, f"{where}[{k}]") for k, x in enumerate(v))
        return nested(value, 0, path)
    return kind


numbers = array(None)
GRID_FIELDS = (Field("start", number), Field("stop", number),
               Field("num", integer, check=(lambda n: 2 <= n <= 100_000,
                                            "must be between 2 and 100000")))


def grid(value, path):
    """Kind: a list of numbers or a {start, stop, num} linspace, increasing, >= 2 points."""
    points = (np.linspace(**parse(value, GRID_FIELDS, path)) if isinstance(value, dict)
              else np.array(numbers(value, path)))
    if points.size < 2 or np.any(np.diff(points) <= 0):
        raise _kind_error(path, "strictly increasing with >= 2 points", value)
    return points


def record(fields, make=None):
    """Kind: a nested JSON object checked against a field table (see parse)."""
    return lambda value, path: parse(value, fields, path, make)


def records(fields, make=None):
    """Kind: a JSON list of objects, each checked against a field table."""
    return array(None, element=record(fields, make))


def _depth(value):
    return 1 + _depth(value[0]) if isinstance(value, list) and value else 0


def readout_matrix(value, path):
    """Kind: one row-stochastic 2x2 confusion matrix for both qubits, or a pair of them.

    The result is the (2, 2, 2) stack, qubit 1's matrix first.
    """
    m = np.array(array(*((2, 2, 2) if _depth(value) > 2 else (2, 2)))(value, path))
    try:
        check_row_stochastic(m)
    except StochasticityError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return np.broadcast_to(m, (2, 2, 2))


# ---------------------------------------------------------- circuit file

@dataclass(frozen=True)
class CircuitDescription:
    qubits: tuple
    coupling: Coupling


def _circuit(path, qubits, coupling):
    c12, g = coupling["c12_farads"], coupling["g_hz"]
    with config_errors(f"{path}:coupling:c12_farads"):
        coupling = (Coupling.fixed(g) if c12 is None
                    else Coupling.capacitive(c12, qubits[0].ec_hz, qubits[1].ec_hz))
    return CircuitDescription(qubits, coupling)


QUBIT_FIELDS = (Field("ej_sum_hz", number), Field("ec_hz", number),
                Field("asymmetry_d", number, 0.0), Field("flux_phi0", number, 0.0))
COUPLING_FIELDS = (Field("c12_farads", number, None), Field("g_hz", number, None),
                   OneOf((("c12_farads",), ("g_hz",)), required=True))
CIRCUIT_FIELDS = (
    Field("qubits", records(QUBIT_FIELDS, lambda ec_hz, **squid: check_transmon(
        TransmonSpec(SquidSpec(**squid), ec_hz))),
        check=(lambda q: len(q) == 2, "must hold exactly 2 qubits")),
    Field("coupling", record(COUPLING_FIELDS)),
)


def load_circuit_file(path, field="circuit"):
    """Parse the circuit description JSON at path, which the config field `field` names."""
    return parse(read_json(path, field), CIRCUIT_FIELDS, path, functools.partial(_circuit, path))


# --------------------------------------------------------- protocol file

def _protocol(pulses, total_time_s, dissipation, readout_matrix, **spec):
    if total_time_s is None:
        total_time_s = max(p.end_time_s for p in pulses) + END_PAD_S
    return ProtocolSpec(pulses, total_time_s, **spec), dissipation, readout_matrix


PULSE_FIELDS = (
    Field("shape", choice(*PULSE_SHAPES)), Field("amplitude_hz", number),
    Field("duration_s", number), Field("carrier_hz", number),
    Field("phase_rad", number, 0.0), Field("start_time_s", number, 0.0),
    Field("gaussian_sigma_s", optional(number), None), Field("target_qubit", integer, 1),
)
# in a protocol file and the blockade config; a null t2_s entry: no pure dephasing
DISSIPATION = Field("dissipation", record((
    Field("t1_s", array(2)),
    Field("t2_s", optional(array(2, element=optional(number))), None)), DissipationSpec), None)
READOUT_MATRIX = Field("readout_matrix", readout_matrix, None)
PROTOCOL_FIELDS = (
    Field("frame", choice(*FRAMES), "rotating"),
    Field("pulses", records(PULSE_FIELDS, PulseSpec), check=(bool, "must hold a pulse")),
    Field("delay_s", number, 0.0),
    Field("total_time_s", number, None),
    DISSIPATION, READOUT_MATRIX,
)


def load_protocol_file(path, field="protocol"):
    """Parse a pulse-protocol JSON: frame, pulses, delay, dissipation, readout.

    Returns (ProtocolSpec, DissipationSpec or None, readout matrices or None).
    """
    return parse(read_json(path, field), PROTOCOL_FIELDS, path, _protocol)


# -------------------------------------------------------------- data files

def load_admittance_csv(path, field="samples_csv"):
    """Read sampled response data: header freq_rad_s,re_y,im_y, rows of finite numbers."""
    with _open(path, field, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ADMITTANCE_HEADER:
            raise ConfigError(
                f"{path}: header must be {','.join(ADMITTANCE_HEADER)}, got {header}")
        try:
            table = np.array(list(reader), dtype=float)
        except ValueError as exc:       # a cell that is no number, or rows of unequal length
            raise ConfigError(f"{path}: {exc}") from exc
    if table.ndim != 2 or table.shape[1] != 3 or not np.isfinite(table).all():
        raise ConfigError(f"{path}: samples must be rows of 3 finite numbers")
    return table[:, 0], table[:, 1:].copy().view(complex)[:, 0]    # (re, im) bit for bit


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, (str, int)):
        return str(x)
    return repr(float(x))


def write_csv(path, header, rows):
    """Write header, then rows of cells.

    None is an empty cell, a str is written as it is, an int as an int, and any
    other number as repr(float(x)), so NaN is `nan`.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(x) for x in row] for row in rows)


def _read_csv(path, *headers, str_cols=()):
    """The rows of a CSV whose header is one of headers, as dicts of floats.

    An empty cell reads as None, and a str_cols cell as it was written.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in headers:
            raise ConfigError(f"{path}: header must be "
                              f"{' or '.join(','.join(h) for h in headers)}, got {header}")
        rows = []
        for k, row in enumerate(reader):
            if len(row) != len(header):
                raise ConfigError(f"{path}: line {k + 2}: wrong column count")
            rows.append({name: cell if name in str_cols else None if cell == "" else float(cell)
                         for name, cell in zip(header, row)})
    return rows


def read_zz_sweep_csv(path):
    return _read_csv(path, ZZ_SWEEP_HEADER, str_cols={"ambiguous_flag"})


def read_blockade_csv(path):
    return _read_csv(path, BLOCKADE_HEADER, BLOCKADE_HEADER + BLOCKADE_MEASURED)


def read_flux_csv(path):
    return _read_csv(path, FLUX_HEADER)


def read_history_csv(path):
    return _read_csv(path, HISTORY_HEADER)


def read_ramsey_csv(path):
    return _read_csv(path, RAMSEY_HEADER)


def read_spectral_csv(path):
    return _read_csv(path, SPECTRAL_HEADER)


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
