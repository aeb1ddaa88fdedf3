"""File formats: the JSON config schema, circuit and protocol files, CSV data.

Every JSON input (a command's --config and the files it names) is read by
read_json and checked by parse against a field table.  For every table,
unknown keys are rejected, every number is finite, a boolean is not a
number, keys that exclude each other (a OneOf row) are not given together,
and each error is a ConfigError naming the field path, such as
`blockade:spectral:window_hz` or `circuit.json:qubits[1]:ec_hz`.  Every
CSV output goes through write_csv, which writes numbers with shortest
round-trip float formatting, so reruns are byte identical.  It formats a
column at a time, one pass per column, and writes the file in one call; a
str cell holding a comma, a double quote, CR or LF is quoted as csv.writer
quotes it.  Response samples are parsed by numpy's C reader.
"""

import csv
import functools
import json
import re
import reprlib
import sys
import warnings
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .circuit import Coupling, SquidSpec, TransmonSpec, check_transmon
from .constants import capacitance_from_ec
from .dynamics import (
    END_PAD_S,
    FRAMES,
    PULSE_SHAPES,
    RTOL_DEFAULT,
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

def _open(path, field):
    """The file at path, which the config field or flag `field` names, open for reading."""
    try:
        return open(path)
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
    """Raise a ValueError or TypeError of the block as a ConfigError naming context.

    numpy's LinAlgError, a ValueError, is a numeric failure and passes through.
    """
    try:
        yield
    except np.linalg.LinAlgError:
        raise
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


def _finite_capacitance(ec_hz):
    """Whether E_C gives a finite positive node capacitance (2 h E_C may underflow to 0)."""
    with np.errstate(divide="ignore"):
        return 0.0 < capacitance_from_ec(np.float64(ec_hz)) < np.inf


QUBIT_FIELDS = (Field("ej_sum_hz", number),
                Field("ec_hz", number, check=(_finite_capacitance, "must give a finite "
                                              "positive node capacitance e^2 / (2 h E_C)")),
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

def check_resolved(path, times, shortest):
    """Raise a ConfigError naming path unless every time is resolved for its shortest pulse.

    A pulse edge or readout instant t is resolved when the float spacing at t
    is at most RTOL_DEFAULT times the shortest pulse; where floats are coarser,
    rounding moves a pulse by more than the solvers' tolerance, or drops it.
    times and shortest broadcast together: one shortest pulse per grid point.
    """
    times, shortest = np.broadcast_arrays(np.abs(np.asarray(times, dtype=float)), shortest)
    coarse = np.flatnonzero(~(np.spacing(times) <= RTOL_DEFAULT * shortest))
    if len(coarse):
        k = coarse[0]
        raise ConfigError(f"{path}: the time {times.flat[k]:.3g} s is not resolved to "
                          f"{RTOL_DEFAULT:g} of the shortest pulse ({shortest.flat[k]:.3g} s)")


def _protocol(path, pulses, total_time_s, dissipation, readout_matrix, **spec):
    shortest = min(p.duration_s for p in pulses)
    for k, p in enumerate(pulses):
        check_resolved(f"{path}:pulses[{k}]:start_time_s", p.start_time_s, shortest)
        check_resolved(f"{path}:pulses[{k}]:duration_s", p.end_time_s, shortest)
    if total_time_s is None:
        total_time_s = max(p.end_time_s for p in pulses) + END_PAD_S
    check_resolved(f"{path}:total_time_s", total_time_s, shortest)
    return ProtocolSpec(pulses, total_time_s, **spec), dissipation, readout_matrix


PULSE_FIELDS = (
    Field("shape", choice(*PULSE_SHAPES)), Field("amplitude_hz", number),
    Field("duration_s", number), Field("carrier_hz", number),
    Field("phase_rad", number, 0.0), Field("start_time_s", number, 0.0),
    Field("gaussian_sigma_s", optional(number), None,
          (lambda sigma: sigma is None or sigma > 0, "must be positive")),
    Field("target_qubit", integer, 1),
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
    return parse(read_json(path, field), PROTOCOL_FIELDS, path, functools.partial(_protocol, path))


# -------------------------------------------------------------- data files

def load_admittance_csv(path, field="samples_csv"):
    """Read sampled response data: header freq_rad_s,re_y,im_y, rows of finite numbers.

    The file is read once with universal newlines: CR, LF and CRLF each end a
    line, as for numpy's C reader, which parses the rows.  Blank lines are
    skipped and a quoted cell is read as its number.  A line that leaves a quote
    open (an odd count of "), a cell that is no number or a row of another
    length is a ConfigError naming its line of the file; so are undecodable
    bytes and an oversized header field.
    """
    lines = []      # none when the text does not decode
    with _open(path, field) as fh:
        try:
            text = fh.read()
            lines = text.split("\n")    # for the quote scan and _at_line
            stream = StringIO(text)     # for the csv header, then numpy's reader
            header = next(csv.reader(stream), None)
            if header != ADMITTANCE_HEADER:
                raise ConfigError(
                    f"{path}: header must be {','.join(ADMITTANCE_HEADER)}, got {header}")
            odd = '"' in text and [k for k, line in enumerate(lines, 1) if line.count('"') % 2]
            if odd:     # numpy's reader would run the quote on to the end
                raise ConfigError(f"{path}: line {odd[0]}: unclosed quote")
            with warnings.catch_warnings():     # no rows: reported below
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(stream, delimiter=",", ndmin=2, comments=None, quotechar='"')
        except (ValueError, csv.Error) as exc:
            raise ConfigError(f"{path}: {_at_line(lines, str(exc))}") from exc
    if table.size == 0 or table.shape[1] != 3 or not np.isfinite(table).all():
        raise ConfigError(f"{path}: samples must be rows of 3 finite numbers")
    return table[:, 0], table[:, 1:].copy().view(complex)[:, 0]    # (re, im) bit for bit


def _at_line(lines, message):
    """A loadtxt error about the rows below the header, its row as a line of the file.

    loadtxt counts the rows it reads, blank lines not among them, from 0 when
    a cell is no number and from 1 when the column count changes.
    """
    found = re.search(r" at row (\d+)(, column \d+)?", message)
    if found is None:
        return message
    rows = [k for k, line in enumerate(lines[1:], 2) if line]
    row = int(found[1]) - (found[2] is None)
    if row >= len(rows):
        return message
    return f"line {rows[row]}{found[2] or ''}: {message[:found.start()]}"


_QUOTED = re.compile('[,"\r\n]')      # the characters csv.writer quotes a cell for


def _text(s):
    """A str cell or header name as csv.writer writes it: quoted when it holds , " CR or LF."""
    s = str(s)
    return '"' + s.replace('"', '""') + '"' if _QUOTED.search(s) else s


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, str):
        return _text(x)
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _column(values):
    """The cells of one column by the cell rule, formatted in one pass."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        values = values.tolist()        # Python floats, whose repr is repr(float(x))
    kinds = set(map(type, values))
    if kinds <= {float}:
        return list(map(repr, values))
    if kinds <= {float, type(None)}:
        return ["" if x is None else repr(x) for x in values]
    return list(map(_cell, values))


def write_csv(path, header, columns):
    """Write header, then one row per entry of the columns, in one write.

    columns are sequences of equal length, one per header name.  Every cell
    follows one rule: None is an empty cell, a str is written as it is, an int
    as an int, and any other number as repr(float(x)), so NaN is `nan`.  Each
    column is formatted in one pass, an all-float one by map(repr).  The bytes
    are csv.writer's: CRLF line ends, and a str holding a comma, a double
    quote, CR or LF quoted, its double quotes doubled.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    lines = [",".join(map(_text, header)),
             *map(",".join, zip(*map(_column, columns), strict=True))]
    if len(header) == 1:        # csv.writer quotes a row that is one empty cell
        lines = [line or '""' for line in lines]
    lines.append("")            # the last line's end
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


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
