import copy
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzkit import (
    FosterMode,
    KerrParams,
    diagonalize_and_label,
    transmon_spectrum,
    zeta_exact,
    zeta_perturbative,
    zeta_resonant,
    zeta_series_high_detuning,
)
from zzkit.circuit import foster_impedance
from zzkit.cli import main
from zzkit.dynamics import (
    GRID_RTOL,
    DissipationSpec,
    TwoQubitSystem,
    make_blockade_protocol,
    run_blockade_protocol,
)
from zzkit.fixtures import load_fixture
from zzkit.errors import AmbiguousLabelError, ConfigError
from zzkit import io as zio
from zzkit.io import (
    ADMITTANCE_HEADER,
    load_admittance_csv,
    load_circuit_file,
    load_protocol_file,
    read_blockade_csv,
    read_history_csv,
    read_ramsey_csv,
    read_zz_sweep_csv,
    write_csv,
)

from conftest import crossing
from dense_oracle import csv_module_load, csv_module_write


# a valid zz-sweep system and grid, for the inline cases of test_config_error_exit_code
INLINE = {"omega1_hz": 6.27e9, "alpha1_hz": -351e6, "alpha2_hz": -312e6, "g_hz": 5e6}
DELTAS = {"start": 0.8e9, "stop": 2.0e9, "num": 5}
# a valid circuit file and protocol file; the cases of test_config_error_exit_code
# name them relative to their directory
CIRCUIT = {
    "qubits": [
        {"ej_sum_hz": 36.65e9, "ec_hz": 0.309e9, "asymmetry_d": 0.48, "flux_phi0": 0.5},
        {"ej_sum_hz": 20.93e9, "ec_hz": 0.262e9, "asymmetry_d": 0.458, "flux_phi0": 0.0},
    ],
    "coupling": {"g_hz": 245.5e6},
}
PROTOCOL = {"pulses": [{"shape": "rectangular", "amplitude_hz": 50e6, "duration_s": 10e-9,
                        "carrier_hz": 6.307e9}]}
# a Ramsey grid that chip1's blockade point reads as 19 MHz, 33.5 MHz below qubit 1
RAMSEY_GRID = np.linspace(0.0, 200e-9, 401)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_admittance_csv(path, omegas, values):
    write_csv(path, ADMITTANCE_HEADER, [omegas, values.real, values.imag])


DESIGN_VARIABLES = [{"name": "ej1_hz", "low": 12e9, "high": 35e9},
                    {"name": "ej2_hz", "low": 12e9, "high": 35e9},
                    {"name": "c1_farads", "low": 45e-15, "high": 90e-15},
                    {"name": "c2_farads", "low": 45e-15, "high": 90e-15},
                    {"name": "c12_farads", "low": 0.5e-15, "high": 8e-15}]
# a valid design problem; the optimize cases of test_config_error_exit_code
# replace one of its keys
DESIGN_CONFIG = {"variables": DESIGN_VARIABLES,
                 "constraints": {"freq_band_hz": [[1e9, 20e9], [1e9, 20e9]],
                                 "min_abs_anharmonicity_hz": 1e6, "max_j_over_delta": 10.0},
                 "de": {"population": 6, "generations": 2, "seed": 0},
                 "n_exc": 4}


def with_variable(index, **change):
    return [dict(v, **change) if k == index else v for k, v in enumerate(DESIGN_VARIABLES)]


class TestCircuitFile:
    def good(self):
        return copy.deepcopy(CIRCUIT)

    def test_round_trip(self, tmp_path):
        desc = load_circuit_file(write_json(tmp_path / "c.json", self.good()))
        assert len(desc.qubits) == 2
        assert desc.coupling.g_at(6e9, 6e9) == 245.5e6

    def test_unknown_top_level_key_rejected(self, tmp_path):
        bad = self.good()
        bad["qubit"] = []
        with pytest.raises(ConfigError, match="unknown keys"):
            load_circuit_file(write_json(tmp_path / "c.json", bad))

    def test_unknown_qubit_key_rejected(self, tmp_path):
        bad = self.good()
        bad["qubits"][0]["ej_hz"] = 1e9
        with pytest.raises(ConfigError, match="unknown keys"):
            load_circuit_file(write_json(tmp_path / "c.json", bad))

    def test_coupling_exactly_one_of(self, tmp_path):
        bad = self.good()
        bad["coupling"] = {"g_hz": 1e6, "c12_farads": 5e-15}
        with pytest.raises(ConfigError, match="exactly one"):
            load_circuit_file(write_json(tmp_path / "c.json", bad))

    @pytest.mark.parametrize("change,field", [
        ({"qubits": 5}, "qubits"),
        ({"qubits[1]": {"ej_sum_hz": "x"}}, "qubits[1]:ej_sum_hz"),
        ({"qubits[0]": {"ec_hz": True}}, "qubits[0]:ec_hz"),
        ({"coupling": 3}, "coupling"),
        ({"coupling": {"g_hz": "x"}}, "coupling:g_hz"),
        # zz-sweep reads no Foster data: foster-fit is the Foster route
        ({"participation": [1, 2]}, "participation"),
        ({"foster": [{"l_henries": "x", "c_farads": 1e-13}]}, "foster"),
        ({"foster": [{"l_henries": 1e-9, "c_farads": 1e-13, "r_ohms": None}]}, "foster"),
        ({"participation": [[0.1, 0.05]]}, "participation"),
        # a symmetric SQUID at half flux has E_J = 0
        ({"qubits[1]": {"asymmetry_d": 0.0, "flux_phi0": 0.5}}, "qubits[1]: E_J/E_C = 0.00 < 1"),
        # C12 must lie in [0, min C_sigma), C_sigma = e^2 / (2 h E_C) = 63 and 74 fF here
        ({"coupling": {"c12_farads": -5e-15}}, "coupling:c12_farads"),
        ({"coupling": {"c12_farads": 500e-15}}, "coupling:c12_farads"),
        # 2 h E_C underflows to 0: C_sigma was a ZeroDivisionError traceback
        ({"qubits[0]": {"ec_hz": 3.1e-292}, "coupling": {"c12_farads": 5e-15}},
         "qubits[0]:ec_hz must give a finite positive node capacitance"),
        ({"qubits[1]": {"ec_hz": -0.262e9}}, "qubits[1]:ec_hz must give a finite positive"),
    ], ids=["qubits-not-list", "ej-not-number", "ec-boolean", "coupling-not-object",
            "g-not-number", "participation-not-matrix", "foster-l-not-number", "foster",
            "participation",
            "qubit-not-transmon", "c12-negative", "c12-above-node-capacitance",
            "ec-capacitance-underflows", "ec-negative"])
    def test_circuit_file_error_exit_code(self, tmp_path, capsys, change, field):
        circuit = self.good()
        for key, value in change.items():
            if key.startswith("qubits["):
                circuit["qubits"][int(key[7])].update(value)
            else:
                circuit[key] = value
        cfg = write_json(tmp_path / "cfg.json", {
            "circuit": write_json(tmp_path / "circuit.json", circuit), "delta_hz": DELTAS})
        assert main(["--config", cfg, "--out", str(tmp_path / "zz.csv"), "zz-sweep"]) == 2
        assert f"circuit.json:{field}" in capsys.readouterr().err


class TestAdmittanceCsv:
    def test_round_trip(self, tmp_path):
        omegas = 2 * np.pi * np.linspace(1e9, 5e9, 40)
        values = 1.0 / (1j * omegas * 1e-9) + 1j * omegas * 1e-13
        path = tmp_path / "y.csv"
        write_admittance_csv(path, omegas, values)
        om2, v2 = load_admittance_csv(path)
        np.testing.assert_allclose(om2, omegas, rtol=0)
        np.testing.assert_allclose(v2, values, rtol=0)

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("freq,re,im\n1,2,3\n")
        with pytest.raises(ConfigError, match="header"):
            load_admittance_csv(p)

    # finite tables written by repr and by %.17g: numpy's reader gives float()'s values
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                    min_size=1, max_size=40),
           st.sampled_from([repr, "%.17g".__mod__]))
    def test_values_equal_the_csv_module_loaders(self, rows, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "y.csv"
            path.write_text(",".join(ADMITTANCE_HEADER) + "\r\n" + "".join(
                ",".join(map(fmt, row)) + "\r\n" for row in rows), newline="")
            got, want = load_admittance_csv(path), csv_module_load(path)
        for g, w in zip(got, want):
            g, w = (np.concatenate([a.real, a.imag]).tolist() for a in (g, w))
            assert list(map(float.hex, g)) == list(map(float.hex, w))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("freq_rad_s,re_y,im_y\n\n1,2,3\r\n\r\n4,5,6\n\n")
        omegas, values = load_admittance_csv(path)
        assert omegas.tolist() == [1.0, 4.0]
        assert values.tolist() == [2 + 3j, 5 + 6j]

    def test_quoted_cells_are_numbers(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text('freq_rad_s,re_y,im_y\n"1.5e9","2",-3\n')
        omegas, values = load_admittance_csv(path)
        assert omegas.tolist() == [1.5e9] and values.tolist() == [2 - 3j]

    # numpy's reader runs an unclosed quote on to the end of the file, and reads a
    # quoted line break as blank: the first two files loaded as 6.0 and 3.0 cells
    @pytest.mark.parametrize("body,line", [
        ('1,2,3\n4,5,"6\n', 3), ('1,2,"3\n"\n', 2), ('"1",2,3\n\n4,"5,6\n', 4),
    ], ids=["unclosed-at-the-end", "line-break-in-a-cell", "after-a-closed-quote"])
    def test_unclosed_quote_names_its_line(self, tmp_path, capsys, body, line):
        path = tmp_path / "y.csv"
        path.write_text("freq_rad_s,re_y,im_y\n" + body)
        with pytest.raises(ConfigError, match=f"line {line}: unclosed quote") as info:
            load_admittance_csv(path)
        assert str(path) in str(info.value)
        assert main(["--out", str(tmp_path / "f.json"), "foster-fit", str(path),
                     "--n-poles", "1"]) == 2
        assert f"config error: {path}: line {line}: unclosed quote" in capsys.readouterr().err

    # the line counts the header and blank lines; the column counts from 1.  numpy's
    # reader takes no digit-group underscores and no non-ASCII digits, which float() took
    @pytest.mark.parametrize("body,where", [
        ("1,2,3\n\n4,x,6\n", "line 4, column 2"),
        ("1,2,3\n4,5\n", "line 3: the number of columns changed from 3 to 2"),
        ("1,2,3\n# 4,5,6\n", "line 3, column 1"),
        ("1,2,3\n1_0,2,3\n", "line 3, column 1"),
        ("1,2,\u0663\n", "line 2, column 3"),
    ], ids=["bad-cell", "short-row", "comment", "underscore", "non-ascii-digit"])
    def test_bad_rows_exit_2_naming_the_line(self, tmp_path, capsys, body, where):
        path = tmp_path / "y.csv"
        path.write_text("freq_rad_s,re_y,im_y\n" + body, encoding="utf-8")
        assert main(["--out", str(tmp_path / "f.json"), "foster-fit", str(path),
                     "--n-poles", "1"]) == 2
        assert f"{path}: {where}" in capsys.readouterr().err

    # the first two ended in a traceback before: the header was read outside the error
    # handling.  The bytes 0xff 0xfe do not decode as UTF-8; a locale that decodes them
    # meets a cell that is no number instead.  In the third, the file is decoded whole
    # before any row is parsed, so the undecodable bytes are reported, not the bad cell
    @pytest.mark.parametrize("content", [
        b"freq_rad_s,re_y,im_y\n1,2,3\n\xff\xfe,1,2\n",
        b"freq_rad_s" + b"x" * 200_000 + b",re_y,im_y\n1,2,3\n",
        b"freq_rad_s,re_y,im_y\n4,x,6\n" + b"1,2,3\n" * 3000 + b"\xff\xfe,1,2\n",
    ], ids=["undecodable-bytes", "oversized-header-field", "bad-cell-then-undecodable-bytes"])
    def test_unreadable_text_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "y.csv"
        path.write_bytes(content)
        assert main(["--out", str(tmp_path / "f.json"), "foster-fit", str(path),
                     "--n-poles", "1"]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    # the file is read once with universal newlines, so CR, LF and CRLF each end a
    # line for the quote scan and the line lookup as they do for numpy's reader; a
    # quote across a lone CR loaded as the cell 2.0 before
    @pytest.mark.parametrize("content,where", [
        (b"1,2,3\r\n\r\n4,x,6\r\n", "line 4, column 2"),
        (b"1,2,3\r\r4,x,6\r", "line 4, column 2"),
        (b'1,"2\r",3\r\n', "line 2: unclosed quote"),
    ], ids=["crlf-blank-line", "lone-cr", "quote-across-a-cr"])
    def test_carriage_returns_end_lines(self, tmp_path, capsys, content, where):
        path = tmp_path / "y.csv"
        path.write_bytes(b"freq_rad_s,re_y,im_y\r\n" + content)
        assert main(["--out", str(tmp_path / "f.json"), "foster-fit", str(path),
                     "--n-poles", "1"]) == 2
        assert f"config error: {path}: {where}" in capsys.readouterr().err

    def test_header_only_exits_2_without_a_warning(self, tmp_path, capsys):
        path = tmp_path / "y.csv"
        path.write_text("freq_rad_s,re_y,im_y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out", str(tmp_path / "f.json"), "foster-fit", str(path),
                         "--n-poles", "1"]) == 2
        assert "samples must be rows of 3 finite numbers" in capsys.readouterr().err


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
TOKENS = st.text(alphabet='ab:_-1., "\r\n', max_size=6)     # some need quotes
CELLS = {"float": FLOATS, "float-or-empty": st.one_of(FLOATS, st.none()),
         "np.float64": FLOATS.map(np.float64), "int": st.integers(-2 ** 70, 2 ** 70),
         "str": TOKENS,
         "mixed": st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(), st.none(), TOKENS)}


@st.composite
def tables(draw):
    """(header, columns): 2 to 8 columns of one cell kind each, 0 to 60 rows."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=2, max_size=8))
    n_rows = draw(st.integers(0, 60))
    columns = [draw(st.lists(CELLS[k], min_size=n_rows, max_size=n_rows)) for k in kinds]
    # a float column also as the array a command passes
    columns = [np.array(c, dtype=float) if k in ("float", "np.float64") and draw(st.booleans())
               else c for k, c in zip(kinds, columns)]
    return draw(st.lists(TOKENS, min_size=len(kinds), max_size=len(kinds))), columns


def _same_cell(got, written):
    """Whether a read cell is the written one bit for bit: None for None, NaN for NaN."""
    if written is None or got is None:
        return got is written
    return float(got).hex() == float(written).hex()


class TestCsvWriter:
    # every command's reader, with the header its command writes
    READERS = [(zio.read_zz_sweep_csv, zio.ZZ_SWEEP_HEADER),
               (zio.read_blockade_csv, zio.BLOCKADE_HEADER),
               (zio.read_blockade_csv, zio.BLOCKADE_HEADER + zio.BLOCKADE_MEASURED),
               (zio.read_flux_csv, zio.FLUX_HEADER),
               (zio.read_history_csv, zio.HISTORY_HEADER),
               (zio.read_ramsey_csv, zio.RAMSEY_HEADER),
               (zio.read_spectral_csv, zio.SPECTRAL_HEADER)]

    @pytest.mark.parametrize("reader,header", READERS,
                             ids=["zz-sweep", "blockade", "blockade-measured", "flux",
                                  "history", "ramsey", "spectral"])
    def test_every_reader_returns_the_written_floats(self, tmp_path, rng, reader, header):
        # awkward floats for shortest round-trip formatting, NaN and empty cells
        values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, np.nan, None, 2.0 ** 0.5,
                  np.float64(-312230381.93197525), 1.0 / 3.0]
        rows = [[values[(k + j) % len(values)] if name != "ambiguous_flag" else f"flag{k}"
                 for j, name in enumerate(header)] for k in range(len(values))]
        rows += [[x if name != "ambiguous_flag" else "0" for name, x in zip(
            header, rng.standard_normal(len(header)) * 10.0 ** rng.integers(-30, 30))]
            for _ in range(20)]
        rows[-1][0] = 7       # an int cell reads back as that number
        path = tmp_path / "t.csv"
        write_csv(path, header, list(zip(*rows)))
        assert path.read_text().splitlines()[0] == ",".join(header)
        got = reader(str(path))
        assert len(got) == len(rows)
        for row, written in zip(got, rows):
            assert list(row) == header
            for name, cell in zip(header, written):
                if name == "ambiguous_flag":
                    assert row[name] == cell
                else:
                    assert _same_cell(row[name], cell), (name, row[name], cell)

    def test_cell_rule(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d", "e", "f"],
                  list(zip(*[(None, "error:X", 3, np.float64(2.5), np.nan, 1e-7)])))
        assert path.read_text().splitlines()[1] == ",error:X,3,2.5,nan,1e-07"

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(tables())
    def test_bytes_equal_the_csv_module_writers(self, table):
        header, columns = table
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            write_csv(got, header, columns)
            csv_module_write(want, header, zip(*columns))
            assert got.read_bytes() == want.read_bytes()

    def test_quoting_is_the_csv_modules(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b,c"], [['x,y', 'say "hi"'], ['two\nlines', 'cr\r']])
        assert path.read_bytes() == (b'a,"b,c"\r\n"x,y","two\nlines"\r\n'
                                     b'"say ""hi""","cr\r"\r\n')

    def test_one_column_of_empty_cells_is_the_csv_modules(self, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        column = [None, "", 1.0, math.nan]
        write_csv(got, ["a"], [column])
        csv_module_write(want, ["a"], zip(column))
        assert got.read_bytes() == want.read_bytes() == b'a\r\n""\r\n""\r\n1.0\r\nnan\r\n'

    def test_columns_must_match_the_header(self, tmp_path):
        with pytest.raises(ValueError, match="2 header names for 1 columns"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0]])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0], [1.0, 2.0]])

    def test_reader_names_either_blockade_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("delay_s,p1_e\n0.0,1.0\n")
        with pytest.raises(ConfigError, match="delay_s,pulse_len_s,p1_e,p2_e or "
                           "delay_s,pulse_len_s,p1_e,p2_e,p1_e_measured,p2_e_measured"):
            read_blockade_csv(str(path))


class TestZZSweepCommand:
    def config(self, tmp_path, **extra):
        cfg = {"fixture": "chip1",
               "delta_hz": {"start": 0.6e9, "stop": 2.4e9, "num": 7}}
        cfg.update(extra)
        return write_json(tmp_path / "cfg.json", cfg)

    def test_runs_and_is_monotone(self, tmp_path):
        out = str(tmp_path / "zz.csv")
        assert main(["--config", self.config(tmp_path), "--out", out,
                     "zz-sweep"]) == 0
        rows = read_zz_sweep_csv(out)
        mags = [abs(r["zeta_exact_hz"]) for r in rows]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_reruns_byte_identical(self, tmp_path, capsys):
        runs = [
            ("zz-sweep", self.config(tmp_path)),
            ("blockade", write_json(tmp_path / "blockade.json", {
                "fixture": "chip1", "pulse_lengths_s": [60e-9, 100e-9],
                "delays_s": [-80e-9, 80e-9],
                "readout_matrix": [[0.95, 0.05], [0.10, 0.90]]})),
            ("flux-spectroscopy", write_json(tmp_path / "flux.json", {
                "fixture": "chip1",
                "flux_phi0": {"start": -0.2, "stop": -0.01, "num": 21}})),
        ]
        for command, cfg in runs:
            out1, out2 = str(tmp_path / f"{command}-a.csv"), str(tmp_path / f"{command}-b.csv")
            assert main(["--config", cfg, "--out", out1, command]) == 0
            stdout1 = capsys.readouterr().out
            assert main(["--config", cfg, "--out", out2, command]) == 0
            assert capsys.readouterr().out == stdout1
            assert open(out1, "rb").read() == open(out2, "rb").read(), command
        # there is no thread count to set, and the error names the option, not its value
        for args in (["--threads", "2", command], ["--threads=2", command],
                     [command, "--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(["--config", cfg, "--out", out2, *args])
            assert exc.value.code == 2
            assert "unrecognized arguments: --threads" in capsys.readouterr().err, args

    def test_zero_coupling_inline(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "inline": {"omega1_hz": 6.27e9, "alpha1_hz": -351e6,
                       "alpha2_hz": -312e6, "g_hz": 0.0},
            "delta_hz": {"start": 0.8e9, "stop": 2.0e9, "num": 5}})
        out = str(tmp_path / "zz.csv")
        assert main(["--config", cfg, "--out", out, "zz-sweep"]) == 0
        for r in read_zz_sweep_csv(out):
            assert r["zeta_exact_hz"] == 0.0
            assert r["zeta_perturbative_hz"] == 0.0

    def test_formula_columns_are_the_formulas_with_nan_empty(self, tmp_path):
        # the grid's only points within 1 MHz of a pole: |11> meets |02> at
        # delta = -|alpha2| and |20> at delta = |alpha1|
        near_poles = [-312.5e6, -312.0e6, 351.0e6, 351.5e6]
        deltas = np.unique(np.append(np.linspace(-1.2e9, 2.2e9, 301), near_poles))
        a1, a2, g = -351e6, -312e6, 200e6
        cfg = write_json(tmp_path / "cfg.json", {
            "inline": {"omega1_hz": 6.3e9, "alpha1_hz": a1, "alpha2_hz": a2, "g_hz": g},
            "delta_hz": deltas.tolist(), "series_order": 3})
        out = str(tmp_path / "zz.csv")
        assert main(["--config", cfg, "--out", out, "zz-sweep"]) == 0
        rows = read_zz_sweep_csv(out)
        assert [r["delta_hz"] for r in rows if r["zeta_perturbative_hz"] is None] == near_poles
        for column, want in (
                ("zeta_perturbative_hz", zeta_perturbative(g, deltas, a1, a2)),
                ("zeta_series_hz", zeta_series_high_detuning(g, deltas, a1, a2, order=3))):
            assert np.isnan(want).any() and not np.isnan(want).all()
            for row, value in zip(rows, want.tolist()):
                assert _same_cell(row[column], None if np.isnan(value) else value)

    @pytest.mark.parametrize("command,extra,field", [
        ("zz-sweep", {}, "delta_hz"),
        ("zz-sweep", {"delta_hz": {"start": 0.6e9, "stop": 2.4e9, "num": "x"}}, "delta_hz"),
        ("zz-sweep", {"delta_hz": {"start": 0.6e9, "stop": 2.4e9, "num": 7},
                      "levels_per_mode": 5}, "levels_per_mode"),
        ("blockade", {"pulse_lengths_s": ["x"]}, "pulse_lengths_s"),
        ("blockade", {"pulse_lengths_s": [float("nan")]}, "pulse_lengths_s"),
        ("blockade", {"pulse_lengths_s": [-20e-9]}, "pulse_lengths_s"),
        ("blockade", {"delays_s": [float("inf")]}, "delays_s"),
        ("blockade", {"dissipation": {"t1_s": 5}}, "t1_s"),
        ("blockade", {"dissipation": {"t1_s": [-1e-6, 1e-6]}}, "t1_s"),
        ("blockade", {"dissipation": {"t1_s": [float("nan"), 1e-6]}}, "t1_s"),
        ("blockade", {"readout_pad_s": "x"}, "readout_pad_s"),
        ("blockade", {"readout_pad_s": -1e-9}, "readout_pad_s"),
        # a gaussian's width is positive: a negative one once ran as its mirror image
        ("blockade", {"shape": "gaussian", "gaussian_sigma_s": -10e-9}, "gaussian_sigma_s"),
        ("blockade", {"shape": "gaussian", "gaussian_sigma_s": 0.0}, "gaussian_sigma_s"),
        ("blockade", {"gaussian_sigma_s": -10e-9}, "gaussian_sigma_s"),
        ("blockade", {"frame": "sideways"}, "frame"),
        ("blockade", {"shape": "square"}, "shape"),
        ("blockade", {"carrier_convention": "mirrored"}, "carrier_convention"),
        ("blockade", {"spectral": {"window_hz": "x"}}, "window_hz"),
        ("blockade", {"spectral": {}}, "window_hz"),
        ("blockade", {"spectral": {"window_hz": -1e6}}, "window_hz"),
        ("blockade", {"spectral": 5}, "spectral"),
        ("blockade", {"spectral": {"window_hz": 10e6, "offset_hz": float("nan")}}, "offset_hz"),
        ("blockade", {"spectral": {"window_hz": 10e6, "out": 5}}, "out"),
        ("zz-sweep", {"inline": {**INLINE, "omega1_hz": "x"}, "delta_hz": DELTAS}, "omega1_hz"),
        ("zz-sweep", {"inline": {**INLINE, "g_hz": float("nan")}, "delta_hz": DELTAS}, "g_hz"),
        ("zz-sweep", {"delta_hz": DELTAS, "spectrum_json": 7}, "spectrum_json"),
        ("flux-spectroscopy", {"flux_phi0": {"start": -0.1, "stop": -0.07, "num": 5},
                               "summary_json": 5}, "summary_json"),
        ("ramsey", {"free_time_s": {"start": 0.0, "stop": 1e-6, "num": 101},
                    "drive_offset_hz": "x"}, "drive_offset_hz"),
        ("ramsey", {"free_time_s": {"start": 0.0, "stop": 1e-6, "num": 3}}, "free_time_s"),
        ("ramsey", {"free_time_s": {"start": 0.0, "stop": 1e-6, "num": 101},
                    "zeta_hz": 50e6}, "zeta_hz"),
        ("blockade", {"zeta_hz": 50e6}, "zeta_hz"),
        ("optimize", {"variables": with_variable(0, low="x")}, "low"),
        ("optimize", {"variables": with_variable(2, high=float("nan"))}, "high"),
        ("optimize", {"variables": with_variable(1, name="foo")}, "name"),
        ("optimize", {"de": {"population": "x"}}, "population"),
        ("optimize", {"de": {"population": 6.5}}, "population"),
        ("optimize", {"de": {"seed": "x"}}, "seed"),
        ("optimize", {"de": {"generations": -1}}, "generations"),
        ("optimize", {"n_exc": "x"}, "n_exc"),
        ("optimize", {"n_exc": 1}, "n_exc"),
        ("optimize", {"constraints": {"freq_band_hz": "x"}}, "freq_band_hz"),
        ("optimize", {"constraints": {"min_abs_anharmonicity_hz": "x"}},
         "min_abs_anharmonicity_hz"),
        ("optimize", {"fixed": [1, 2]}, "fixed"),
        ("zz-sweep", {"delta_hz": [[1e9, 2e9]]}, "delta_hz"),
        ("zz-sweep", {"delta_hz": [1e9, float("nan")]}, "delta_hz"),
        ("zz-sweep", {"delta_hz": [1e9, float("inf")]}, "delta_hz"),
        ("zz-sweep", {"delta_hz": {"start": float("nan"), "stop": 2e9, "num": 5}}, "start"),
        ("blockade", {"readout_pad_s": True}, "readout_pad_s"),
        ("optimize", {"variables": [1, 2]}, "variables[0]"),
        ("optimize", {"variables": DESIGN_VARIABLES[:4]}, "c12_farads"),
        ("optimize", {"strict_mode": "false"}, "strict_mode"),
        # an int is no path: open() would take it for a file descriptor
        ("blockade", {"protocol": 1 << 20}, "blockade:protocol"),
        ("zz-sweep", {"delta_hz": DELTAS, "circuit": 1 << 20}, "zz-sweep:circuit"),
        # sizes past the schema's bounds: memory or time would run out first
        ("zz-sweep", {"delta_hz": {"start": 0.6e9, "stop": 2.4e9, "num": 1e12}},
         "delta_hz:num"),
        ("optimize", {"de": {"population": 1001, "generations": 2}}, "de:population"),
        ("zz-sweep", {"delta_hz": DELTAS, "levels_per_mode": [21, 3]}, "levels_per_mode"),
        # below two levels a mode has no |1>
        ("zz-sweep", {"delta_hz": DELTAS, "levels_per_mode": [1, 3]}, "levels_per_mode"),
        # numpy's generator takes no negative seed; a "--" key is a command-line flag
        ("optimize", {"de": {"population": 6, "generations": 2, "seed": -1}},
         "optimize:de:seed"),
        ("optimize", {"--seed": -1}, "--seed"),
        # a null seed would draw from fresh entropy, and reruns would differ
        ("optimize", {"de": {"population": 6, "generations": 2, "seed": None}},
         "optimize:de:seed"),
        # chip2's SQUIDs are symmetric: E_J = 0 at half flux
        ("flux-spectroscopy", {"fixture": "chip2",
                               "flux_phi0": {"start": 0.3, "stop": 0.5, "num": 5}},
         "flux-spectroscopy:flux_phi0: E_J/E_C = 0.00 < 1 at flux 0.5"),
        ("flux-spectroscopy", {"fixture": "chip2", "flux_phi0": [-0.2, -0.1, 0.0],
                               "q1_flux_phi0": 0.5}, "flux-spectroscopy:q1_flux_phi0"),
        # the fringe fit needs a uniform grid.  Every other point and the first
        # 50 of the rest moved by 0.3 ns once read 24.197 MHz against 19 MHz;
        # one extra 0.1 ns first step once raised FitError
        ("ramsey", {"drive_offset_hz": 33.5e6, "free_time_s": np.sort(np.concatenate(
            [RAMSEY_GRID[::2], RAMSEY_GRID[1:100:2] + 0.3e-9])).tolist()},
         "ramsey:free_time_s needs >= 4 evenly spaced points"),
        ("ramsey", {"drive_offset_hz": 33.5e6,
                    "free_time_s": [0.0, *(RAMSEY_GRID + 0.1e-9).tolist()]},
         "ramsey:free_time_s needs >= 4 evenly spaced points"),
        # a protocol file is the whole sequence: no grid key goes with it
        ("blockade", {"protocol": "protocol.json", "dissipation": {"t1_s": [1e-7, 1e-7]}},
         "got ['protocol', 'dissipation']"),
        ("blockade", {"protocol": "protocol.json", "spectral": {"window_hz": 10e6}},
         "got ['protocol', 'spectral']"),
        ("blockade", {"protocol": "protocol.json", "pulse_lengths_s": [20e-9]},
         "got ['protocol', 'pulse_lengths_s']"),
        # zz-sweep takes its system from exactly one source
        ("zz-sweep", {"circuit": "circuit.json", "delta_hz": DELTAS},
         "got ['fixture', 'circuit']"),
        ("zz-sweep", {"circuit": "circuit.json", "inline": INLINE, "delta_hz": DELTAS},
         "got ['circuit', 'inline']"),
    ], ids=["missing-grid", "num-not-integer", "levels-not-pair", "length-not-number",
            "length-nan", "length-negative", "delay-infinite", "t1-not-pair",
            "t1-negative", "t1-nan", "pad-not-number", "pad-negative", "sigma-negative",
            "sigma-zero", "sigma-negative-not-gaussian", "unknown-frame",
            "unknown-shape", "unknown-carrier-convention", "window-not-number",
            "window-missing", "window-negative", "spectral-not-object", "spectral-offset-nan",
            "spectral-out-not-path", "inline-omega-not-number", "inline-g-nan",
            "spectrum-json-not-path", "summary-json-not-path", "ramsey-offset-not-number",
            "ramsey-three-points", "ramsey-fixture-and-zeta", "blockade-fixture-and-zeta",
            "optimize-low-not-number", "optimize-high-nan", "optimize-unknown-variable",
            "optimize-population-not-number", "optimize-population-not-integer",
            "optimize-seed-not-number", "optimize-negative-generations",
            "optimize-n-exc-not-number", "optimize-n-exc-below-two",
            "optimize-band-not-pairs", "optimize-anharmonicity-not-number",
            "optimize-fixed-not-object", "grid-nested", "grid-nan", "grid-infinite",
            "grid-start-nan", "pad-boolean", "optimize-variables-not-objects",
            "optimize-variable-unset", "optimize-strict-mode-string", "protocol-not-path",
            "circuit-not-path", "grid-num-too-large", "optimize-population-too-large",
            "levels-too-large", "levels-below-two", "optimize-negative-seed",
            "optimize-negative-seed-flag", "optimize-null-seed", "flux-grid-not-transmon",
            "flux-q1-not-transmon", "ramsey-uneven-grid", "ramsey-short-first-step",
            "protocol-and-dissipation", "protocol-and-spectral", "protocol-and-lengths",
            "fixture-and-circuit", "circuit-and-inline"])
    def test_config_error_exit_code(self, tmp_path, capsys, monkeypatch, command, extra,
                                    field):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "circuit.json", CIRCUIT)
        write_json(tmp_path / "protocol.json", PROTOCOL)
        base = (DESIGN_CONFIG if command == "optimize"
                else {} if "inline" in extra else {"fixture": "chip1"})
        flags = [str(a) for k, v in extra.items() if k.startswith("--") for a in (k, v)]
        extra = {k: v for k, v in extra.items() if not k.startswith("--")}
        bad = write_json(tmp_path / "cfg.json", {**base, **extra})
        assert main(["--config", bad, "--out", str(tmp_path / "x.csv"), *flags,
                     command]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", [-10e-9, 0.0])
    def test_protocol_pulse_sigma_must_be_positive(self, tmp_path, capsys, sigma):
        pulse = {"shape": "gaussian", "amplitude_hz": 50e6, "duration_s": 40e-9,
                 "carrier_hz": 6.307e9, "gaussian_sigma_s": sigma}
        ppath = write_json(tmp_path / "protocol.json", {"pulses": [pulse]})
        cfg = write_json(tmp_path / "cfg.json", {"fixture": "chip1", "protocol": str(ppath)})
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv"), "blockade"]) == 2
        assert "pulses[0]:gaussian_sigma_s must be positive" in capsys.readouterr().err

    # pulse timings the float grid cannot resolve to 1e-9 of the shortest pulse: at
    # 1e300 s the exponential's scaling overflowed, and at +-1e10 s (float spacing
    # 1.9e-6 s) a 16 ns pulse vanished and its qubit read 0
    @pytest.mark.parametrize("extra,field", [
        ({"delays_s": [1e300]}, "blockade:delays_s"),
        ({"readout_pad_s": 1e300}, "blockade:readout_pad_s"),
        ({"pulse_lengths_s": [16e-9], "delays_s": [1e10]}, "blockade:delays_s"),
        ({"pulse_lengths_s": [16e-9], "delays_s": [-1e10]}, "blockade:delays_s"),
    ], ids=["delay-1e300", "pad-1e300", "delay-1e10", "delay-minus-1e10"])
    def test_unresolved_timing_exit_code(self, tmp_path, capsys, extra, field):
        cfg = write_json(tmp_path / "cfg.json", {"fixture": "chip1", **extra})
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv"), "blockade"]) == 2
        err = capsys.readouterr().err
        assert f"{field}: the time" in err and "not resolved" in err
        assert "Traceback" not in err

    def test_unresolved_protocol_pulse_exit_code(self, tmp_path, capsys):
        # a pulse at 1e12 s once ran as no pulse: both populations read 0
        pulse = {**PROTOCOL["pulses"][0], "start_time_s": 1e12}
        ppath = write_json(tmp_path / "protocol.json", {"pulses": [pulse]})
        cfg = write_json(tmp_path / "cfg.json", {"fixture": "chip1", "protocol": str(ppath)})
        assert main(["--config", cfg, "--out", str(tmp_path / "x.csv"), "blockade"]) == 2
        err = capsys.readouterr().err
        assert "pulses[0]:start_time_s: the time 1e+12 s is not resolved" in err
        assert "Traceback" not in err

    def test_resolved_late_pulse_runs(self, tmp_path):
        # 1 ms after the qubit-2 pulse, floats resolve a 16 ns pulse to 1.4e-11 of it:
        # the point reads as the same sequence 100 ns apart (the wait between is free)
        cfg = write_json(tmp_path / "cfg.json", {"fixture": "chip1", "pulse_lengths_s": [16e-9],
                                                 "delays_s": [100e-9, 1e-3]})
        out = str(tmp_path / "x.csv")
        assert main(["--config", cfg, "--out", out, "blockade"]) == 0
        near, late = read_blockade_csv(out)
        assert late["p2_e"] > 0.99
        for key in ("p1_e", "p2_e"):
            assert late[key] == pytest.approx(near[key], abs=1e-9)

    @pytest.mark.parametrize("command", ["zz-sweep", "blockade", "flux-spectroscopy",
                                         "optimize", "ramsey"])
    @pytest.mark.parametrize("config", [[], 3])
    def test_config_not_an_object_exit_code(self, tmp_path, capsys, command, config):
        bad = write_json(tmp_path / "cfg.json", config)
        assert main(["--config", bad, "--out", str(tmp_path / "x.csv"), command]) == 2
        assert f"{command} must be an object" in capsys.readouterr().err

    def test_missing_input_file_exit_code(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        for command, cfg in [("zz-sweep", {"circuit": missing, "delta_hz": DELTAS}),
                             ("blockade", {"protocol": missing, "fixture": "chip1"})]:
            key = "circuit" if command == "zz-sweep" else "protocol"
            bad = write_json(tmp_path / "cfg.json", cfg)
            assert main(["--config", bad, "--out", str(tmp_path / "x.csv"), command]) == 2
            assert f"{command}:{key}: cannot read" in capsys.readouterr().err
        assert main(["--config", missing, "--out", str(tmp_path / "x.csv"), "ramsey"]) == 2
        assert "--config: cannot read" in capsys.readouterr().err

    def test_design_config_base_is_valid(self, tmp_path):
        # the optimize error cases above differ from this config in one key
        cfg = write_json(tmp_path / "cfg.json", DESIGN_CONFIG)
        assert main(["--config", cfg, "--out", str(tmp_path / "d.json"), "optimize"]) == 0

    def test_exact_column_and_flag_match_dense_spectrum(self, tmp_path, chip1):
        # through resonance and the |alpha1| pole: the block core's zeta and
        # flag against diagonalize_and_label at the same truncation
        s1 = transmon_spectrum(chip1.qubits[0].transmon())
        alpha2 = chip1.qubits[1].alpha_hz
        deltas = np.linspace(-0.6e9, 0.8e9, 57)
        cfg = write_json(tmp_path / "cfg.json", {
            "fixture": "chip1", "delta_hz": deltas.tolist(), "levels_per_mode": [3, 4],
            "max_total_excitation": 3})
        out = str(tmp_path / "zz.csv")
        assert main(["--config", cfg, "--out", out, "zz-sweep"]) == 0
        rows = read_zz_sweep_csv(out)
        flags = []
        for row, delta in zip(rows, deltas):
            w2 = s1.omega01_hz - delta
            params = KerrParams(np.array([s1.omega01_hz, w2]),
                                np.array([s1.anharmonicity_hz, alpha2]), np.zeros((2, 2)),
                                exchange_g_hz=chip1.g_at(s1.omega01_hz, w2))
            spec = diagonalize_and_label(params, (3, 4), 3)
            try:
                zeta, flag = zeta_exact(spec), "0"
            except AmbiguousLabelError:
                zeta, flag = zeta_resonant(spec), "1"
            assert row["ambiguous_flag"] == flag
            assert row["zeta_exact_hz"] == pytest.approx(zeta, rel=1e-10, abs=1e-4)
            flags.append(flag)
        assert "1" in flags and "0" in flags

    def test_truncation_without_11_flags_every_row(self, tmp_path):
        cfg = self.config(tmp_path, max_total_excitation=1)
        out = str(tmp_path / "zz.csv")
        assert main(["--config", cfg, "--out", out, "zz-sweep"]) == 0
        rows = read_zz_sweep_csv(out)
        assert all(r["ambiguous_flag"] == "error:AmbiguousLabelError" for r in rows)
        assert all(r["zeta_exact_hz"] is None and r["zeta_perturbative_hz"] is not None
                   for r in rows)

    def test_unknown_config_key_exit_code(self, tmp_path):
        bad = write_json(tmp_path / "cfg.json", {
            "fixture": "chip1", "delta": {"start": 1, "stop": 2, "num": 3}})
        assert main(["--config", bad, "--out", str(tmp_path / "x.csv"),
                     "zz-sweep"]) == 2

    def test_spectrum_dump(self, tmp_path):
        dump = tmp_path / "spec.json"
        cfg = self.config(tmp_path, spectrum_json=str(dump))
        assert main(["--config", cfg, "--out", str(tmp_path / "zz.csv"),
                     "zz-sweep"]) == 0
        payload = json.loads(dump.read_text())
        assert "energies_hz" in payload and "beta_hz" in payload
        assert payload["zeta_hz"] == pytest.approx(4 * payload["beta_hz"][5])


class TestBlockadeCommand:
    def test_delay_grid_with_readout_matrix(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "fixture": "chip1",
            "pulse_lengths_s": [100e-9],
            "delays_s": [-80e-9, 80e-9],
            "readout_matrix": [[0.95, 0.05], [0.10, 0.90]],
        })
        out = str(tmp_path / "b.csv")
        assert main(["--config", cfg, "--out", out, "blockade"]) == 0
        rows = read_blockade_csv(out)
        assert len(rows) == 2
        # confusion matrix maps p=1 to 0.9 and p=0 to 0.05
        hi = max(r["p1_e_measured"] for r in rows)
        lo = min(r["p1_e_measured"] for r in rows)
        assert hi == pytest.approx(0.90, abs=0.02)
        assert lo == pytest.approx(0.05, abs=0.02)

    @pytest.mark.parametrize("extra,with_measured,tol", [
        ({"readout_matrix": [[0.97, 0.03], [0.07, 0.93]], "spectral": {"window_hz": 10e6}},
         True, 1e-9),
        ({"dissipation": {"t1_s": [7.8e-6, 8.8e-6], "t2_s": [5.0e-6, 1.1e-6]},
          "readout_pad_s": 10e-9}, False, 1e-9),
        ({"pulse_lengths_s": [4e-9], "frame": "lab"}, False, 2e-6),
    ], ids=["closed-spectral", "lindblad-pad", "lab"])
    def test_one_point_grids_match_the_protocol_run(self, tmp_path, extra, with_measured, tol):
        # the benchmark's warm-up shapes: one point at delay 0, through main();
        # the lab point's Magnus steps are laid out on other knots than the
        # protocol run's, and agree with it to their accuracy
        cfg = {"fixture": "chip1", "pulse_lengths_s": [20e-9], "delays_s": [0.0], **extra}
        out = tmp_path / "b.csv"
        assert main(["--config", write_json(tmp_path / "cfg.json", cfg), "--out", str(out),
                     "blockade"]) == 0
        header = "delay_s,pulse_len_s,p1_e,p2_e" + (
            ",p1_e_measured,p2_e_measured" if with_measured else "")
        assert out.read_text().splitlines()[0] == header
        row, = read_blockade_csv(str(out))
        bp = load_fixture("chip1").blockade_point
        system = TwoQubitSystem(bp["omega1_hz"], bp["omega2_hz"], bp["zeta_hz"])
        protocol = make_blockade_protocol(system, cfg["pulse_lengths_s"][0], 0.0,
                                          frame=cfg.get("frame", "rotating"),
                                          readout_pad_s=cfg.get("readout_pad_s", 0.0))
        dissipation = DissipationSpec((7.8e-6, 8.8e-6), (5.0e-6, 1.1e-6)) \
            if "dissipation" in cfg else None
        want = run_blockade_protocol(system, protocol, dissipation)
        assert (row["delay_s"], row["pulse_len_s"]) == (0.0, cfg["pulse_lengths_s"][0])
        assert row["p1_e"] == pytest.approx(want.p_excited(1)[-1], abs=tol)
        assert row["p2_e"] == pytest.approx(want.p_excited(2)[-1], abs=tol)
        if "spectral" in cfg:
            assert (tmp_path / "b.csv.spectral.csv").read_text().splitlines()[0] == \
                "pulse_len_s,spectral_fraction"

    @pytest.mark.parametrize("dissipation", [None, {"t1_s": [7.8e-6, 8.8e-6]}],
                             ids=["closed", "lindblad"])
    def test_protocol_file_row_is_the_protocol_run_readout(self, tmp_path, dissipation):
        # a protocol file runs as a one-point grid: in the rotating frame its row
        # is the per-point run's last population at the grid's tolerance
        protocol = {"delay_s": 40e-9, "pulses": [
            {"shape": "truncated_cosine", "amplitude_hz": 1.0 / 20e-9, "duration_s": 20e-9,
             "carrier_hz": 4.498e9, "target_qubit": 2},
            {"shape": "truncated_cosine", "amplitude_hz": 1.0 / 20e-9, "duration_s": 20e-9,
             "carrier_hz": 6.307e9, "start_time_s": 40e-9}]}
        if dissipation is not None:
            protocol["dissipation"] = dissipation
        ppath = write_json(tmp_path / "protocol.json", protocol)
        system = TwoQubitSystem(6.307e9, 4.498e9, 19e6)
        cfg = write_json(tmp_path / "cfg.json", {
            "omega1_hz": system.omega1_hz, "omega2_hz": system.omega2_hz,
            "zeta_hz": system.zeta_hz, "protocol": ppath})
        out = str(tmp_path / "b.csv")
        assert main(["--config", cfg, "--out", out, "blockade"]) == 0
        row, = read_blockade_csv(out)
        spec, dissipation, _ = load_protocol_file(ppath)
        want = run_blockade_protocol(system, spec, dissipation, rtol=GRID_RTOL)
        assert (row["delay_s"], row["pulse_len_s"]) == (40e-9, 20e-9)
        assert row["p1_e"] == pytest.approx(want.p_excited(1)[-1], abs=1e-12)
        assert row["p2_e"] == pytest.approx(want.p_excited(2)[-1], abs=1e-12)

    def test_grid_rows_keep_their_order(self, tmp_path):
        # delays outer, lengths inner, as the grid is written in the config
        delays, lengths = [60e-9, -40e-9, 0.0], [30e-9, 20e-9]
        cfg = write_json(tmp_path / "cfg.json", {
            "fixture": "chip1", "pulse_lengths_s": lengths, "delays_s": delays})
        out = str(tmp_path / "b.csv")
        assert main(["--config", cfg, "--out", out, "blockade"]) == 0
        rows = read_blockade_csv(out)
        assert [(r["delay_s"], r["pulse_len_s"]) for r in rows] == \
            [(d, ln) for d in delays for ln in lengths]

    def test_protocol_file_single_run(self, tmp_path):
        # hand-written protocol: pi pulse on qubit 2 then a blocked pulse on 1
        protocol = {
            "frame": "rotating",
            "delay_s": 120e-9,
            "pulses": [
                {"shape": "truncated_cosine", "amplitude_hz": 1.0 / 100e-9,
                 "duration_s": 100e-9, "carrier_hz": 4.498e9,
                 "target_qubit": 2},
                {"shape": "truncated_cosine", "amplitude_hz": 1.0 / 100e-9,
                 "duration_s": 100e-9, "carrier_hz": 6.307e9,
                 "start_time_s": 120e-9, "target_qubit": 1},
            ],
            "dissipation": {"t1_s": [7.8e-6, 8.8e-6]},
            "readout_matrix": [[0.95, 0.05], [0.10, 0.90]],
        }
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps(protocol))
        cfg = write_json(tmp_path / "cfg.json", {
            "zeta_hz": 19e6, "omega1_hz": 6.307e9, "omega2_hz": 4.498e9,
            "protocol": str(ppath)})
        out = str(tmp_path / "b.csv")
        assert main(["--config", cfg, "--out", out, "blockade"]) == 0
        row, = read_blockade_csv(out)
        assert row["p1_e"] < 0.1          # blocked
        assert row["p2_e"] > 0.9
        assert row["p1_e_measured"] == pytest.approx(
            (1 - row["p1_e"]) * 0.05 + row["p1_e"] * 0.90, abs=1e-9)

    @pytest.mark.parametrize("system,field", [
        ({"omega1_hz": "x", "omega2_hz": 4.498e9, "zeta_hz": 19e6}, "omega1_hz"),
        ({"omega1_hz": 6.307e9, "omega2_hz": 4.498e9, "zeta_hz": float("nan")}, "zeta_hz"),
    ], ids=["omega-not-number", "zeta-nan"])
    def test_explicit_system_is_validated(self, tmp_path, capsys, system, field):
        cfg = write_json(tmp_path / "cfg.json", {
            **system, "pulse_lengths_s": [20e-9], "delays_s": [0.0]})
        assert main(["--config", cfg, "--out", str(tmp_path / "b.csv"), "blockade"]) == 2
        assert field in capsys.readouterr().err

    def test_grid_readout_matrix_validated(self, tmp_path, capsys):
        # a non-stochastic or misshapen matrix is refused before any simulation
        out = tmp_path / "b.csv"
        for matrix in ([[2, -1], [0, 1]], [[0.9, 0.1]], [[0.9, 0.1], [0.2, "x"]],
                       [[[0.9, 0.1], [0.2, 0.8]], [[0.9, 0.2], [0.2, 0.8]]]):
            cfg = write_json(tmp_path / "cfg.json", {
                "fixture": "chip1", "pulse_lengths_s": [100e-9],
                "delays_s": [-80e-9], "readout_matrix": matrix})
            assert main(["--config", cfg, "--out", str(out), "blockade"]) == 2
            assert "readout_matrix" in capsys.readouterr().err
            assert not out.exists()

    def test_protocol_readout_matrix_validated(self, tmp_path, capsys):
        protocol = {
            "frame": "rotating",
            "pulses": [{"shape": "truncated_cosine", "amplitude_hz": 1.0 / 100e-9,
                        "duration_s": 100e-9, "carrier_hz": 6.307e9}],
        }
        ppath = tmp_path / "protocol.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "zeta_hz": 19e6, "omega1_hz": 6.307e9, "omega2_hz": 4.498e9,
            "protocol": str(ppath)})
        out = tmp_path / "b.csv"
        for matrix in ([[2, -1], [0, 1]], [[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]]):
            ppath.write_text(json.dumps(dict(protocol, readout_matrix=matrix)))
            assert main(["--config", cfg, "--out", str(out), "blockade"]) == 2
            assert "readout_matrix" in capsys.readouterr().err
            assert not out.exists()
        # a pair of matrices applies one per qubit
        pair = [[[0.95, 0.05], [0.10, 0.90]], [[1.0, 0.0], [0.0, 1.0]]]
        ppath.write_text(json.dumps(dict(protocol, readout_matrix=pair)))
        assert main(["--config", cfg, "--out", str(out), "blockade"]) == 0
        row, = read_blockade_csv(str(out))
        assert row["p1_e_measured"] == pytest.approx(
            (1 - row["p1_e"]) * 0.05 + row["p1_e"] * 0.90, abs=1e-12)
        assert row["p2_e_measured"] == pytest.approx(row["p2_e"], abs=1e-12)

    def test_protocol_file_unknown_key_rejected(self, tmp_path):
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps({"pulses": [], "frames": "lab"}))
        cfg = write_json(tmp_path / "cfg.json", {
            "zeta_hz": 19e6, "omega1_hz": 6.307e9, "omega2_hz": 4.498e9,
            "protocol": str(ppath)})
        assert main(["--config", cfg, "--out", str(tmp_path / "b.csv"),
                     "blockade"]) == 2

    @pytest.mark.parametrize("change,field", [
        ({"total_time_s": float("inf")}, "total_time_s"),
        ({"pulses": [{"shape": "rectangular", "amplitude_hz": float("nan"),
                      "duration_s": 10e-9, "carrier_hz": 6.307e9}]}, "amplitude_hz"),
        ({"pulses": [{"shape": "rectangular", "amplitude_hz": "x",
                      "duration_s": 10e-9, "carrier_hz": 6.307e9}]}, "pulses[0]"),
        ({"dissipation": {"t1_s": [8e-6, 8e-6], "t2_s": [float("nan"), 1e-6]}}, "t2_s"),
        ({"pulses": []}, "pulses"),
        ({"pulses": 5}, "pulses"),
        ({"pulses": [5]}, "pulses[0]"),
        # the command reads out at total_time_s only
        ({"readout_times_s": [5e-9, 12e-9]}, "protocol.json:readout_times_s"),
    ], ids=["total-time-infinite", "amplitude-nan", "amplitude-not-number", "t2-nan",
            "no-pulses", "pulses-not-list", "pulse-not-object", "readout-times"])
    def test_protocol_file_bad_value_is_config_error(self, tmp_path, capsys, change, field):
        protocol = {"frame": "rotating",
                    "pulses": [{"shape": "rectangular", "amplitude_hz": 50e6,
                                "duration_s": 10e-9, "carrier_hz": 6.307e9}]}
        ppath = tmp_path / "protocol.json"
        ppath.write_text(json.dumps({**protocol, **change}))
        cfg = write_json(tmp_path / "cfg.json", {
            "zeta_hz": 19e6, "omega1_hz": 6.307e9, "omega2_hz": 4.498e9,
            "protocol": str(ppath)})
        assert main(["--config", cfg, "--out", str(tmp_path / "b.csv"), "blockade"]) == 2
        assert field in capsys.readouterr().err

    def test_circuit_file_drives_zz_sweep(self, tmp_path):
        circuit = {
            "qubits": [
                {"ej_sum_hz": 36.652330937e9, "ec_hz": 308.885729e6,
                 "asymmetry_d": 0.48029436, "flux_phi0": 0.5},
                {"ej_sum_hz": 20.928219016e9, "ec_hz": 261.872188e6,
                 "asymmetry_d": 0.45779685, "flux_phi0": 0.0},
            ],
            "coupling": {"g_hz": 245.5e6},
        }
        cpath = write_json(tmp_path / "circuit.json", circuit)
        cfg = write_json(tmp_path / "cfg.json", {
            "circuit": cpath,
            "delta_hz": {"start": 1.5e9, "stop": 2.1e9, "num": 3}})
        out = str(tmp_path / "zz.csv")
        assert main(["--config", cfg, "--out", out, "zz-sweep"]) == 0
        rows = read_zz_sweep_csv(out)
        assert all(r["zeta_exact_hz"] < 0 for r in rows)

    def test_spectral_sidecar(self, tmp_path):
        spath = str(tmp_path / "sp.csv")
        cfg = write_json(tmp_path / "cfg.json", {
            "zeta_hz": 19e6, "omega1_hz": 6.307e9, "omega2_hz": 4.498e9,
            "pulse_lengths_s": [16e-9, 200e-9],
            "delays_s": [100e-9],
            "spectral": {"offset_hz": 19e6, "window_hz": 1.0 / 9.1e-6,
                         "out": spath},
        })
        out = str(tmp_path / "b.csv")
        assert main(["--config", cfg, "--out", out, "blockade"]) == 0
        from zzkit.io import read_spectral_csv
        rows = read_spectral_csv(spath)
        by_len = {r["pulse_len_s"]: r["spectral_fraction"] for r in rows}
        assert by_len[16e-9] > by_len[200e-9]

    def test_spectral_sidecar_takes_any_positive_window(self, tmp_path):
        # a 1 Hz window at |zeta| = 19 MHz on a 16 ns pulse holds 1.2e-8 of its power
        cfg = write_json(tmp_path / "cfg.json", {
            "fixture": "chip1", "pulse_lengths_s": [16e-9], "delays_s": [0.0],
            "spectral": {"window_hz": 1.0}})
        out = str(tmp_path / "w.csv")
        assert main(["--config", cfg, "--out", out, "blockade"]) == 0
        from zzkit.io import read_spectral_csv
        row, = read_spectral_csv(out + ".spectral.csv")
        assert row["pulse_len_s"] == 16e-9
        assert 0.0 < row["spectral_fraction"] < 1e-7


class TestFluxSpectroscopyCommand:
    def test_chip1_summary(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "fixture": "chip1",
            "flux_phi0": {"start": -0.2, "stop": -0.01, "num": 21},
            "summary_json": str(tmp_path / "summary.json"),
        })
        out = str(tmp_path / "flux.csv")
        assert main(["--config", cfg, "--out", out, "flux-spectroscopy"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["two_j_hz"] == pytest.approx(491e6, rel=0.05)
        assert summary["flux_at_min_phi0"] == pytest.approx(-0.1, abs=0.02)

    def test_summary_equals_avoided_crossing_j(self, tmp_path, chip1):
        # the command refines the gaps of the rows it wrote; single_excitation_scan
        # + refine_crossing on the same linspace give the same numbers exactly
        summary_path = tmp_path / "summary.json"
        cfg = write_json(tmp_path / "cfg.json", {
            "fixture": "chip1",
            "flux_phi0": {"start": -0.2, "stop": -0.01, "num": 21},
            "summary_json": str(summary_path),
        })
        assert main(["--config", cfg, "--out", str(tmp_path / "flux.csv"),
                     "flux-spectroscopy"]) == 0
        summary = json.loads(summary_path.read_text())
        q1f, q2f = chip1.qubits
        j, flux_min = crossing(q1f.transmon(float(q1f.default_flux_phi0)), q2f.transmon(),
                               chip1.coupling(), np.linspace(-0.2, -0.01, 21))
        assert summary["two_j_hz"] == 2.0 * float(j)
        assert summary["flux_at_min_phi0"] == flux_min

    def test_warns_once_per_scan_outside_transmon_regime(self, tmp_path):
        # chip2's symmetric SQUID puts qubit 2 at E_J/E_C 12.2, 10.2 and 8.1 on
        # this grid: one warning names the lowest, not one per flux
        cfg = write_json(tmp_path / "cfg.json", {"fixture": "chip2",
                                                 "flux_phi0": [0.44, 0.45, 0.46]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", cfg, "--out", str(tmp_path / "flux.csv"),
                         "flux-spectroscopy"]) == 0
        regime = [str(w.message) for w in caught if "transmon regime" in str(w.message)]
        assert regime == ["E_J/E_C = 8.1 < 20 at flux 0.46: outside the transmon regime"]

    def test_far_detuned_spectator_nearly_bare(self, tmp_path, chip1):
        # parking Q1 at its upper sweet-spot (9.2 GHz) leaves Q2 dressed only
        # by the residual dispersive pull g^2/(w2 - w1); with the device's own
        # coupling that is ~30 MHz, and the second-order prediction holds to
        # better than 1 MHz
        cfg = write_json(tmp_path / "cfg.json", {
            "fixture": "chip1", "q1_flux_phi0": 0.0,
            "flux_phi0": {"start": -0.05, "stop": 0.05, "num": 11},
        })
        out = str(tmp_path / "flux.csv")
        assert main(["--config", cfg, "--out", out, "flux-spectroscopy"]) == 0
        from zzkit.io import read_flux_csv
        for r in read_flux_csv(out):
            w1, w2 = r["omega1_bare_hz"], r["omega2_bare_hz"]
            g = chip1.g_at(w1, w2)
            lamb = g**2 / (w2 - w1)
            assert abs(r["dressed_lower_hz"] - (w2 + lamb)) < 1e6


class TestOptimizeCommand:
    def test_rosenbrock_smoke(self, tmp_path):
        cfg = write_json(tmp_path / "p.json", {
            "kind": "rosenbrock",
            "variables": [{"name": "a", "low": -2.0, "high": 2.0},
                          {"name": "b", "low": -1.0, "high": 3.0}],
            "de": {"seed": 11},
            "objective": "signed",
        })
        out = str(tmp_path / "r.json")
        assert main(["--config", cfg, "--out", out, "optimize"]) == 0
        payload = json.loads(open(out).read())
        assert payload["best_x"]["a"] == pytest.approx(1.0, abs=1e-3)
        assert payload["best_x"]["b"] == pytest.approx(1.0, abs=1e-3)
        hist = read_history_csv(out + ".history.csv")
        assert len(hist) == 200

    def test_infeasible_exit_code(self, tmp_path):
        cfg = write_json(tmp_path / "p.json", {
            "variables": [{"name": "ej1_hz", "low": 10e9, "high": 30e9},
                          {"name": "ej2_hz", "low": 10e9, "high": 30e9},
                          {"name": "c1_farads", "low": 40e-15, "high": 90e-15},
                          {"name": "c2_farads", "low": 40e-15, "high": 90e-15},
                          {"name": "c12_farads", "low": 1e-15, "high": 8e-15}],
            "constraints": {"freq_band_hz": [[40e9, 41e9], [40e9, 41e9]]},
            "de": {"population": 8, "generations": 2, "seed": 1},
            "n_exc": 3,
        })
        assert main(["--config", cfg, "--out", str(tmp_path / "r.json"),
                     "optimize"]) == 3

    def test_seed_reproducibility(self, tmp_path):
        cfg = write_json(tmp_path / "p.json", {
            "kind": "rosenbrock",
            "variables": [{"name": "a", "low": -2.0, "high": 2.0},
                          {"name": "b", "low": -1.0, "high": 3.0}],
            "de": {"generations": 40, "seed": 5},
            "objective": "signed",
        })
        o1, o2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        main(["--config", cfg, "--out", o1, "optimize"])
        main(["--config", cfg, "--out", o2, "optimize"])
        a = json.loads(open(o1).read())
        b = json.loads(open(o2).read())
        assert a["best_x"] == b["best_x"]
        assert a["history"] == b["history"]


class TestFosterFitCommand:
    def test_round_trip(self, tmp_path):
        omega0 = 2 * np.pi * 5e9
        mode = FosterMode(100.0 / omega0, 1.0 / (100.0 * omega0))
        omegas = 2 * np.pi * np.linspace(1e9, 9e9, 400)
        z = foster_impedance([mode], omegas)
        csv_path = tmp_path / "z.csv"
        write_admittance_csv(csv_path, omegas, z)
        out = str(tmp_path / "fit.json")
        assert main(["--out", out, "foster-fit", str(csv_path),
                     "--n-poles", "2"]) == 0
        payload = json.loads(open(out).read())
        assert len(payload["modes"]) == 1
        assert payload["modes"][0]["freq_hz"] == pytest.approx(5e9, rel=1e-6)
        assert payload["fit_error"] < 1e-9

    def test_bad_header_is_config_error(self, tmp_path):
        p = tmp_path / "z.csv"
        p.write_text("a,b,c\n1,2,3\n")
        assert main(["--out", str(tmp_path / "f.json"), "foster-fit", str(p),
                     "--n-poles", "2"]) == 2

    @pytest.mark.parametrize("samples,n_poles,message", [
        (None, 2, "samples_csv: cannot read"),
        ("increasing", 12, "--n-poles 12: need >= 48 samples"),
        ("decreasing", 2, "strictly increasing"),
        ("increasing", 0, "--n-poles 0: need at least one pole"),
        ("increasing", -1, "--n-poles -1: need at least one pole"),
    ], ids=["missing-file", "too-few-samples", "decreasing-frequencies", "zero-poles",
            "negative-poles"])
    def test_input_errors_exit_code(self, tmp_path, capsys, samples, n_poles, message):
        p = tmp_path / "z.csv"
        if samples is not None:
            omegas = 2 * np.pi * np.linspace(1e9, 9e9, 40)
            z = foster_impedance([FosterMode(1e-9, 1e-12)], omegas)
            step = 1 if samples == "increasing" else -1
            write_admittance_csv(p, omegas[::step], z[::step])
        assert main(["--out", str(tmp_path / "f.json"), "foster-fit", str(p),
                     "--n-poles", str(n_poles)]) == 2
        assert message in capsys.readouterr().err


class TestRamseyCommand:
    def test_even_grid_as_a_list_runs(self, tmp_path, capsys):
        # the linspace as a list, and the same times as k * step, are even
        for grid in (RAMSEY_GRID.tolist(), [k * 0.5e-9 for k in range(401)]):
            cfg = write_json(tmp_path / "cfg.json", {
                "fixture": "chip1", "drive_offset_hz": 33.5e6, "free_time_s": grid})
            assert main(["--config", cfg, "--out", str(tmp_path / "r.csv"), "ramsey"]) == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["zeta_inferred_hz"] == pytest.approx(19e6, rel=1e-3)

    def test_inferred_zeta(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "zeta_hz": 15.25e6, "omega1_hz": 6.307e9, "omega2_hz": 4.498e9,
            "free_time_s": {"start": 0.0, "stop": 2e-6, "num": 4001}})
        out = str(tmp_path / "ramsey.csv")
        assert main(["--config", cfg, "--out", out, "ramsey"]) == 0
        rows = read_ramsey_csv(out)
        diff = abs(rows[1]["fringe_hz"] - rows[0]["fringe_hz"])
        assert diff == pytest.approx(15.25e6, rel=1e-3)

    def test_overflowing_phases_exit_numeric(self, tmp_path, capsys):
        # the free-evolution phases 2 pi E t overflow on a grid reaching 1e300 s
        cfg = write_json(tmp_path / "cfg.json", {
            "fixture": "chip1", "free_time_s": {"start": 0.0, "stop": 1e300, "num": 101}})
        assert main(["--config", cfg, "--out", str(tmp_path / "r.csv"), "ramsey"]) == 4
        err = capsys.readouterr().err
        assert "numeric failure: FitError:" in err and "not finite" in err
        assert "Traceback" not in err

    # the pi/2 pulse's carrier, omega1 - offset, was a PulseSpec field: an offset of
    # -1e308 overflowed its cycle count, and zeta 1.5e308 made the default offset and
    # the carrier infinite (tracebacks).  Each branch's detuning now reaches the fit
    @pytest.mark.parametrize("system", [
        {"fixture": "chip1", "drive_offset_hz": -1e308},
        {"omega1_hz": 6e9, "omega2_hz": 4.5e9, "zeta_hz": 1.5e308},
    ], ids=["offset-minus-1e308", "zeta-1.5e308"])
    def test_extreme_detunings_exit_numeric(self, tmp_path, capsys, system):
        cfg = write_json(tmp_path / "cfg.json", {
            **system, "free_time_s": {"start": 0.0, "stop": 200e-9, "num": 401}})
        assert main(["--config", cfg, "--out", str(tmp_path / "r.csv"), "ramsey"]) == 4
        assert capsys.readouterr().err.startswith("numeric failure: FitError:")

    def test_main_runs_again_after_a_rejected_argv(self, tmp_path, capsys):
        # main() builds its parser once per process: a parse that argparse
        # rejects must leave it whole for the next command
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "x.csv"), "no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()
        cfg = write_json(tmp_path / "cfg.json", {
            "zeta_hz": 15.25e6, "omega1_hz": 6.307e9, "omega2_hz": 4.498e9,
            "free_time_s": {"start": 0.0, "stop": 1e-6, "num": 1001}})
        out = str(tmp_path / "ramsey.csv")
        assert main(["--config", cfg, "--out", out, "ramsey"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["zeta_model_hz"] == 15.25e6
        assert summary["zeta_inferred_hz"] == pytest.approx(15.25e6, rel=1e-3)
        assert [r["spectator_state"] for r in read_ramsey_csv(out)] == [0, 1]
