"""Fuzz test of the command-line contract: exit 0, 2, 3 or 4, never a traceback.

Every command and input file is run through main() with one mutation of a
valid base: a key dropped, an unknown key added, a value of another JSON type,
a value nested wrongly, or NaN/+-Infinity.  The mutations change type, shape
and finiteness only, never a finite number into another one.  Every blockade
population written must lie in [0, 1].

Not covered: a grid `num` of 1e12 still ends in a MemoryError from
np.linspace, as finite sizes are not bounded by the schema.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzkit.cli import main
from zzkit.circuit import FosterMode, foster_impedance
from zzkit.io import read_blockade_csv

DESIGN_VARIABLES = [{"name": "ej1_hz", "low": 12e9, "high": 35e9},
                    {"name": "ej2_hz", "low": 12e9, "high": 35e9},
                    {"name": "c1_farads", "low": 45e-15, "high": 90e-15},
                    {"name": "c2_farads", "low": 45e-15, "high": 90e-15}]

# the command each target runs, and its valid base input; a path "@/name"
# stands for the file name in the example's directory
BASES = {
    "zz-sweep": ("zz-sweep", {
        "inline": {"omega1_hz": 6.27e9, "alpha1_hz": -351e6, "alpha2_hz": -312e6,
                   "g_hz": 5e6},
        "delta_hz": {"start": 0.8e9, "stop": 2.0e9, "num": 5},
        "levels_per_mode": [3, 3], "max_total_excitation": 3, "series_order": 4,
        "spectrum_json": "@/spectrum.json"}),
    "blockade": ("blockade", {
        "fixture": "chip1", "pulse_lengths_s": [20e-9, 30e-9], "delays_s": [0.0, 10e-9],
        "shape": "gaussian", "gaussian_sigma_s": 5e-9, "frame": "rotating",
        "carrier_convention": "dressed",
        "dissipation": {"t1_s": [7.8e-6, 8.8e-6], "t2_s": [5.0e-6, None]},
        "readout_matrix": [[[0.95, 0.05], [0.10, 0.90]], [[1.0, 0.0], [0.0, 1.0]]],
        "spectral": {"offset_hz": 19e6, "window_hz": 10e6, "out": "@/spectral.csv"},
        "readout_pad_s": 1e-9}),
    "flux-spectroscopy": ("flux-spectroscopy", {
        "fixture": "chip1", "flux_phi0": {"start": -0.1, "stop": -0.07, "num": 5},
        "q1_flux_phi0": 0.5, "summary_json": "@/summary.json"}),
    "optimize": ("optimize", {
        "kind": "circuit", "variables": DESIGN_VARIABLES, "fixed": {"c12_farads": 3e-15},
        "constraints": {"freq_band_hz": [[1e9, 20e9], [1e9, 20e9]],
                        "min_abs_anharmonicity_hz": 1e6, "min_ej_ec_ratio": 1.0,
                        "max_j_over_delta": 10.0},
        "de": {"population": 6, "generations": 2, "mutation": 0.7, "crossover": 0.9,
               "seed": 0},
        "n_exc": 3, "objective": "abs", "strict_mode": False}),
    "ramsey": ("ramsey", {
        "omega1_hz": 6.307e9, "omega2_hz": 4.498e9, "zeta_hz": 19e6,
        "free_time_s": {"start": 0.0, "stop": 1e-6, "num": 101}, "drive_offset_hz": 5e6}),
    "circuit file": ("zz-sweep", {
        "qubits": [{"ej_sum_hz": 36.65e9, "ec_hz": 0.309e9, "asymmetry_d": 0.48,
                    "flux_phi0": 0.5},
                   {"ej_sum_hz": 20.93e9, "ec_hz": 0.262e9, "asymmetry_d": 0.458,
                    "flux_phi0": 0.0}],
        "coupling": {"c12_farads": 5e-15}}),
    "protocol file": ("blockade", {
        "frame": "rotating", "delay_s": 10e-9, "total_time_s": 50e-9,
        "pulses": [{"shape": "truncated_cosine", "amplitude_hz": 5e7, "duration_s": 20e-9,
                    "carrier_hz": 4.498e9, "target_qubit": 2},
                   {"shape": "rectangular", "amplitude_hz": 2.5e7, "duration_s": 20e-9,
                    "carrier_hz": 6.307e9, "phase_rad": 0.1, "start_time_s": 10e-9,
                    "target_qubit": 1}],
        "dissipation": {"t1_s": [7.8e-6, 8.8e-6]},
        "readout_matrix": [[0.95, 0.05], [0.10, 0.90]]}),
}
# the file-input targets run their command on these configs
FILE_CONFIGS = {
    "circuit file": {"circuit": "@/input.json",
                     "delta_hz": {"start": 1.5e9, "stop": 2.1e9, "num": 3}},
    "protocol file": {"omega1_hz": 6.307e9, "omega2_hz": 4.498e9, "zeta_hz": 19e6,
                      "protocol": "@/input.json"},
}


def foster_samples():
    """A valid foster-fit input as rows of cells: header, then 40 samples."""
    omegas = 2 * np.pi * np.linspace(1e9, 9e9, 40)
    mode = FosterMode(100.0 / (2 * np.pi * 5e9), 1.0 / (100.0 * 2 * np.pi * 5e9))
    z = foster_impedance([mode], omegas)
    return [["freq_rad_s", "re_y", "im_y"]] + [
        [float(w), float(v.real), float(v.imag)] for w, v in zip(omegas, z)]


WRONG_TYPES = ["x", True, None, [], {}, 3, 0.5]


def json_type(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return float if isinstance(value, (int, float)) else type(value)


def positions(value, path=()):
    """Every place in a JSON value, as key/index paths from the root."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from positions(item, path + (key,))


@st.composite
def mutated(draw, base):
    """base with one mutation of type, shape or finiteness."""
    value = copy.deepcopy(base)
    path = draw(st.sampled_from(list(positions(value))))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else value
    ops = ["type", "nest", "nonfinite"] + (["drop"] if path else []) + (
        ["unknown"] if isinstance(target, dict) else [])
    op = draw(st.sampled_from(ops))
    if op == "unknown":
        target["unexpected_key"] = 1
        return value
    if op == "drop":
        del parent[path[-1]]
        return value
    if op == "type":
        new = draw(st.sampled_from([w for w in WRONG_TYPES
                                    if json_type(w) is not json_type(target)]))
    elif op == "nest":
        forms = [[target], {"value": target}] + (
            [target[0]] if isinstance(target, list) and target else [])
        new = draw(st.sampled_from(forms))
    else:
        new = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    if not path:
        return new
    parent[path[-1]] = new
    return value


def placed(value, directory):
    """value with every "@/name" path string moved into directory."""
    if isinstance(value, dict):
        return {k: placed(v, directory) for k, v in value.items()}
    if isinstance(value, list):
        return [placed(v, directory) for v in value]
    if isinstance(value, str) and value.startswith("@/"):
        return str(directory / value[2:])
    return value


def run_mutated(target, value):
    """Write the inputs of one example, run main() on them and check the outputs."""
    command = BASES[target][0] if target in BASES else "foster-fit"
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        out = directory / "out.csv"
        if target == "foster-fit":
            samples = directory / "samples.csv"
            rows = value if isinstance(value, list) else [value]
            samples.write_text("\n".join(
                ",".join(map(str, row)) if isinstance(row, list) else str(row)
                for row in rows) + "\n")
            argv = ["--out", str(out), "foster-fit", str(samples), "--n-poles", "2"]
        else:
            config = directory / "config.json"
            if target in FILE_CONFIGS:
                (directory / "input.json").write_text(json.dumps(placed(value, directory)))
                value = FILE_CONFIGS[target]
            config.write_text(json.dumps(placed(value, directory)))
            argv = ["--config", str(config), "--out", str(out), command]
        code = main(argv)
        assert code in (0, 2, 3, 4)
        if code == 0 and command == "blockade":
            for row in read_blockade_csv(str(out)):
                populations = [v for k, v in row.items() if k.startswith("p")]
                assert all(0.0 <= p <= 1.0 for p in populations), row
        return code


@pytest.mark.parametrize("target", list(BASES) + ["foster-fit"])
def test_bases_are_valid(target):
    # each mutation below differs from a base that runs to exit 0
    base = foster_samples() if target == "foster-fit" else BASES[target][1]
    assert run_mutated(target, base) == 0


@pytest.mark.parametrize("target", list(BASES) + ["foster-fit"])
def test_mutated_inputs_keep_the_exit_contract(target):
    base = foster_samples() if target == "foster-fit" else BASES[target][1]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(mutated(base))
    def check(value):
        run_mutated(target, value)

    check()
