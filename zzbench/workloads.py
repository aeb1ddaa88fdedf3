"""Seeded workload inputs, the CLI commands of one pass, and their references.

`generate(name, seed, inputs_dir, fixture)` writes every input file of one
workload and returns a plan: the warm-up commands, the timed commands (argv
lists for `zzkit.cli.main`, with "{pass}" standing for the pass's output
directory) and, per output group, the reference values and tolerances the
checker compares against.  Only numpy/scipy and `reference` are used here, so
the references are computed without any zzkit code.  With references=False
the costly blockade populations are skipped: a plan used only for its
commands and operation counts (the neighbouring seed's) does not need them.

The seed moves every grid by a small jitter (or, for `design`, sets the DE
seed), so that two seeds run the same number of operations of the same cost.
"""

import json
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("sweep", "design", "blockade", "lab_frame")
# the host-speed kernel mix (speed.KERNELS) that resembles each workload's hot path
SPEED_KERNEL = {"sweep": "spectral", "design": "spectral", "blockade": "dynamics",
                "lab_frame": "dynamics"}

REL_TOL = 1e-6          # spectra, fits and design zeta (criterion 11 uses 1e-6 for modes)
FLUX_MIN_TOL = 1e-5     # flux of the minimum gap, in flux quanta
POP_TOL = 1e-6          # rotating-frame populations against the split-step reference
SPECTRAL_TOL = (0.1, 1e-4)   # relative + absolute: the CLI resolves the window to bins of window/20
FRINGE_TOL = 1e-3       # Ramsey fringe frequency, relative (acceptance criterion 9)
FRAME_TOL = 0.02        # lab-frame populations against the rotating-frame reference (criterion 10)

# err_max reports max(deviation, resolution).  Each resolution sits 1.6 to 1.8
# times above the largest raw deviation seen over forty seeds (6.1e-12
# relative on sweep and design, 1.1e-9 absolute on blockade, the truncation
# error of the adaptive integrator), so err_max is steady at the baseline and
# a change that makes the outputs a few times less accurate shows in it.
RESOLUTION = {"sweep": 1e-11, "design": 1e-11, "blockade": 2e-9, "lab_frame": 2e-9}

# The Ramsey windows are a fixed lattice, not seeded: the spectator fit misfits
# on scattered windows (about one in five between 0.2 and 1.2 us), so a seeded
# draw would make the failure count swing from seed to seed.  The lattice keeps
# the short windows, 0.4 us included, where the misfit shows.
RAMSEY_WINDOWS_S = tuple(round(0.1e-6 * k, 12) for k in range(2, 21))
# The known defect: the (window, spectator state) fringes that
# run_conditional_ramsey misfits at the baseline.  Only these may fail and
# leave `correct` true; a misfit anywhere else is an unexpected failure.
RAMSEY_MISFITS = {(0.4e-6, 0), (0.5e-6, 1), (0.9e-6, 1), (1.8e-6, 0)}
RAMSEY_POINTS = 401
RAMSEY_OFFSET_HZ = 33.5e6


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))
    return str(path)


def _cmd(name, *argv):
    return {"name": name, "argv": list(argv)}


def _group(command, kind, count, fields=None, exact=None, extra=None):
    """One output group: `count` rows of `kind` written by `command`.

    fields: {column: (reference values, "rel" | "abs", tol, counts toward err_max)}.
    exact: {column: values that must come back bit for bit}.
    """
    return {"command": command, "kind": kind, "count": count,
            "fields": fields or {}, "exact": exact or {}, "extra": extra or {}}


def _jitter(rng, scale, size=None):
    return scale * rng.uniform(-1.0, 1.0, size)


# ------------------------------------------------------------------ sweep

def _sweep(rng, inputs, fixture):
    delta = {"start": -1.2e9 + _jitter(rng, 20e6), "stop": 2.2e9 + _jitter(rng, 20e6),
             "num": 2000}
    flux = {"start": -0.16 + _jitter(rng, 0.005), "stop": -0.02 + _jitter(rng, 0.005),
            "num": 400}
    zz_cfg = _write_json(inputs / "zz_sweep.json", {"fixture": "chip1", "delta_hz": delta})
    flux_cfg = _write_json(inputs / "flux.json", {"fixture": "chip1", "flux_phi0": flux})
    commands = [_cmd("zz-sweep", "--config", zz_cfg, "--out", "{pass}/zz_sweep.csv", "zz-sweep"),
                _cmd("flux-spectroscopy", "--config", flux_cfg, "--out", "{pass}/flux.csv",
                     "flux-spectroscopy")]

    w1, a1 = ref.chip_q1(fixture)
    k = ref.coupling_k(fixture)
    deltas = np.linspace(delta["start"], delta["stop"], delta["num"])
    w2 = w1 - deltas
    # the CLI takes qubit 2's anharmonicity from the fixture record
    zeta = ref.block_zeta(w1, w2, a1, fixture["qubits"][1]["alpha_hz"], k * np.sqrt(w1 * w2))
    fluxes = np.linspace(flux["start"], flux["stop"], flux["num"])
    scan = ref.flux_scan(fixture, fluxes)
    groups = [
        _group("zz-sweep", "sweep_point", len(deltas),
               fields={"zeta_exact_hz": (zeta, "rel", REL_TOL, True)},
               exact={"delta_hz": deltas}),
        _group("flux-spectroscopy", "flux_point", len(fluxes),
               fields={c: (scan[c], "rel", REL_TOL, True)
                       for c in ("omega1_bare_hz", "omega2_bare_hz",
                                 "dressed_lower_hz", "dressed_upper_hz")},
               exact={"flux_phi0": fluxes}),
        _group("flux-spectroscopy", "flux_summary", 1,
               fields={"two_j_hz": ([scan["two_j_hz"]], "rel", REL_TOL, True),
                       "flux_at_min_phi0": ([scan["flux_at_min_phi0"]], "abs",
                                            FLUX_MIN_TOL, False)}),
    ]
    omegas = 2 * np.pi * np.linspace(0.5e9, 15e9, 600)
    for k_fit, n_modes in enumerate((1, 2, 3, 4, 1, 2, 3, 4)):
        freqs = np.sort(rng.uniform(2e9, 12e9, n_modes))
        while n_modes > 1 and np.any(np.diff(freqs) < 0.8e9):
            freqs = np.sort(rng.uniform(2e9, 12e9, n_modes))
        z = ref.foster_impedance(freqs, rng.uniform(40.0, 150.0, n_modes), omegas)
        path = inputs / f"network{k_fit}.csv"
        with open(path, "w") as fh:
            fh.write("freq_rad_s,re_y,im_y\n")
            for om, v in zip(omegas, z):
                fh.write(f"{float(om)!r},{float(v.real)!r},{float(v.imag)!r}\n")
        name = f"foster-fit-{k_fit}"
        commands.append(_cmd(name, "--out", f"{{pass}}/fit{k_fit}.json", "foster-fit",
                             str(path), "--n-poles", str(2 * n_modes)))
        groups.append(_group(name, "fit", 1, extra={"freqs_hz": freqs.tolist()}))

    tiny_zz = _write_json(inputs / "tiny_zz.json",
                          {"fixture": "chip1", "delta_hz": {"start": 1e9, "stop": 1.1e9, "num": 3}})
    tiny_flux = _write_json(inputs / "tiny_flux.json",
                            {"fixture": "chip1", "flux_phi0": {"start": -0.1, "stop": -0.07, "num": 5}})
    warmup = [_cmd("zz-sweep", "--config", tiny_zz, "--out", "{pass}/zz.csv", "zz-sweep"),
              _cmd("flux-spectroscopy", "--config", tiny_flux, "--out", "{pass}/flux.csv",
                   "flux-spectroscopy"),
              _cmd("foster-fit", "--out", "{pass}/fit.json", "foster-fit",
                   str(inputs / "network0.csv"), "--n-poles", "2")]
    return commands, warmup, groups


# ----------------------------------------------------------------- design

DESIGN_PROBLEM = {
    "kind": "circuit",
    "variables": [{"name": "ej1_hz", "low": 12e9, "high": 35e9},
                  {"name": "ej2_hz", "low": 12e9, "high": 35e9},
                  {"name": "c1_farads", "low": 45e-15, "high": 90e-15},
                  {"name": "c2_farads", "low": 45e-15, "high": 90e-15},
                  {"name": "c12_farads", "low": 0.5e-15, "high": 8e-15}],
    "constraints": {"freq_band_hz": [[5.5e9, 7.0e9], [4.0e9, 5.2e9]],
                    "min_abs_anharmonicity_hz": 200e6, "min_ej_ec_ratio": 25.0,
                    "max_j_over_delta": 0.25},
    "n_exc": 4,
}
DESIGN_GENERATIONS = 80


def _design(seed, inputs):
    cfg = dict(DESIGN_PROBLEM, de={"population": 30, "generations": DESIGN_GENERATIONS,
                                   "seed": int(seed)})
    path = _write_json(inputs / "optimize.json", cfg)
    # wide constraints, so that the tiny warm-up search always ends feasible
    loose = {"freq_band_hz": [[1e9, 20e9], [1e9, 20e9]], "min_abs_anharmonicity_hz": 1e6,
             "min_ej_ec_ratio": 1.0, "max_j_over_delta": 10.0}
    tiny = _write_json(inputs / "tiny_optimize.json",
                       dict(DESIGN_PROBLEM, constraints=loose,
                            de={"population": 6, "generations": 2, "seed": 0}))
    commands = [_cmd("optimize", "--config", path, "--out", "{pass}/design.json", "optimize")]
    warmup = [_cmd("optimize", "--config", tiny, "--out", "{pass}/design.json", "optimize")]
    groups = [_group("optimize", "de_run", 1, extra={"problem": DESIGN_PROBLEM,
                                                     "generations": DESIGN_GENERATIONS})]
    return commands, warmup, groups


# --------------------------------------------------------------- dynamics

def _blockade_groups(command, system, points, matrix=None, lindblad=None, readout_pad=0.0,
                     references=True):
    if not references:
        return _group(command, "grid_point", len(points))
    p1, p2, ref_err = ref.blockade_populations(points, system["zeta_hz"], lindblad,
                                               2e-9 + readout_pad)
    fields = {"p1_e": (p1, "abs", POP_TOL, True), "p2_e": (p2, "abs", POP_TOL, True)}
    if matrix is not None:
        m = np.asarray(matrix)
        fields["p1_e_measured"] = ((1 - p1) * m[0, 1] + p1 * m[1, 1], "abs", POP_TOL, True)
        fields["p2_e_measured"] = ((1 - p2) * m[0, 1] + p2 * m[1, 1], "abs", POP_TOL, True)
    exact = {"delay_s": [d for d, _ in points], "pulse_len_s": [ln for _, ln in points]}
    return _group(command, "grid_point", len(points), fields, exact,
                  extra={"reference_error": ref_err})


def _blockade(rng, inputs, fixture, references):
    system = fixture["blockade_point"]
    q1, q2 = fixture["qubits"]
    lengths = [float(x) for x in np.array([30e-9, 60e-9, 100e-9, 160e-9]) * (1 + _jitter(rng, 0.03, 4))]
    delays = [float(x) for x in np.linspace(-100e-9, 100e-9, 13) + _jitter(rng, 2e-9, 13)]
    f0, f1 = 0.97 + _jitter(rng, 0.02), 0.93 + _jitter(rng, 0.03)
    matrix = [[f0, 1 - f0], [1 - f1, f1]]
    closed = _write_json(inputs / "blockade.json", {
        "fixture": "chip1", "pulse_lengths_s": lengths, "delays_s": delays,
        "readout_matrix": matrix, "spectral": {"window_hz": 10e6}})
    open_lengths = [float(x) for x in np.array([40e-9, 80e-9, 120e-9, 160e-9]) * (1 + _jitter(rng, 0.03, 4))]
    open_delays = [float(x) for x in np.linspace(-60e-9, 60e-9, 5) + _jitter(rng, 2e-9, 5)]
    t1 = [q1["t1_s"], q2["t1_s"]]
    t2 = [q1["t2_star_s"], q2["t2_star_s"]]
    readout_pad = 200e-9
    opened = _write_json(inputs / "lindblad.json", {
        "fixture": "chip1", "pulse_lengths_s": open_lengths, "delays_s": open_delays,
        "dissipation": {"t1_s": t1, "t2_s": t2}, "readout_pad_s": readout_pad})
    commands = [_cmd("blockade", "--config", closed, "--out", "{pass}/blockade.csv", "blockade"),
                _cmd("blockade-lindblad", "--config", opened, "--out", "{pass}/lindblad.csv",
                     "blockade")]
    points = [(d, ln) for d in delays for ln in lengths]
    open_points = [(d, ln) for d in open_delays for ln in open_lengths]
    offset = abs(system["zeta_hz"])
    groups = [
        _blockade_groups("blockade", system, points, matrix, references=references),
        _group("blockade", "spectral", len(lengths),
               fields={"spectral_fraction": ([ref.spectral_fraction(ln, offset, 10e6)
                                              for ln in lengths], "rel+abs", SPECTRAL_TOL, False)},
               exact={"pulse_len_s": lengths}),
        _blockade_groups("blockade-lindblad", system, open_points, lindblad=(t1, t2),
                         readout_pad=readout_pad, references=references),
    ]
    lines = [RAMSEY_OFFSET_HZ, RAMSEY_OFFSET_HZ + abs(system["zeta_hz"])]
    for k, window in enumerate(RAMSEY_WINDOWS_S):
        cfg = _write_json(inputs / f"ramsey{k}.json", {
            "fixture": "chip1", "drive_offset_hz": RAMSEY_OFFSET_HZ,
            "free_time_s": {"start": 0.0, "stop": window, "num": RAMSEY_POINTS}})
        name = f"ramsey-{k}"
        commands.append(_cmd(name, "--config", cfg, "--out", f"{{pass}}/ramsey{k}.csv", "ramsey"))
        misfits = [state for w, state in sorted(RAMSEY_MISFITS) if w == window]
        groups.append(_group(name, "ramsey_fringe", 2,
                             fields={"fringe_hz": (lines, "rel", FRINGE_TOL, False)},
                             exact={"spectator_state": [0.0, 1.0]},
                             extra={"known_misfits": misfits}))

    tiny_closed = _write_json(inputs / "tiny_blockade.json", {
        "fixture": "chip1", "pulse_lengths_s": [20e-9], "delays_s": [0.0],
        "readout_matrix": matrix, "spectral": {"window_hz": 10e6}})
    tiny_open = _write_json(inputs / "tiny_lindblad.json", {
        "fixture": "chip1", "pulse_lengths_s": [20e-9], "delays_s": [0.0],
        "dissipation": {"t1_s": t1, "t2_s": t2}, "readout_pad_s": 10e-9})
    tiny_ramsey = _write_json(inputs / "tiny_ramsey.json", {
        "fixture": "chip1", "free_time_s": {"start": 0.0, "stop": 1e-6, "num": 101}})
    warmup = [_cmd("blockade", "--config", tiny_closed, "--out", "{pass}/b.csv", "blockade"),
              _cmd("blockade", "--config", tiny_open, "--out", "{pass}/l.csv", "blockade"),
              _cmd("ramsey", "--config", tiny_ramsey, "--out", "{pass}/r.csv", "ramsey")]
    return commands, warmup, groups


def _lab_frame(rng, inputs, fixture, references):
    """Two short two-pulse points in the lab frame, each beside its rotating-frame twin."""
    system = fixture["blockade_point"]
    length = 16e-9 * (1 + _jitter(rng, 0.01))
    delays = [-10e-9 + _jitter(rng, 0.2e-9), 10e-9 + _jitter(rng, 0.2e-9)]
    points = [(d, length) for d in delays]
    commands, groups = [], []
    for frame, name in (("lab", "lab-frame"), ("rotating", "lab-frame-twin")):
        cfg = _write_json(inputs / f"{name}.json", {
            "fixture": "chip1", "pulse_lengths_s": [length], "delays_s": delays, "frame": frame})
        commands.append(_cmd(name, "--config", cfg, "--out", f"{{pass}}/{name}.csv", "blockade"))
    twin = _blockade_groups("lab-frame-twin", system, points, references=references)
    lab = _group("lab-frame", "grid_point", len(points))
    if references:
        # the lab frame is held to the rotating-frame reference at criterion 10's
        # bound: the difference is the physics the rotating frame drops
        lab["fields"] = {col: (values, "abs", FRAME_TOL, True)
                         for col, (values, *_rest) in twin["fields"].items()}
        lab["exact"] = twin["exact"]
    groups = [lab, twin]
    tiny = _write_json(inputs / "tiny_lab.json", {
        "fixture": "chip1", "pulse_lengths_s": [4e-9], "delays_s": [0.0], "frame": "lab"})
    warmup = [_cmd("blockade", "--config", tiny, "--out", "{pass}/lab.csv", "blockade")]
    return commands, warmup, groups


def generate(name, seed, inputs_dir, fixture, references=True):
    inputs = Path(inputs_dir)
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
    if name == "sweep":
        commands, warmup, groups = _sweep(rng, inputs, fixture)
    elif name == "design":
        commands, warmup, groups = _design(seed, inputs)
    elif name == "blockade":
        commands, warmup, groups = _blockade(rng, inputs, fixture, references)
    else:
        commands, warmup, groups = _lab_frame(rng, inputs, fixture, references)
    return {"workload": name, "seed": int(seed), "commands": commands, "warmup": warmup,
            "groups": groups, "resolution": RESOLUTION[name]}
