"""Command-line interface.

Subcommands: zz-sweep, blockade, flux-spectroscopy, optimize, foster-fit,
ramsey.  Every command reads a JSON config (--config), writes CSV/JSON data
for external plotting (--out) and is deterministic given its config and seed,
so reruns are byte identical.  --threads is accepted for compatibility and
has no effect.

Exit codes: 0 success, 2 config error, 3 no feasible optimizer result,
4 numeric failure.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import io as zio
from .circuit import Coupling, KerrParams, transmon_spectrum
from .dynamics import (
    TwoQubitSystem,
    make_blockade_protocol,
    pi_pulse,
    pulse_spectral_power,
    run_blockade_grid,
    run_blockade_protocol,
    run_conditional_ramsey,
)
from .errors import (
    AmbiguousLabelError,
    ConfigError,
    DomainError,
    NoFeasibleCandidateError,
    PoleError,
    ZZKitError,
)
from .fixtures import load_fixture
from .optimize import (
    VARIABLE_ORDER,
    Candidate,
    ConstraintSet,
    DEParams,
    OptimizationProblem,
    evaluate_population,
    optimize,
)
from .spectrum import (
    build_hamiltonian,
    diagonalize_and_label,
    dressed_blocks,
    pauli_decomposition,
    refine_crossing,
    single_excitation_scan,
    zeta_perturbative,
    zeta_series_high_detuning,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_FEASIBLE = 3
EXIT_NUMERIC = 4


def _load_config(path):
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _grid(cfg, key, context):
    spec = cfg.get(key)
    if spec is None:
        raise ConfigError(f"{context}: missing grid {key!r}")
    try:
        if isinstance(spec, list):
            grid = np.asarray(spec, dtype=float)
        else:
            zio._check_keys(spec, ["start", "stop", "num"], f"{context}:{key}")
            grid = np.linspace(float(spec["start"]), float(spec["stop"]), int(spec["num"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {key} must be a list of numbers or numeric "
                          f"start, stop and integer num ({type(exc).__name__}: {exc})") from exc
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ConfigError(f"{context}: {key} must be monotone with >= 2 points")
    return grid


def _config_int(value, context, field):
    """int(value), or a ConfigError naming the field unless the value is a whole number."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{context}: {field} must be an integer, got {value!r}") from exc
    if isinstance(value, float) and number != value:
        raise ConfigError(f"{context}: {field} must be an integer, got {value!r}")
    return number


def _config_float(value, context, field):
    """float(value), or a ConfigError naming the field unless it is a finite number."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {field} must be a number, got {value!r}") from exc
    if not np.isfinite(number):
        raise ConfigError(f"{context}: {field} must be finite, got {value!r}")
    return number


def _config_object(value, context, field):
    """value if it is a JSON object, or a ConfigError naming the field."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: {field} must be an object, got {value!r}")
    return value


def _config_path(value, context, field):
    """value if it is a path string, or a ConfigError naming the field."""
    if not isinstance(value, str):
        raise ConfigError(f"{context}: {field} must be a path string, got {value!r}")
    return value


def _config_floats(values, context, field):
    """A list of finite numbers, or a ConfigError naming the field."""
    if not isinstance(values, list):
        raise ConfigError(f"{context}: {field} must be a list of numbers, got {values!r}")
    return [_config_float(v, context, field) for v in values]


# ---------------------------------------------------------------- zz-sweep

def _sweep_system(cfg, context):
    """Resolve (omega1, alpha1, alpha2, coupling) from fixture, circuit file or inline keys."""
    if "fixture" in cfg:
        fx = load_fixture(cfg["fixture"])
        q1f, q2f = fx.qubits
        s1 = transmon_spectrum(q1f.transmon())
        return s1.omega01_hz, s1.anharmonicity_hz, q2f.alpha_hz, fx.coupling()
    if "circuit" in cfg:
        desc = zio.load_circuit_file(cfg["circuit"])
        s1 = transmon_spectrum(desc.qubits[0])
        s2 = transmon_spectrum(desc.qubits[1])
        return s1.omega01_hz, s1.anharmonicity_hz, s2.anharmonicity_hz, desc.coupling
    inline = cfg.get("inline")
    if inline is None:
        raise ConfigError(f"{context}: need one of 'fixture', 'circuit' or 'inline'")
    keys = ["omega1_hz", "alpha1_hz", "alpha2_hz", "g_hz"]
    zio._check_keys(_config_object(inline, context, "inline"), keys, context)
    for k in keys:
        if k not in inline:
            raise ConfigError(f"{context}: inline parameters need {k!r}")
    omega1, alpha1, alpha2, g = (_config_float(inline[k], f"{context}:inline", k) for k in keys)
    return omega1, alpha1, alpha2, Coupling.fixed(g)


def cmd_zz_sweep(cfg, out):
    zio._check_keys(cfg, ["fixture", "circuit", "inline", "delta_hz",
                          "levels_per_mode", "max_total_excitation",
                          "series_order", "spectrum_json"],
                    "zz-sweep")
    spectrum_json = cfg.get("spectrum_json")
    if spectrum_json is not None:
        _config_path(spectrum_json, "zz-sweep", "spectrum_json")
    omega1, alpha1, alpha2, coupling = _sweep_system(cfg, "zz-sweep")
    deltas = _grid(cfg, "delta_hz", "zz-sweep")
    levels = cfg.get("levels_per_mode", (4, 4))
    if not isinstance(levels, (list, tuple)) or len(levels) != 2:
        raise ConfigError(f"zz-sweep: levels_per_mode must hold two integers, got {levels!r}")
    levels = tuple(_config_int(n, "zz-sweep", "levels_per_mode") for n in levels)
    max_exc = cfg.get("max_total_excitation", 4)
    if max_exc is not None:
        max_exc = _config_int(max_exc, "zz-sweep", "max_total_excitation")
    order = _config_int(cfg.get("series_order", 4), "zz-sweep", "series_order")

    omega2 = omega1 - deltas
    g = np.broadcast_to(coupling.g_at(omega1, omega2), deltas.shape)
    rows = [{"delta_hz": delta, "zeta_exact_hz": None, "zeta_perturbative_hz": None,
             "zeta_series_hz": None, "ambiguous_flag": "0"} for delta in deltas]
    try:
        zetas, _, ambiguous = dressed_blocks(omega1, omega2, alpha1, alpha2, g, 0.0, levels,
                                             max_exc)
        for row, zeta, flag in zip(rows, zetas.tolist(), ambiguous.any(axis=1)):
            # on flagged rows the value equals zeta_resonant's (E_10 + E_01 = E_+ + E_-)
            row["zeta_exact_hz"], row["ambiguous_flag"] = zeta, "1" if flag else "0"
    except ZZKitError as exc:
        for row in rows:
            row["ambiguous_flag"] = f"error:{type(exc).__name__}"
    for row, delta, g_k in zip(rows, deltas, g):
        try:
            row["zeta_perturbative_hz"] = zeta_perturbative(g_k, delta, alpha1, alpha2)
        except (PoleError, ZeroDivisionError):
            pass
        try:
            row["zeta_series_hz"] = zeta_series_high_detuning(
                g_k, delta, alpha1, alpha2, order=order)
        except DomainError:
            pass

    zio.write_zz_sweep_csv(out, rows)
    zio.read_zz_sweep_csv(out)   # schema self-test

    if spectrum_json:
        params = KerrParams(np.array([omega1, omega2[0]]), np.array([alpha1, alpha2]),
                            np.zeros((2, 2)), exchange_g_hz=g[0])
        spec = diagonalize_and_label(build_hamiltonian(params, levels, max_exc))
        try:
            decomp = pauli_decomposition(spec, params.exchange_g_hz)
        except AmbiguousLabelError:
            decomp = None
        zio.write_json(spectrum_json, zio.spectrum_dump(spec, decomp))
    return EXIT_OK


# ---------------------------------------------------------------- blockade

def _blockade_system(cfg, context):
    """The system of a fixture's blockade point, or of explicit omega1, omega2 and zeta."""
    if "fixture" in cfg:
        for k in ("omega1_hz", "omega2_hz", "zeta_hz"):
            if k in cfg:
                raise ConfigError(f"{context}: give either fixture or explicit system fields, "
                                  f"not both (got fixture and {k!r})")
        fx = load_fixture(cfg["fixture"])
        bp = fx.blockade_point
        return TwoQubitSystem(bp["omega1_hz"], bp["omega2_hz"], bp["zeta_hz"]), fx
    for k in ("omega1_hz", "omega2_hz", "zeta_hz"):
        if k not in cfg:
            raise ConfigError(f"{context}: need fixture or explicit {k!r}")
    return TwoQubitSystem(*(_config_float(cfg[k], context, k)
                            for k in ("omega1_hz", "omega2_hz", "zeta_hz"))), None


def _blockade_row(delay, length, p1, p2, readout):
    """One CSV row: final excited populations, measured through readout if given."""
    row = {"delay_s": delay, "pulse_len_s": length, "p1_e": p1, "p2_e": p2}
    if readout is not None:
        m1, m2 = readout
        row["p1_e_measured"] = float((np.array([1 - p1, p1]) @ m1)[1])
        row["p2_e_measured"] = float((np.array([1 - p2, p2]) @ m2)[1])
    return row


def _spectral_config(cfg, system, out):
    """(offset_hz, window_hz, out path) of the blockade command's spectral block."""
    context = "blockade:spectral"
    sp = _config_object(cfg["spectral"], "blockade", "spectral")
    zio._check_keys(sp, ["offset_hz", "window_hz", "out"], context)
    offset = _config_float(sp.get("offset_hz", abs(system.zeta_hz)), context, "offset_hz")
    window = _config_float(zio._require(sp, "window_hz", context), context, "window_hz")
    if window <= 0:
        raise ConfigError(f"{context}: window_hz must be positive, got {window}")
    return offset, window, _config_path(sp.get("out", str(out) + ".spectral.csv"), context, "out")


def cmd_blockade(cfg, out):
    zio._check_keys(cfg, ["fixture", "omega1_hz", "omega2_hz", "zeta_hz",
                          "pulse_lengths_s", "delays_s", "shape", "frame",
                          "carrier_convention", "dissipation", "readout_matrix",
                          "spectral", "gaussian_sigma_s", "readout_pad_s",
                          "protocol"],
                    "blockade")
    system, _ = _blockade_system(cfg, "blockade")

    if "protocol" in cfg:
        # explicit protocol file: run the single sequence as written
        protocol, dissipation, readout = zio.load_protocol_file(cfg["protocol"])
        result = run_blockade_protocol(system, protocol, dissipation)
        row = _blockade_row(protocol.delay_s, max(p.duration_s for p in protocol.pulses),
                            float(result.p_excited(1)[-1]), float(result.p_excited(2)[-1]),
                            readout)
        zio.write_blockade_csv(out, [row], with_measured=readout is not None)
        zio.read_blockade_csv(out)
        return EXIT_OK
    lengths = _config_floats(cfg.get("pulse_lengths_s", [200e-9]), "blockade", "pulse_lengths_s")
    if any(length <= 0 for length in lengths):
        raise ConfigError(f"blockade: pulse_lengths_s must be positive, got {lengths}")
    delays = _config_floats(cfg.get("delays_s", [100e-9]), "blockade", "delays_s")
    shape = cfg.get("shape", "truncated_cosine")
    frame = cfg.get("frame", "rotating")
    convention = cfg.get("carrier_convention", "dressed")
    sigma = cfg.get("gaussian_sigma_s")
    if sigma is not None:
        sigma = _config_float(sigma, "blockade", "gaussian_sigma_s")
    readout_pad = _config_float(cfg.get("readout_pad_s", 0.0), "blockade", "readout_pad_s")
    if readout_pad < 0:
        raise ConfigError(f"blockade: readout_pad_s must be non-negative, got {readout_pad}")

    dissipation = (zio._dissipation_spec(cfg["dissipation"], "blockade")
                   if "dissipation" in cfg else None)
    readout = (zio.readout_matrices(cfg["readout_matrix"], "blockade")
               if "readout_matrix" in cfg else None)
    spectral = _spectral_config(cfg, system, out) if "spectral" in cfg else None
    try:
        # every protocol is built, and so checked, before any is simulated
        points = [(delay, length, make_blockade_protocol(
            system, length, delay, shape=shape, frame=frame, carrier_convention=convention,
            gaussian_sigma_s=sigma, readout_pad_s=readout_pad))
            for delay in delays for length in lengths]
    except ValueError as exc:
        raise ConfigError(f"blockade: {exc}") from exc

    rows = []
    if points:
        result = run_blockade_grid(system, [protocol for *_, protocol in points], dissipation)
        rows = [_blockade_row(delay, length, p1, p2, readout) for (delay, length, _), p1, p2
                in zip(points, result.p_excited(1).tolist(), result.p_excited(2).tolist())]
    zio.write_blockade_csv(out, rows, with_measured=readout is not None)
    zio.read_blockade_csv(out)

    if spectral is not None:
        offset, window, spath = spectral
        srows = []
        for ln in lengths:
            pulse = pi_pulse(shape, ln, system.omega1_hz, target_qubit=1,
                             gaussian_sigma_s=sigma)
            srows.append({"pulse_len_s": ln,
                          "spectral_fraction": pulse_spectral_power(pulse, offset, window)})
        zio.write_spectral_csv(spath, srows)
        zio.read_spectral_csv(spath)
    return EXIT_OK


# ------------------------------------------------------- flux spectroscopy

def cmd_flux_spectroscopy(cfg, out):
    zio._check_keys(cfg, ["fixture", "flux_phi0", "q1_flux_phi0", "summary_json"],
                    "flux-spectroscopy")
    if "fixture" not in cfg:
        raise ConfigError("flux-spectroscopy: needs a fixture with flux-tunable qubits")
    summary_json = cfg.get("summary_json")
    if summary_json is not None:
        _config_path(summary_json, "flux-spectroscopy", "summary_json")
    fx = load_fixture(cfg["fixture"])
    q1f, q2f = fx.qubits
    q1_flux = _config_float(cfg.get("q1_flux_phi0", q1f.default_flux_phi0),
                            "flux-spectroscopy", "q1_flux_phi0")
    fluxes = _grid(cfg, "flux_phi0", "flux-spectroscopy")
    q1 = q1f.transmon(q1_flux)
    q2 = q2f.transmon()
    coupling = fx.coupling()
    s1 = transmon_spectrum(q1)

    omega2, pairs = single_excitation_scan(s1, q2, coupling, fluxes)
    rows = [{"flux_phi0": flux, "omega1_bare_hz": s1.omega01_hz, "omega2_bare_hz": w2,
             "dressed_lower_hz": lo, "dressed_upper_hz": hi}
            for flux, w2, (lo, hi) in zip(fluxes, omega2.tolist(), pairs.tolist())]
    zio.write_flux_csv(out, rows)
    zio.read_flux_csv(out)

    summary = {"q1_flux_phi0": q1_flux, "omega1_bare_hz": float(s1.omega01_hz)}
    try:
        # the rows' own gaps: the grid is solved once
        j, flux_min = refine_crossing(s1, q2, coupling, fluxes, pairs[:, 1] - pairs[:, 0])
        summary.update({"two_j_hz": 2.0 * float(j), "flux_at_min_phi0": float(flux_min)})
    except ZZKitError as exc:
        summary.update({"two_j_hz": None, "flux_at_min_phi0": None,
                        "error": f"{type(exc).__name__}: {exc}"})
    print(json.dumps(summary, sort_keys=True))
    if summary_json:
        zio.write_json(summary_json, summary)
    return EXIT_OK


# ---------------------------------------------------------------- optimize

def _rosenbrock_evaluator(xs, problem):
    return [Candidate(x, -((x[0] - 1.0) ** 2) - 100.0 * (x[1] - x[0] * x[0]) ** 2, True, ())
            for x in xs]


def _problem_from_config(cfg, seed_override=None):
    zio._check_keys(cfg, ["kind", "variables", "fixed", "constraints", "de",
                          "n_exc", "objective", "strict_mode"], "optimize")
    kind = cfg.get("kind", "circuit")
    if kind not in ("circuit", "rosenbrock"):
        raise ConfigError(f"optimize: unknown kind {kind!r}")
    variables = []
    for v in cfg.get("variables", []):
        context = "optimize:variables"
        zio._check_keys(v, ["name", "low", "high"], context)
        if kind == "circuit" and v.get("name") not in VARIABLE_ORDER:
            raise ConfigError(f"{context}: name must be one of {list(VARIABLE_ORDER)}, "
                              f"got {v.get('name')!r}")
        variables.append((v.get("name"), _config_float(v.get("low"), context, "low"),
                          _config_float(v.get("high"), context, "high")))
    cons_cfg = cfg.get("constraints", {})
    context = "optimize:constraints"
    zio._check_keys(cons_cfg, ["freq_band_hz", "min_abs_anharmonicity_hz",
                               "min_ej_ec_ratio", "max_j_over_delta"], context)
    cons_kwargs = {k: _config_float(cons_cfg[k], context, k) for k in
                   ("min_abs_anharmonicity_hz", "min_ej_ec_ratio", "max_j_over_delta")
                   if k in cons_cfg}
    if "freq_band_hz" in cons_cfg:
        bands = cons_cfg["freq_band_hz"]
        if not (isinstance(bands, list) and len(bands) == 2
                and all(isinstance(b, list) and len(b) == 2 for b in bands)):
            raise ConfigError(f"{context}: freq_band_hz must hold two [low, high] pairs, "
                              f"got {bands!r}")
        cons_kwargs["freq_band_hz"] = tuple(
            tuple(_config_float(f, context, "freq_band_hz") for f in b) for b in bands)
    de_cfg = cfg.get("de", {})
    zio._check_keys(de_cfg, ["population", "generations", "mutation", "crossover",
                             "seed"], "optimize:de")
    if seed_override is not None:
        de_cfg = dict(de_cfg, seed=seed_override)
    de_kwargs = {k: value if value is None else (
        _config_float if k in ("mutation", "crossover") else _config_int)(value, "optimize:de", k)
        for k, value in de_cfg.items()}
    try:
        problem = OptimizationProblem(
            variables=tuple(variables),
            constraints=ConstraintSet(**cons_kwargs),
            de_params=DEParams(**de_kwargs),
            n_exc=_config_int(cfg.get("n_exc", 4), "optimize", "n_exc"),
            fixed=tuple((name, _config_float(value, "optimize:fixed", name))
                        for name, value in _config_object(cfg.get("fixed", {}), "optimize",
                                                          "fixed").items()),
            objective=cfg.get("objective", "abs"),
            strict_mode=bool(cfg.get("strict_mode", False)),
        )
    except ValueError as exc:
        raise ConfigError(f"optimize: {exc}") from exc
    if kind == "circuit":
        return problem, evaluate_population
    if problem.dimension != 2:
        raise ConfigError("optimize: rosenbrock smoke test needs 2 variables")
    return problem, _rosenbrock_evaluator


def cmd_optimize(cfg, out, seed_override=None):
    problem, evaluator = _problem_from_config(cfg, seed_override)
    best, history = optimize(problem, evaluator)
    payload = {
        "best_x": dict(zip(problem.names, [float(v) for v in best.x])),
        "zeta_hz": best.zeta_hz,
        "feasible": bool(best.feasible),
        "violations": {name: float(s) for name, s in best.violations},
        "history": [{"generation": h.generation,
                     "best_zeta_hz": None if np.isnan(h.best_zeta_hz) else h.best_zeta_hz,
                     "n_feasible": h.n_feasible} for h in history],
        "seed": problem.de_params.seed,
    }
    zio.write_json(out, payload)
    zio.write_history_csv(str(out) + ".history.csv", history)
    zio.read_history_csv(str(out) + ".history.csv")
    print(json.dumps({"zeta_hz": best.zeta_hz, "feasible": bool(best.feasible)},
                     sort_keys=True))
    return EXIT_OK


# --------------------------------------------------------------- foster-fit

def cmd_foster_fit(samples_csv, n_poles, out):
    from .vectorfit import foster_from_fit, vector_fit
    omegas, values = zio.load_admittance_csv(samples_csv)
    fit = vector_fit((omegas, values), n_poles)
    modes = foster_from_fit(fit)
    payload = {
        "fit_error": fit.fit_error,
        "direct_term": fit.direct_term,
        "poles": [[p.real, p.imag] for p in fit.poles],
        "residues": [[r.real, r.imag] for r in fit.residues],
        "modes": [{"l_henries": m.inductance_l, "c_farads": m.capacitance_c,
                   "r_ohms": None if np.isinf(m.resistance_r) else m.resistance_r,
                   "freq_hz": m.freq_hz, "kappa_rad_s": m.kappa_rad_s}
                  for m in modes],
    }
    zio.write_json(out, payload)
    print(json.dumps({"n_modes": len(modes), "fit_error": fit.fit_error}, sort_keys=True))
    return EXIT_OK


# ------------------------------------------------------------------ ramsey

def cmd_ramsey(cfg, out):
    zio._check_keys(cfg, ["fixture", "omega1_hz", "omega2_hz", "zeta_hz",
                          "free_time_s", "drive_offset_hz"], "ramsey")
    system, _ = _blockade_system(cfg, "ramsey")
    grid = _grid(cfg, "free_time_s", "ramsey")
    if grid.size < 4:
        raise ConfigError(f"ramsey: free_time_s needs >= 4 points for the fringe fit, "
                          f"got {grid.size}")
    offset = cfg.get("drive_offset_hz")
    if offset is not None:
        offset = _config_float(offset, "ramsey", "drive_offset_hz")
    rows = []
    for state in (0, 1):
        fringe = run_conditional_ramsey(system, state, grid, drive_offset_hz=offset)
        rows.append({"spectator_state": state, "fringe_hz": fringe})
    zio.write_ramsey_csv(out, rows)
    zio.read_ramsey_csv(out)
    inferred = abs(rows[1]["fringe_hz"] - rows[0]["fringe_hz"])
    print(json.dumps({"zeta_inferred_hz": inferred,
                      "zeta_model_hz": system.zeta_hz}, sort_keys=True))
    return EXIT_OK


# -------------------------------------------------------------------- main

def build_parser():
    parser = argparse.ArgumentParser(
        prog="zzkit",
        description="ZZ-interaction design toolkit for coupled transmons")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output path", default="zzkit_out")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("zz-sweep", "blockade", "flux-spectroscopy", "optimize", "ramsey"):
        sub.add_parser(name)
    foster = sub.add_parser("foster-fit")
    foster.add_argument("samples_csv")
    foster.add_argument("--n-poles", type=int, required=True)
    return parser


@functools.cache
def _parser():
    """build_parser() once per process: building costs far more than parsing."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "foster-fit":
            return cmd_foster_fit(args.samples_csv, args.n_poles, args.out)
        cfg = _load_config(args.config)
        if args.command == "zz-sweep":
            return cmd_zz_sweep(cfg, args.out)
        if args.command == "blockade":
            return cmd_blockade(cfg, args.out)
        if args.command == "flux-spectroscopy":
            return cmd_flux_spectroscopy(cfg, args.out)
        if args.command == "optimize":
            return cmd_optimize(cfg, args.out, args.seed)
        if args.command == "ramsey":
            return cmd_ramsey(cfg, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoFeasibleCandidateError as exc:
        print(f"no feasible result: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    except ZZKitError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
