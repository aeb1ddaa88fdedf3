"""Command-line interface.

Subcommands: zz-sweep, blockade, flux-spectroscopy, optimize, foster-fit,
ramsey.  Every command reads a JSON config (--config), writes CSV/JSON data
for external plotting (--out) and is deterministic given its config and seed,
so reruns are byte identical.

Exit codes: 0 success, 2 config error, 3 no feasible optimizer result,
4 numeric failure.
"""

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from . import io as zio
from .circuit import Coupling, KerrParams, transmon_pair, transmon_spectrum
from .dynamics import (
    END_PAD_S,
    FRAMES,
    PULSE_SHAPES,
    TwoQubitSystem,
    evenly_spaced,
    make_blockade_protocol,
    pi_pulse,
    pulse_spectral_power,
    run_blockade_grid,
    run_conditional_ramsey,
)
from .errors import (
    AmbiguousLabelError,
    ConfigError,
    NoFeasibleCandidateError,
    ZZKitError,
)
from .fixtures import FIXTURE_NAMES, load_fixture
from .io import Field, OneOf
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

FIXTURE = Field("fixture", zio.choice(*FIXTURE_NAMES), None)
# a blockade-point system: a fixture's, or explicit transitions and zeta
SYSTEM_KEYS = ("omega1_hz", "omega2_hz", "zeta_hz")
SYSTEM_FIELDS = (FIXTURE, *(Field(k, zio.number, None) for k in SYSTEM_KEYS),
                 OneOf((("fixture",), SYSTEM_KEYS), required=True))


def _blockade_system(cfg):
    """The system of a fixture's blockade point, or of explicit omega1, omega2 and zeta."""
    values = load_fixture(cfg["fixture"]).blockade_point if cfg["fixture"] else cfg
    return TwoQubitSystem(*(values[k] for k in SYSTEM_KEYS))


# ---------------------------------------------------------------- zz-sweep

INLINE_KEYS = ("omega1_hz", "alpha1_hz", "alpha2_hz", "g_hz")
ZZ_SWEEP_FIELDS = (
    FIXTURE, Field("circuit", zio.string, None),
    Field("inline", zio.record(tuple(Field(k, zio.number) for k in INLINE_KEYS)), None),
    Field("delta_hz", zio.grid),
    Field("levels_per_mode", zio.array(2, element=zio.integer), (4, 4),
          (lambda levels: 2 <= min(levels) and max(levels) <= 20, "entries must be 2 to 20")),
    Field("max_total_excitation", zio.optional(zio.integer), 4),
    Field("series_order", zio.integer, 4),
    Field("spectrum_json", zio.optional(zio.string), None),
    OneOf((("fixture",), ("circuit",), ("inline",)), required=True),
)


def _sweep_system(cfg):
    """(omega1, alpha1, alpha2, coupling): fixture (alpha2 as recorded), circuit file or inline."""
    if cfg["fixture"] is not None:
        fx = load_fixture(cfg["fixture"])
        q1f, q2f = fx.qubits
        s1 = transmon_spectrum(q1f.transmon())
        return s1.omega01_hz, s1.anharmonicity_hz, q2f.alpha_hz, fx.coupling()
    if cfg["circuit"] is not None:
        desc = zio.load_circuit_file(cfg["circuit"], "zz-sweep:circuit")
        (omega1, _), (alpha1, alpha2), _ = transmon_pair(
            [q.ej_hz for q in desc.qubits], [q.ec_hz for q in desc.qubits], desc.coupling)
        return float(omega1), float(alpha1), float(alpha2), desc.coupling
    omega1, alpha1, alpha2, g = (cfg["inline"][k] for k in INLINE_KEYS)
    return omega1, alpha1, alpha2, Coupling.fixed(g)


def cmd_zz_sweep(cfg, out):
    cfg = zio.parse(cfg, ZZ_SWEEP_FIELDS, "zz-sweep")
    with zio.config_errors("zz-sweep"):
        omega1, alpha1, alpha2, coupling = _sweep_system(cfg)
    deltas, levels, max_exc = cfg["delta_hz"], cfg["levels_per_mode"], cfg["max_total_excitation"]

    omega2 = omega1 - deltas
    g = np.broadcast_to(coupling.g_at(omega1, omega2), deltas.shape)
    try:
        zetas, _, ambiguous = dressed_blocks(omega1, omega2, alpha1, alpha2, g, 0.0, levels,
                                             max_exc)
        # on flagged rows the value equals zeta_resonant's (E_10 + E_01 = E_+ + E_-)
        flags = np.where(ambiguous.any(axis=1), "1", "0")
    except ZZKitError as exc:
        zetas, flags = np.full_like(deltas, np.nan), np.full(deltas.shape,
                                                              f"error:{type(exc).__name__}")
    # an overflow is an infinity, and inf * 0 a NaN: both are empty cells
    with np.errstate(over="ignore", invalid="ignore"):
        columns = [zetas, zeta_perturbative(g, deltas, alpha1, alpha2),
                   zeta_series_high_detuning(g, deltas, alpha1, alpha2, order=cfg["series_order"])]
    # a value that is not finite (no exact value, a point by a pole or outside the series'
    # domain, an overflow) is an empty cell
    columns = [np.where(np.isfinite(c), c, None).tolist() for c in columns]
    zio.write_csv(out, zio.ZZ_SWEEP_HEADER, [deltas, *columns, flags.tolist()])

    if cfg["spectrum_json"]:
        params = KerrParams(np.array([omega1, omega2[0]]), np.array([alpha1, alpha2]),
                            np.zeros((2, 2)), exchange_g_hz=g[0])
        spec = diagonalize_and_label(params, levels, max_exc)
        try:
            decomp = pauli_decomposition(spec, params.exchange_g_hz)
        except AmbiguousLabelError:
            decomp = None
        zio.write_json(cfg["spectrum_json"], zio.spectrum_dump(spec, decomp))
    return EXIT_OK


# ---------------------------------------------------------------- blockade

SPECTRAL_FIELDS = (Field("offset_hz", zio.number, None),
                   Field("window_hz", zio.number, check=(lambda w: w > 0, "must be positive")),
                   Field("out", zio.string, None))
# the keys of a grid of two-pulse points; a protocol file replaces all of them
SEQUENCE_FIELDS = (
    Field("pulse_lengths_s", zio.numbers, (200e-9,),
          (lambda lengths: all(x > 0 for x in lengths), "must be positive")),
    Field("delays_s", zio.numbers, (100e-9,)),
    Field("shape", zio.choice(*PULSE_SHAPES), "truncated_cosine"),
    Field("frame", zio.choice(*FRAMES), "rotating"),
    Field("carrier_convention", zio.choice("dressed", "shifted"), "dressed"),
    zio.DISSIPATION, zio.READOUT_MATRIX,
    Field("spectral", zio.record(SPECTRAL_FIELDS), None),
    Field("gaussian_sigma_s", zio.optional(zio.number), None,
          (lambda sigma: sigma is None or sigma > 0, "must be positive")),
    Field("readout_pad_s", zio.number, 0.0, (lambda t: t >= 0, "must be non-negative")),
)
BLOCKADE_FIELDS = SYSTEM_FIELDS + SEQUENCE_FIELDS + (
    Field("protocol", zio.string, None),
    OneOf((("protocol",), tuple(f.key for f in SEQUENCE_FIELDS))),
)


def cmd_blockade(cfg, out):
    cfg = zio.parse(cfg, BLOCKADE_FIELDS, "blockade")
    with zio.config_errors("blockade"):
        system = _blockade_system(cfg)

    lengths, shape, sigma = cfg["pulse_lengths_s"], cfg["shape"], cfg["gaussian_sigma_s"]
    if cfg["protocol"] is not None:
        # explicit protocol file: the single sequence as written, a one-point grid
        protocol, dissipation, readout = zio.load_protocol_file(cfg["protocol"],
                                                                "blockade:protocol")
        points = [(protocol.delay_s, max(p.duration_s for p in protocol.pulses), protocol)]
    else:
        dissipation, readout = cfg["dissipation"], cfg["readout_matrix"]
        # each point's pulses end by |delay| + length, and the shorter is length long
        ends = np.abs(cfg["delays_s"])[:, None] + lengths
        zio.check_resolved("blockade:delays_s", ends, lengths)
        zio.check_resolved("blockade:readout_pad_s", ends + END_PAD_S + cfg["readout_pad_s"],
                           lengths)
        with zio.config_errors("blockade"):
            # every protocol is built, and so checked, before any is simulated
            points = [(delay, length, make_blockade_protocol(
                system, length, delay, shape=shape, frame=cfg["frame"],
                carrier_convention=cfg["carrier_convention"], gaussian_sigma_s=sigma,
                readout_pad_s=cfg["readout_pad_s"]))
                for delay in cfg["delays_s"] for length in lengths]

    header = zio.BLOCKADE_HEADER + (zio.BLOCKADE_MEASURED if readout is not None else [])
    columns = [()] * len(header)
    if points:
        result = run_blockade_grid(system, [protocol for *_, protocol in points], dissipation)
        p = [result.p_excited(1), result.p_excited(2)]
        if readout is not None:
            # each qubit's (P(g), P(e)) through its confusion matrix: the measured P(e)
            p += [(np.stack([1 - pq, pq], -1) @ m)[:, 1] for pq, m in zip(p, readout)]
        columns = [*np.array([point[:2] for point in points], dtype=float).T, *p]
    zio.write_csv(out, header, columns)

    spectral = cfg["spectral"]
    if spectral is not None:
        offset = abs(system.zeta_hz) if spectral["offset_hz"] is None else spectral["offset_hz"]
        spath = str(out) + ".spectral.csv" if spectral["out"] is None else spectral["out"]
        fractions = [pulse_spectral_power(pi_pulse(shape, ln, system.omega1_hz, target_qubit=1,
                                                   gaussian_sigma_s=sigma),
                                          offset, spectral["window_hz"]) for ln in lengths]
        zio.write_csv(spath, zio.SPECTRAL_HEADER, [lengths, fractions])
    return EXIT_OK


# ------------------------------------------------------- flux spectroscopy

FLUX_FIELDS = (Field("fixture", zio.choice(*FIXTURE_NAMES)), Field("flux_phi0", zio.grid),
               Field("q1_flux_phi0", zio.number, None),
               Field("summary_json", zio.optional(zio.string), None))


def cmd_flux_spectroscopy(cfg, out):
    cfg = zio.parse(cfg, FLUX_FIELDS, "flux-spectroscopy")
    fx = load_fixture(cfg["fixture"])
    q1f, q2f = fx.qubits
    q1_flux = float(q1f.default_flux_phi0 if cfg["q1_flux_phi0"] is None
                    else cfg["q1_flux_phi0"])
    fluxes = cfg["flux_phi0"]
    q1 = q1f.transmon(q1_flux)
    q2 = q2f.transmon()
    coupling = fx.coupling()
    with zio.config_errors("flux-spectroscopy:q1_flux_phi0"):
        s1 = transmon_spectrum(q1)
    with zio.config_errors("flux-spectroscopy:flux_phi0"):
        omega2, pairs = single_excitation_scan(s1, q2, coupling, fluxes)
    zio.write_csv(out, zio.FLUX_HEADER,
                  [fluxes, np.full_like(fluxes, s1.omega01_hz), omega2, *pairs.T])

    summary = {"q1_flux_phi0": q1_flux, "omega1_bare_hz": float(s1.omega01_hz)}
    try:
        # the rows' own gaps: the grid is solved once
        j, flux_min = refine_crossing(s1, q2, coupling, fluxes, pairs[:, 1] - pairs[:, 0])
        summary.update({"two_j_hz": 2.0 * float(j), "flux_at_min_phi0": float(flux_min)})
    except ZZKitError as exc:
        summary.update({"two_j_hz": None, "flux_at_min_phi0": None,
                        "error": f"{type(exc).__name__}: {exc}"})
    print(json.dumps(summary, sort_keys=True))
    if cfg["summary_json"]:
        zio.write_json(cfg["summary_json"], summary)
    return EXIT_OK


# ---------------------------------------------------------------- optimize

def _rosenbrock_evaluator(xs, problem):
    return [Candidate(x, -((x[0] - 1.0) ** 2) - 100.0 * (x[1] - x[0] * x[0]) ** 2, True, ())
            for x in xs]


def _problem(seed_override, kind, variables, fixed, constraints, de, n_exc, objective,
             strict_mode):
    """The OptimizationProblem of an optimize config and the evaluator of its kind."""
    names = [v["name"] for v in variables]
    fixed = {name: value for name, value in fixed.items() if value is not None}
    if kind == "circuit":
        for name in names:
            if name not in VARIABLE_ORDER:
                raise ValueError(f"variables: name must be one of {list(VARIABLE_ORDER)}, "
                                 f"got {name!r}")
        unset = [name for name in VARIABLE_ORDER if name not in names and name not in fixed]
        if unset:
            raise ValueError(f"variables and fixed leave {unset} unset")
    elif len(variables) != 2:
        raise ValueError("rosenbrock smoke test needs 2 variables")
    problem = OptimizationProblem(
        variables=tuple((v["name"], v["low"], v["high"]) for v in variables),
        constraints=constraints,
        de_params=de if seed_override is None else replace(de, seed=seed_override),
        n_exc=n_exc, fixed=tuple(fixed.items()), objective=objective, strict_mode=strict_mode)
    return problem, evaluate_population if kind == "circuit" else _rosenbrock_evaluator


CONSTRAINT_FIELDS = (Field("freq_band_hz", zio.array(2, 2), ConstraintSet.freq_band_hz),) + tuple(
    Field(k, zio.number, getattr(ConstraintSet, k))
    for k in ("min_abs_anharmonicity_hz", "min_ej_ec_ratio", "max_j_over_delta"))
DE_FIELDS = (
    Field("population", zio.optional(zio.integer), DEParams.population,
          (lambda n: n is None or n <= 1000, "must be at most 1000")),
    Field("generations", zio.integer, DEParams.generations),
    Field("mutation", zio.number, DEParams.mutation),
    Field("crossover", zio.number, DEParams.crossover),
    Field("seed", zio.integer, DEParams.seed, (lambda n: n >= 0, "must be non-negative")),
)
OPTIMIZE_FIELDS = (
    Field("kind", zio.choice("circuit", "rosenbrock"), "circuit"),
    Field("variables", zio.records((Field("name", zio.string), Field("low", zio.number),
                                    Field("high", zio.number))), ()),
    Field("fixed", zio.record(tuple(Field(k, zio.number, None) for k in VARIABLE_ORDER)), {}),
    Field("constraints", zio.record(CONSTRAINT_FIELDS, ConstraintSet), ConstraintSet()),
    Field("de", zio.record(DE_FIELDS, DEParams), DEParams()),
    Field("n_exc", zio.integer, 4),
    Field("objective", zio.choice("abs", "signed"), "abs"),
    Field("strict_mode", zio.boolean, False),
)


def cmd_optimize(cfg, out, seed_override=None):
    problem, evaluator = zio.parse(cfg, OPTIMIZE_FIELDS, "optimize",
                                   functools.partial(_problem, seed_override))
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
    # the header names GenerationRecord's fields
    zio.write_csv(str(out) + ".history.csv", zio.HISTORY_HEADER,
                  [[getattr(h, name) for h in history] for name in zio.HISTORY_HEADER])
    print(json.dumps({"zeta_hz": best.zeta_hz, "feasible": bool(best.feasible)},
                     sort_keys=True))
    return EXIT_OK


# --------------------------------------------------------------- foster-fit

def cmd_foster_fit(samples_csv, n_poles, out):
    from .vectorfit import foster_from_fit, vector_fit
    omegas, values = zio.load_admittance_csv(samples_csv)
    with zio.config_errors(f"foster-fit {samples_csv} --n-poles {n_poles}"):
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

RAMSEY_FIELDS = SYSTEM_FIELDS + (
    Field("free_time_s", zio.grid, check=(lambda t: t.size >= 4 and evenly_spaced(t),
                                          "needs >= 4 evenly spaced points for the fringe fit")),
    Field("drive_offset_hz", zio.optional(zio.number), None),
)


def cmd_ramsey(cfg, out):
    cfg = zio.parse(cfg, RAMSEY_FIELDS, "ramsey")
    with zio.config_errors("ramsey"):
        system = _blockade_system(cfg)
    offset = cfg["drive_offset_hz"]
    # the fit reads |offset + s zeta|, which folds at 0 Hz: both branches on one side
    if offset is not None and (offset == 0 or np.sign(offset) != np.sign(offset + system.zeta_hz)):
        raise ConfigError(f"ramsey:drive_offset_hz and drive_offset_hz + zeta must be nonzero "
                          f"and of one sign, got {offset!r} and {offset + system.zeta_hz!r}")
    fringes = run_conditional_ramsey(system, cfg["free_time_s"], drive_offset_hz=offset)
    zio.write_csv(out, zio.RAMSEY_HEADER, [range(len(fringes)), fringes])
    inferred = abs(fringes[1] - fringes[0])
    print(json.dumps({"zeta_inferred_hz": inferred,
                      "zeta_model_hz": system.zeta_hz}, sort_keys=True))
    return EXIT_OK


# -------------------------------------------------------------------- main

@functools.cache
def build_parser():
    """(parser, head), built once per process: building costs far more than parsing.

    head parses only the options before the command.  argparse alone passes
    over an unknown option there and takes its value for the command, so its
    error names the value; head's leftovers name the option.
    """
    head = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    head.add_argument("--config", help="JSON configuration file")
    head.add_argument("--out", help="output path", default="zzkit_out")
    head.add_argument("--seed", type=int, default=None)
    parser = argparse.ArgumentParser(
        prog="zzkit", description="ZZ-interaction design toolkit for coupled transmons",
        parents=[head])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("zz-sweep", "blockade", "flux-spectroscopy", "optimize", "ramsey"):
        sub.add_parser(name)
    foster = sub.add_parser("foster-fit")
    foster.add_argument("samples_csv")
    foster.add_argument("--n-poles", type=int, required=True)
    # after the full parser has copied the options: it keeps its own help and command
    head.add_argument("-h", "--help", action="store_true")
    head.add_argument("command", nargs=argparse.REMAINDER)
    return parser, head


def main(argv=None):
    parser, head = build_parser()
    try:
        unknown = head.parse_known_args(argv)[1]
    except argparse.ArgumentError:          # a bad value: the full parser reports it
        unknown = []
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args = parser.parse_args(argv)
    try:
        if args.command == "foster-fit":
            return cmd_foster_fit(args.samples_csv, args.n_poles, args.out)
        if args.config is None:
            raise ConfigError("--config is required for this command")
        cfg = zio.read_json(args.config, "--config")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        if args.command == "optimize":
            return cmd_optimize(cfg, args.out, args.seed)
        return {"zz-sweep": cmd_zz_sweep, "blockade": cmd_blockade, "ramsey": cmd_ramsey,
                "flux-spectroscopy": cmd_flux_spectroscopy}[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoFeasibleCandidateError as exc:
        print(f"no feasible result: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    except (ZZKitError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
