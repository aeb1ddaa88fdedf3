"""Constrained maximization of the ZZ strength by differential evolution.

DE/rand/1/bin over circuit design variables (junction energies and
capacitances): each candidate is mapped to Kerr parameters, truncated to a
total excitation cap, diagonalized, and scored by zeta, subject to

    C1  qubit frequencies inside a target band,
    C2  a minimum |anharmonicity|,
    C3  capacitance bounds (the variable bounds themselves),
    C4  a minimum E_J/E_C ratio,
    C5  dispersive operation, J/|Delta| below a threshold.

Selection is feasibility-first: a feasible trial beats an infeasible
incumbent, feasible candidates compete on the objective with ties accepted,
and two infeasible candidates compete on total constraint violation so an
all-infeasible population can still move toward feasibility.  The literal
accept-only-feasible-improvements rule is available as strict_mode.  Great
care is taken to keep runs reproducible: every candidate index owns a
seed-derived RNG stream, so serial and parallel evaluation give identical
populations.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .circuit import SquidSpec, TransmonSpec, two_transmon_kerr
from .constants import charging_energy_hz
from .errors import NoFeasibleCandidateError, ZZKitError
from .spectrum import build_hamiltonian, diagonalize_and_label, zeta_exact

VARIABLE_ORDER = ("ej1_hz", "ej2_hz", "c1_farads", "c2_farads", "c12_farads")


@dataclass(frozen=True)
class ConstraintSet:
    """Thresholds for the five design constraints (Hz and dimensionless)."""

    freq_band_hz: tuple = ((4.0e9, 8.0e9), (4.0e9, 8.0e9))
    min_abs_anharmonicity_hz: float = 150e6
    min_ej_ec_ratio: float = 20.0
    max_j_over_delta: float = 0.5

    def __post_init__(self):
        for lo, hi in self.freq_band_hz:
            if not (0 < lo < hi):
                raise ValueError("freq_band_hz entries must satisfy 0 < lo < hi")
        if self.min_abs_anharmonicity_hz <= 0 or self.min_ej_ec_ratio <= 0 \
                or self.max_j_over_delta <= 0:
            raise ValueError("constraint thresholds must be positive")


@dataclass(frozen=True)
class DEParams:
    population: int = None        # default 15 * dimension
    generations: int = 200
    mutation: float = 0.7
    crossover: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.population is not None and self.population < 4:
            raise ValueError("population must be >= 4 (mutation needs 3 partners)")
        if not 0 < self.mutation < 2:
            raise ValueError("mutation factor must lie in (0, 2)")
        if not 0 <= self.crossover <= 1:
            raise ValueError("crossover rate must lie in [0, 1]")


@dataclass(frozen=True)
class OptimizationProblem:
    """Named, bounded design variables plus constraint set and DE settings.

    variables maps names from VARIABLE_ORDER to (low, high) bounds; names not
    listed are pinned by `fixed`.  n_exc caps the total excitation number of
    the diagnostic Hamiltonian; for n_exc >= 2 it sets only the problem size,
    not zeta (see build_hamiltonian).  objective "abs" maximizes |zeta|,
    "signed" maximizes zeta itself.
    """

    variables: tuple                       # ((name, low, high), ...)
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    de_params: DEParams = field(default_factory=DEParams)
    n_exc: int = 4
    fixed: tuple = ()                      # ((name, value), ...)
    objective: str = "abs"
    strict_mode: bool = False

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(tuple(v) for v in self.variables))
        object.__setattr__(self, "fixed", tuple(tuple(v) for v in self.fixed))
        if not self.variables:
            raise ValueError("need at least one design variable")
        for name, lo, hi in self.variables:
            if not np.isfinite(lo) or not np.isfinite(hi) or lo > hi:
                raise ValueError(f"bad bounds for {name}: ({lo}, {hi})")
        if self.objective not in ("abs", "signed"):
            raise ValueError("objective must be 'abs' or 'signed'")

    @property
    def names(self):
        return tuple(v[0] for v in self.variables)

    @property
    def bounds(self):
        return np.array([[v[1], v[2]] for v in self.variables], dtype=float)

    @property
    def dimension(self):
        return len(self.variables)

    def population_size(self):
        n = self.de_params.population
        return n if n is not None else max(15 * self.dimension, 4)

    def decode(self, x):
        values = dict(self.fixed)
        values.update(zip(self.names, np.asarray(x, dtype=float)))
        return values


@dataclass(frozen=True)
class Candidate:
    """One evaluated design point: variable vector, zeta, and constraint slacks."""

    x: np.ndarray
    zeta_hz: float
    feasible: bool
    violations: tuple          # ((constraint name, slack), ...) positive = violated

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))

    @property
    def total_violation(self):
        return sum(max(s, 0.0) for _, s in self.violations)


def _objective(problem, cand):
    if not cand.feasible or cand.zeta_hz is None:
        return -np.inf
    return abs(cand.zeta_hz) if problem.objective == "abs" else cand.zeta_hz


def evaluate_candidate(x, problem):
    """Build the circuit at x, extract zeta, and score constraints C1-C5.

    Evaluation failures (diagonalization trouble, labeling degeneracies) mark
    the candidate infeasible with an 'evaluation_error' violation instead of
    aborting the run.
    """
    values = problem.decode(x)
    missing = [n for n in VARIABLE_ORDER if n not in values]
    if missing:
        raise ValueError(f"problem does not determine variables: {missing}")
    cons = problem.constraints
    violations = []
    try:
        c1, c2, c12 = values["c1_farads"], values["c2_farads"], values["c12_farads"]
        ec1 = charging_energy_hz(c1 + c12)
        ec2 = charging_energy_hz(c2 + c12)
        q1 = TransmonSpec(SquidSpec(values["ej1_hz"]), ec1)
        q2 = TransmonSpec(SquidSpec(values["ej2_hz"]), ec2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = two_transmon_kerr(q1, q2, c12, (c1, c2))
        levels = min(problem.n_exc + 1, 6)
        spec = diagonalize_and_label(
            build_hamiltonian(params, (levels, levels), problem.n_exc))
        zeta = zeta_exact(spec)

        w = params.mode_freqs_hz
        alpha = params.self_kerr_hz
        for i, (lo, hi) in enumerate(cons.freq_band_hz):
            violations.append((f"C1_q{i + 1}_freq_band",
                               max(lo - w[i], w[i] - hi)))
        for i in range(2):
            violations.append((f"C2_q{i + 1}_anharmonicity",
                               cons.min_abs_anharmonicity_hz - abs(alpha[i])))
        for name, lo, hi in problem.variables:
            if name.startswith("c"):
                v = values[name]
                violations.append((f"C3_{name}", max(lo - v, v - hi)))
        ratios = (values["ej1_hz"] / ec1, values["ej2_hz"] / ec2)
        for i, r in enumerate(ratios):
            violations.append((f"C4_q{i + 1}_ej_ec", cons.min_ej_ec_ratio - r))
        delta = abs(w[0] - w[1])
        j_over_delta = np.inf if delta == 0 else params.exchange_g_hz / delta
        violations.append(("C5_j_over_delta", j_over_delta - cons.max_j_over_delta))
    except (ZZKitError, ValueError) as exc:
        violations.append((f"evaluation_error:{type(exc).__name__}", 1.0))
        return Candidate(x, None, False, tuple(violations))
    feasible = all(s <= 0 for _, s in violations)
    return Candidate(x, float(zeta), feasible, tuple(violations))


def _reflect(x, lo, hi):
    """Fold out-of-bounds components back inside (preserves boundary density)."""
    span = hi - lo
    y = np.where(span > 0, x, np.clip(x, lo, hi))
    with np.errstate(invalid="ignore"):
        t = np.mod(np.abs(y - lo), 2 * np.where(span > 0, span, 1.0))
        folded = np.where(t > span, 2 * span - t, t)
    return np.where(span > 0, lo + folded, np.clip(x, lo, hi))


def _accepts(problem, trial, incumbent):
    if problem.strict_mode:
        return trial.feasible and (
            not incumbent.feasible
            or _objective(problem, trial) >= _objective(problem, incumbent))
    if trial.feasible and not incumbent.feasible:
        return True
    if trial.feasible and incumbent.feasible:
        return _objective(problem, trial) >= _objective(problem, incumbent)
    if not trial.feasible and not incumbent.feasible:
        return trial.total_violation <= incumbent.total_violation
    return False


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_zeta_hz: float        # objective value of best feasible candidate (nan if none)
    n_feasible: int


def optimize(problem, evaluator=None, callback=None):
    """Run DE/rand/1/bin for the configured number of generations.

    Returns (best candidate, history).  history carries the best feasible
    objective value per generation (monotone non-decreasing by construction)
    and the feasible count.  Raises NoFeasibleCandidateError if no feasible
    point was ever seen.  Deterministic for a given (problem, seed): every
    candidate index draws from its own seed-spawned RNG stream.
    """
    if evaluator is None:
        evaluator = evaluate_candidate
    bounds = problem.bounds
    lo, hi = bounds[:, 0], bounds[:, 1]
    n_pop = problem.population_size()
    dim = problem.dimension
    master = np.random.default_rng(problem.de_params.seed)
    streams = master.spawn(n_pop + 1)
    init_rng = streams[-1]

    pop_x = lo + init_rng.random((n_pop, dim)) * (hi - lo)
    population = [evaluator(x, problem) for x in pop_x]

    def best_of(cands):
        feas = [c for c in cands if c.feasible]
        if not feas:
            return None
        return max(feas, key=lambda c: _objective(problem, c))

    history = []
    best = best_of(population)
    for gen in range(problem.de_params.generations):
        f = problem.de_params.mutation
        cr = problem.de_params.crossover
        trials = []
        for k in range(n_pop):
            rng = streams[k]
            choices = [i for i in range(n_pop) if i != k]
            r1, r2, r3 = rng.choice(choices, size=3, replace=False)
            mutant = population[r1].x + f * (population[r2].x - population[r3].x)
            mutant = _reflect(mutant, lo, hi)
            cross = rng.random(dim) < cr
            cross[rng.integers(dim)] = True
            trial = np.where(cross, mutant, population[k].x)
            trials.append(trial)
        evaluated = [evaluator(t, problem) for t in trials]
        for k, cand in enumerate(evaluated):
            if _accepts(problem, cand, population[k]):
                population[k] = cand
        gen_best = best_of(population)
        if gen_best is not None and (
                best is None or _objective(problem, gen_best) > _objective(problem, best)):
            best = gen_best
        record = GenerationRecord(
            gen,
            _objective(problem, best) if best is not None else float("nan"),
            sum(1 for c in population if c.feasible),
        )
        history.append(record)
        if callback is not None:
            callback(record, population)
    if best is None:
        raise NoFeasibleCandidateError(
            f"no feasible candidate in {problem.de_params.generations} generations")
    return best, history
