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
accept-only-feasible-improvements rule is available as strict_mode.

A population evaluator (evaluate_population by default) scores each
generation's trials in one call, as stacked arrays.  Every candidate index
owns a seed-derived RNG stream, so a run is reproducible from its seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .circuit import Coupling, transmon_levels
from .constants import charging_energy_hz
from .errors import NoFeasibleCandidateError
from .spectrum import dressed_blocks

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
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if not 0 < self.mutation < 2:
            raise ValueError("mutation factor must lie in (0, 2)")
        if not 0 <= self.crossover <= 1:
            raise ValueError("crossover rate must lie in [0, 1]")


@dataclass(frozen=True)
class OptimizationProblem:
    """Named, bounded design variables plus constraint set and DE settings.

    variables maps names from VARIABLE_ORDER to (low, high) bounds; names not
    listed are pinned by `fixed`.  n_exc caps the total excitation number of
    the diagnostic Hamiltonian and must be at least 2, the excitation number
    of |11>; above that it does not change zeta (see dressed_blocks).
    objective "abs" maximizes |zeta|, "signed" maximizes zeta itself.
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
        if self.n_exc < 2:
            raise ValueError(f"n_exc must be >= 2 (|11> has two excitations), got {self.n_exc}")

    @property
    def names(self):
        return tuple(v[0] for v in self.variables)

    @property
    def bounds(self):
        return np.array([[v[1], v[2]] for v in self.variables], dtype=float)

    @property
    def dimension(self):
        return len(self.variables)

    def decode(self, x):
        """Name -> value of every variable; a (K, dim) stack gives (K,) columns."""
        values = dict(self.fixed)
        values.update(zip(self.names, np.asarray(x, dtype=float).T))
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


def evaluate_population(xs, problem):
    """Build the circuits of a (K, dim) stack of design points and score C1-C5.

    Transmons (Mathieu levels) and N <= 2 spectral blocks are solved as stacked
    arrays.  A point with an unphysical circuit (a non-positive capacitance or
    energy, E_J/E_C < 1) or ambiguous computational labels is infeasible with
    one 'evaluation_error' violation.  Returns one Candidate per row.
    """
    xs = np.asarray(xs, dtype=float)
    values = problem.decode(xs)
    missing = [n for n in VARIABLE_ORDER if n not in values]
    if missing:
        raise ValueError(f"problem does not determine variables: {missing}")
    v = {n: np.broadcast_to(values[n], xs.shape[:1]) for n in VARIABLE_ORDER}
    c12 = v["c12_farads"]
    csig = np.stack([v["c1_farads"] + c12, v["c2_farads"] + c12])
    ej = np.stack([v["ej1_hz"], v["ej2_hz"]])
    w, alpha = np.full((2, 2, len(xs)), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):    # in rows that fail `ok`
        ec = charging_energy_hz(csig)
        ratio = ej / ec
        ok = ((c12 >= 0) & (v["c1_farads"] > 0) & (v["c2_farads"] > 0)
              & np.all((ec > 0) & (ratio >= 1), axis=0))
        w[:, ok], alpha[:, ok] = transmon_levels(ej[:, ok], ec[:, ok])
        g = Coupling(c12_farads=c12, csigma_farads=tuple(csig)).g_at(w[0], w[1])
        delta = np.abs(w[0] - w[1])
        j_over_delta = np.where(delta == 0, np.inf, g / delta)
    zeta, error = np.full(len(xs), np.nan), np.where(ok, None, "ValueError")
    if ok.any():
        n = min(problem.n_exc + 1, 6)
        zeta[ok], _, ambiguous = dressed_blocks(*w[:, ok], *alpha[:, ok], g[ok], 0.0, (n, n),
                                                problem.n_exc)
        error[np.flatnonzero(ok)[ambiguous.any(axis=1)]] = "AmbiguousLabelError"

    cons = problem.constraints
    slacks = {f"C1_q{i + 1}_freq_band": np.maximum(lo - w[i], w[i] - hi)
              for i, (lo, hi) in enumerate(cons.freq_band_hz)}
    slacks.update({f"C2_q{i + 1}_anharmonicity": cons.min_abs_anharmonicity_hz
                   - np.abs(alpha[i]) for i in range(2)})
    slacks.update({f"C3_{name}": np.maximum(lo - v[name], v[name] - hi)
                   for name, lo, hi in problem.variables if name.startswith("c")})
    slacks.update({f"C4_q{i + 1}_ej_ec": cons.min_ej_ec_ratio - ratio[i] for i in range(2)})
    slacks["C5_j_over_delta"] = j_over_delta - cons.max_j_over_delta
    candidates = []
    for x, err, z, row in zip(xs, error, zeta.tolist(), np.array(list(slacks.values())).T.tolist()):
        candidates.append(
            Candidate(x, None, False, ((f"evaluation_error:{err}", 1.0),)) if err
            else Candidate(x, z, all(s <= 0 for s in row), tuple(zip(slacks, row))))
    return candidates


def evaluate_candidate(x, problem):
    """One design point through evaluate_population."""
    return evaluate_population(np.asarray(x, dtype=float)[None], problem)[0]


def _reflect(x, lo, hi):
    """Fold out-of-bounds components back inside (preserves boundary density)."""
    span = hi - lo
    y = np.where(span > 0, x, np.clip(x, lo, hi))
    with np.errstate(invalid="ignore"):
        t = np.mod(np.abs(y - lo), 2 * np.where(span > 0, span, 1.0))
        folded = np.where(t > span, 2 * span - t, t)
    return np.where(span > 0, lo + folded, np.clip(x, lo, hi))


def _accepts(problem, trial, incumbent):
    if trial.feasible != incumbent.feasible:
        return trial.feasible
    if trial.feasible:
        return _objective(problem, trial) >= _objective(problem, incumbent)
    return not problem.strict_mode and trial.total_violation <= incumbent.total_violation


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

    evaluator(xs, problem) scores a whole population: xs is the (n_pop, dim)
    stack of the initial points or of one generation's trials, and it
    returns one Candidate per row, in row order.  The default is
    evaluate_population.
    """
    if evaluator is None:
        evaluator = evaluate_population
    lo, hi = problem.bounds.T
    n_pop = problem.de_params.population or max(15 * problem.dimension, 4)
    dim = problem.dimension
    streams = np.random.default_rng(problem.de_params.seed).spawn(n_pop + 1)
    population = list(evaluator(lo + streams[-1].random((n_pop, dim)) * (hi - lo), problem))

    def best_of(cands):
        return max((c for c in cands if c.feasible), key=lambda c: _objective(problem, c),
                   default=None)

    history = []
    best = best_of(population)
    f, cr = problem.de_params.mutation, problem.de_params.crossover
    partners = [[i for i in range(n_pop) if i != k] for k in range(n_pop)]
    for gen in range(problem.de_params.generations):
        # each index draws its partners and crossover mask from its own stream
        picks, cross = np.empty((n_pop, 3), dtype=int), np.empty((n_pop, dim), dtype=bool)
        for k in range(n_pop):
            rng = streams[k]
            picks[k] = rng.choice(partners[k], size=3, replace=False)
            cross[k] = rng.random(dim) < cr
            cross[k, rng.integers(dim)] = True
        xs = np.array([c.x for c in population])
        r1, r2, r3 = picks.T
        trials = np.where(cross, _reflect(xs[r1] + f * (xs[r2] - xs[r3]), lo, hi), xs)
        for k, cand in enumerate(evaluator(trials, problem)):
            if _accepts(problem, cand, population[k]):
                population[k] = cand
        # the running best changes only for a strictly better generation best
        best = best_of([c for c in (best, best_of(population)) if c is not None])
        record = GenerationRecord(gen, float("nan") if best is None else _objective(problem, best),
                                  sum(1 for c in population if c.feasible))
        history.append(record)
        if callback is not None:
            callback(record, population)
    if best is None:
        raise NoFeasibleCandidateError(
            f"no feasible candidate in {problem.de_params.generations} generations")
    return best, history
