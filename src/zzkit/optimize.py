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

A population evaluator (evaluate_population by default) scores a whole
generation in one call, as columns or as one Candidate per row.  One
generator per run makes a run reproducible from its seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .circuit import Coupling, transmon_pair
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
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


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


@dataclass(frozen=True)
class Population:
    """Evaluated design points as columns; row k reads as a Candidate."""

    x: np.ndarray              # (K, dim)
    zeta_hz: np.ndarray        # nan where a row has none
    feasible: np.ndarray
    error: np.ndarray          # 'evaluation_error:<cause>' or None
    names: tuple               # constraint names
    slacks: np.ndarray         # (K, len(names)), positive = violated; not read on error rows

    @classmethod
    def of_candidates(cls, candidates):
        """The columns of one Candidate per row, named as its first non-error row."""
        names = [tuple(n for n, _ in c.violations) for c in candidates]
        error = [n[0] if n and n[0].startswith("evaluation_error:") else None for n in names]
        names = next((n for n, e in zip(names, error) if e is None), ())
        slacks = [[dict(c.violations).get(n, np.nan) for n in names] for c in candidates]
        return cls(np.array([c.x for c in candidates]),
                   np.array([c.zeta_hz for c in candidates], dtype=float),     # None -> nan
                   np.array([c.feasible for c in candidates]), np.array(error, dtype=object),
                   names, np.array(slacks, dtype=float))

    def __len__(self):
        return len(self.x)

    def __getitem__(self, k):
        if self.error[k]:
            return Candidate(self.x[k], None, False, ((self.error[k], 1.0),))
        zeta = float(self.zeta_hz[k])
        return Candidate(self.x[k], None if np.isnan(zeta) else zeta, bool(self.feasible[k]),
                         tuple(zip(self.names, self.slacks[k].tolist())))


def evaluate_population(xs, problem):
    """Build the circuits of a (K, dim) stack of design points and score C1-C5.

    The design variables decode to node capacitances C_sigma = C_i + C12.
    transmon_pair and dressed_blocks (N <= 2) solve the physical rows stacked,
    and the rows come back as one Population.  A point with an unphysical
    circuit (a non-positive capacitance or energy, E_J/E_C < 1) or ambiguous
    computational labels is infeasible with one 'evaluation_error' violation.
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
    (w, alpha), g = np.full((2, 2, len(xs)), np.nan), np.full(len(xs), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):    # in rows that fail `ok`
        ec = charging_energy_hz(csig)
        ratio = ej / ec
        ok = ((c12 >= 0) & (v["c1_farads"] > 0) & (v["c2_farads"] > 0)
              & np.all((ec > 0) & (ratio >= 1), axis=0))
        w[:, ok], alpha[:, ok], g[ok] = transmon_pair(
            ej[:, ok], ec[:, ok], Coupling(c12_farads=c12[ok], csigma_farads=tuple(csig[:, ok])))
        delta = np.abs(w[0] - w[1])
        j_over_delta = np.where(delta == 0, np.inf, g / delta)
    zeta, error = np.full(len(xs), np.nan), np.where(ok, None, "evaluation_error:ValueError")
    if ok.any():
        n = min(problem.n_exc + 1, 6)
        zeta[ok], _, ambiguous = dressed_blocks(*w[:, ok], *alpha[:, ok], g[ok], 0.0, (n, n),
                                                problem.n_exc)
        error[np.flatnonzero(ok)[ambiguous.any(axis=1)]] = "evaluation_error:AmbiguousLabelError"

    cons = problem.constraints
    slacks = {f"C1_q{i + 1}_freq_band": np.maximum(lo - w[i], w[i] - hi)
              for i, (lo, hi) in enumerate(cons.freq_band_hz)}
    slacks.update({f"C2_q{i + 1}_anharmonicity": cons.min_abs_anharmonicity_hz
                   - np.abs(alpha[i]) for i in range(2)})
    slacks.update({f"C3_{name}": np.maximum(lo - v[name], v[name] - hi)
                   for name, lo, hi in problem.variables if name.startswith("c")})
    slacks.update({f"C4_q{i + 1}_ej_ec": cons.min_ej_ec_ratio - ratio[i] for i in range(2)})
    slacks["C5_j_over_delta"] = j_over_delta - cons.max_j_over_delta
    slack = np.array(list(slacks.values())).T
    return Population(xs, zeta, np.equal(error, None) & np.all(slack <= 0, axis=1), error,
                      tuple(slacks), slack)


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_zeta_hz: float        # objective value of best feasible candidate (nan if none)
    n_feasible: int


def optimize(problem, evaluator=None):
    """Run DE/rand/1/bin; returns (best candidate, history).

    history carries the best feasible objective value per generation (monotone
    non-decreasing by construction) and the feasible count.  Raises
    NoFeasibleCandidateError if no feasible point was ever seen.  One generator
    per run makes it deterministic for a given (problem, seed).  evaluator(xs,
    problem), evaluate_population by default, scores the (n_pop, dim) initial
    points or trials as a Population or as one Candidate per row.
    """
    lo, hi = problem.bounds.T
    span, dim, f, cr = hi - lo, len(lo), problem.de_params.mutation, problem.de_params.crossover
    period = np.where(span > 0, 2 * span, np.inf)     # of the reflection; a zero span stays
    n_pop = problem.de_params.population or max(15 * dim, 4)
    rng, rows = np.random.default_rng(problem.de_params.seed), np.arange(n_pop)

    def evaluate(xs):
        # the record and its rows [x, objective (nan: infeasible, -inf: no zeta), violation]
        got = (evaluator or evaluate_population)(xs, problem)
        got = got if isinstance(got, Population) else Population.of_candidates(got)
        zeta = np.abs(got.zeta_hz) if problem.objective == "abs" else got.zeta_hz
        violation = sum(np.maximum(got.slacks, 0.0).T, np.zeros(len(xs)))  # constraint order
        return got, np.column_stack([got.x, np.where(got.feasible, np.fmax(zeta, -np.inf), np.nan),
                                     np.where(np.equal(got.error, None), violation, 1.0)])

    def improve(best, record, score):
        # the running best (record, row, objective) takes a first or a strictly better
        # generation best, its first row on a tie: a row accepted from record this time
        top = np.fmax.reduce(score)                       # nan: no feasible row
        return best if np.isnan(top) or top <= best[2] else (record, np.argmax(score == top), top)

    record, pop = evaluate(lo + rng.random((n_pop, dim)) * span)
    best, history = improve((None, 0, np.nan), record, pop[:, dim]), []
    for gen in range(problem.de_params.generations):
        # three distinct partners per index, never itself, in uniformly random order
        picks = np.argsort(rng.random((n_pop, n_pop - 1)), axis=1)[:, :3]
        r1, r2, r3 = (picks + (picks >= rows[:, None])).T
        cross = rng.random((n_pop, dim)) < cr
        cross[rows, rng.integers(dim, size=n_pop)] = True
        x = pop[:, :dim]
        t = np.mod(np.abs(x[r1] + f * (x[r2] - x[r3]) - lo), period)  # folded back inside
        record, trial = evaluate(np.where(cross, lo + np.minimum(t, 2 * span - t), x))
        (objective, violation), (was_objective, was_violation) = trial[:, dim:].T, pop[:, dim:].T
        # feasibility first, ties accepted, infeasible pairs on total violation
        accept = np.where(np.isnan(was_objective), ~np.isnan(objective) | (
            (not problem.strict_mode) & (violation <= was_violation)), objective >= was_objective)
        pop = np.where(accept[:, None], trial, pop)
        best = improve(best, record, pop[:, dim])
        history.append(GenerationRecord(gen, float(best[2]), int((~np.isnan(pop[:, dim])).sum())))
    if best[0] is None:
        raise NoFeasibleCandidateError(
            f"no feasible candidate in {problem.de_params.generations} generations")
    return best[0][best[1]], history
