"""Per-candidate DE selection rules and the masked population evaluator, kept as
oracles of optimize() and evaluate_population.

optimize() selects over columns: one masked np.where per generation and a
running best taken from the objective column.  These are the same rules
written one Candidate at a time:

    accepts    feasibility first; feasible pairs compare the objective with
               ties accepted; infeasible pairs compare the total violation
               (positive slacks summed in constraint order, an evaluation
               error counting 1.0) unless strict_mode;
    best_of    the feasible candidate of largest objective, the first on a tie;
               the running best is best_of([best, generation best]), so it
               changes only for a strictly better generation best.

evaluate_population solves every row of a generation at once, a stand-in
transmon in each unphysical row.  evaluate_masked is the evaluator it
replaced: it gathers the physical rows, solves them through transmon_pair
and dressed_blocks, and scatters them back into NaN-filled columns.
"""

import numpy as np

from zzkit.circuit import Coupling, transmon_pair
from zzkit.constants import charging_energy_hz
from zzkit.optimize import VARIABLE_ORDER, Population
from zzkit.spectrum import dressed_blocks


def objective(problem, cand):
    if not cand.feasible or cand.zeta_hz is None:
        return -np.inf
    return abs(cand.zeta_hz) if problem.objective == "abs" else cand.zeta_hz


def total_violation(cand):
    return sum(max(s, 0.0) for _, s in cand.violations)


def accepts(problem, trial, incumbent):
    if trial.feasible != incumbent.feasible:
        return trial.feasible
    if trial.feasible:
        return objective(problem, trial) >= objective(problem, incumbent)
    return not problem.strict_mode and total_violation(trial) <= total_violation(incumbent)


def best_of(problem, cands):
    return max((c for c in cands if c is not None and c.feasible),
               key=lambda c: objective(problem, c), default=None)


def evaluate_masked(xs, problem):
    """The C1-C5 Population of a (K, dim) stack, the physical rows solved apart."""
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
