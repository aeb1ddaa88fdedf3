"""Per-candidate DE selection rules, kept as the oracle of the masked update.

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
"""

import numpy as np


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
