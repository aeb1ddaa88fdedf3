import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selection_oracle as oracle
from zzkit import (
    Candidate,
    ConstraintSet,
    DEParams,
    KerrParams,
    OptimizationProblem,
    diagonalize_and_label,
    optimize,
    transmon_spectrum,
    zeta_exact,
)
from zzkit.constants import charging_energy_hz
from zzkit.errors import AmbiguousLabelError, NoFeasibleCandidateError
from zzkit.optimize import VARIABLE_ORDER, Population, evaluate_population

from test_circuit import charge_basis_levels


def evaluate_one(x, problem):
    """One design point, as the one row of a population."""
    return evaluate_population(np.asarray(x)[None], problem)[0]

CHIP1_LIKE = (
    ("ej1_hz", 10e9, 40e9),
    ("ej2_hz", 10e9, 40e9),
    ("c1_farads", 40e-15, 90e-15),
    ("c2_farads", 40e-15, 90e-15),
    ("c12_farads", 1e-15, 8e-15),
)


def per_row(score):
    """A population evaluator from a scorer of one design point."""
    return lambda xs, problem: [score(x, problem) for x in xs]


def rosenbrock_columns(xs, problem):
    """A columnar evaluator: the negated Rosenbrock function, every row feasible."""
    a, b = xs.T
    return Population(xs, -((a - 1) ** 2) - 100 * (b - a * a) ** 2, np.ones(len(xs), bool),
                      np.full(len(xs), None), (), np.empty((len(xs), 0)))


ROSENBROCK = (("a", -2.0, 2.0), ("b", -1.0, 3.0))


def zeta_objective_1d(x, problem):
    """zeta of a fixed two-mode system as a function of the exchange rate alone."""
    params = KerrParams(np.array([6.27e9, 4.27e9]), np.array([-351e6, -312e6]),
                        np.zeros((2, 2)), exchange_g_hz=float(x[0]))
    spec = diagonalize_and_label(params, (4, 4), 4)
    return Candidate(x, zeta_exact(spec), True, ())


def dense_candidate(x, problem):
    """Oracle scorer: charge-basis transmon levels and the full labeled spectrum.

    The same circuit reduction and constraints C1-C5 as evaluate_population,
    one design point at a time, with each transmon from a tridiagonal
    charge-basis solve and zeta from diagonalize_and_label and zeta_exact at
    the problem's n_exc truncation.
    """
    v = problem.decode(x)
    cons = problem.constraints
    c1, c2, c12 = v["c1_farads"], v["c2_farads"], v["c12_farads"]
    ec = (charging_energy_hz(c1 + c12), charging_energy_hz(c2 + c12))
    ej = (v["ej1_hz"], v["ej2_hz"])
    if min(ej[0] / ec[0], ej[1] / ec[1]) < 1:
        return Candidate(x, None, False, (("evaluation_error:ValueError", 1.0),))
    levels = [charge_basis_levels(ej[i], ec[i]) for i in range(2)]
    w = np.array([lv[0] for lv in levels])
    alpha = np.array([(lv[1] - lv[0]) - lv[0] for lv in levels])
    g = c12 / (2.0 * np.sqrt((c1 + c12) * (c2 + c12))) * np.sqrt(w[0] * w[1])
    n = min(problem.n_exc + 1, 6)
    spec = diagonalize_and_label(
        KerrParams(w, alpha, np.zeros((2, 2)), exchange_g_hz=g), (n, n), problem.n_exc)
    try:
        zeta = zeta_exact(spec)
    except AmbiguousLabelError:
        return Candidate(x, None, False, (("evaluation_error:AmbiguousLabelError", 1.0),))
    violations = [(f"C1_q{i + 1}_freq_band", max(lo - w[i], w[i] - hi))
                  for i, (lo, hi) in enumerate(cons.freq_band_hz)]
    violations += [(f"C2_q{i + 1}_anharmonicity", cons.min_abs_anharmonicity_hz - abs(alpha[i]))
                   for i in range(2)]
    violations += [(f"C3_{name}", max(lo - v[name], v[name] - hi))
                   for name, lo, hi in problem.variables if name.startswith("c")]
    violations += [(f"C4_q{i + 1}_ej_ec", cons.min_ej_ec_ratio - ej[i] / ec[i])
                   for i in range(2)]
    delta = abs(w[0] - w[1])
    violations.append(("C5_j_over_delta",
                       (np.inf if delta == 0 else g / delta) - cons.max_j_over_delta))
    return Candidate(x, zeta, all(s <= 0 for _, s in violations), tuple(violations))


class TestEvaluateCandidate:
    def test_transmon_ratio_violation_flagged(self):
        # small junction energy with a big capacitor breaks C4 on qubit 1
        cand = evaluate_one(
            np.array([10e9, 30e9, 90e-15, 50e-15, 1e-15]),
            OptimizationProblem(CHIP1_LIKE, ConstraintSet(min_ej_ec_ratio=80.0),
                                n_exc=3))
        slack = dict(cand.violations)
        assert not cand.feasible
        assert slack["C4_q1_ej_ec"] > 0

    def test_degenerate_qubits_marked_infeasible_with_cause(self):
        cand = evaluate_one(
            np.array([10e9, 10e9, 90e-15, 90e-15, 1e-15]),
            OptimizationProblem(CHIP1_LIKE, n_exc=3))
        assert not cand.feasible
        assert any(name.startswith("evaluation_error") for name, _ in cand.violations)

    def test_chip1_like_point_feasible_and_consistent(self, chip1):
        q1f, q2f = chip1.qubits
        from zzkit.constants import capacitance_from_ec
        c12 = chip1.coupling_data["c12_eff_farads"]
        x = np.array([
            q1f.ej_sum_hz * 0.4803,          # effective E_J at the lower sweet-spot
            q2f.ej_sum_hz,
            capacitance_from_ec(q1f.ec_hz) - c12,
            capacitance_from_ec(q2f.ec_hz) - c12,
            c12,
        ])
        problem = OptimizationProblem(
            CHIP1_LIKE,
            ConstraintSet(freq_band_hz=((5e9, 7e9), (5.5e9, 7e9)),
                          min_abs_anharmonicity_hz=200e6,
                          min_ej_ec_ratio=20.0, max_j_over_delta=5.0),
            n_exc=4)
        cand = evaluate_one(x, problem)
        assert cand.feasible, cand.violations
        # cross-check zeta against the spectrum pipeline at the same point
        s1, s2 = transmon_spectrum(q1f.transmon(0.5)), transmon_spectrum(q2f.transmon(0.0))
        params = KerrParams(np.array([s1.omega01_hz, s2.omega01_hz]),
                            np.array([s1.anharmonicity_hz, s2.anharmonicity_hz]),
                            np.zeros((2, 2)),
                            exchange_g_hz=chip1.g_at(s1.omega01_hz, s2.omega01_hz))
        spec = diagonalize_and_label(params, (5, 5), 4)
        assert cand.zeta_hz == pytest.approx(zeta_exact(spec), rel=0.10)

    def test_matches_dense_charge_basis_oracle(self, rng):
        problem = OptimizationProblem(CHIP1_LIKE, ConstraintSet(max_j_over_delta=0.3), n_exc=4)
        bounds = problem.bounds
        xs = bounds[:, 0] + rng.random((60, 5)) * (bounds[:, 1] - bounds[:, 0])
        xs[0] = [10e9, 10e9, 90e-15, 90e-15, 1e-15]      # degenerate qubits: ambiguous labels
        xs[1] = [0.1e9, 30e9, 90e-15, 50e-15, 1e-15]     # E_J/E_C < 1
        got = evaluate_population(xs, problem)
        assert len(got) == len(xs)
        for cand, x in zip(got, xs):
            want = dense_candidate(x, problem)
            assert cand.feasible == want.feasible
            assert [n for n, _ in cand.violations] == [n for n, _ in want.violations]
            np.testing.assert_allclose([s for _, s in cand.violations],
                                       [s for _, s in want.violations], rtol=1e-9, atol=1e-3)
            if want.zeta_hz is None:
                assert cand.zeta_hz is None
            else:
                assert cand.zeta_hz == pytest.approx(want.zeta_hz, rel=1e-10, abs=1e-4)
        assert sum(c.feasible for c in got) > 0
        assert got[0].violations == (("evaluation_error:AmbiguousLabelError", 1.0),)
        assert got[1].violations == (("evaluation_error:ValueError", 1.0),)

    def test_single_point_is_a_population_row(self):
        problem = OptimizationProblem(CHIP1_LIKE, n_exc=3)
        xs = np.array([[20e9, 18e9, 60e-15, 65e-15, 5e-15], [25e9, 15e9, 70e-15, 55e-15, 3e-15]])
        for x, cand in zip(xs, evaluate_population(xs, problem)):
            one = evaluate_one(x, problem)
            assert (one.zeta_hz, one.violations) == (cand.zeta_hz, cand.violations)

    def test_n_exc_below_two_rejected(self):
        with pytest.raises(ValueError, match="n_exc"):
            OptimizationProblem(CHIP1_LIKE, n_exc=1)

    def test_deterministic(self):
        problem = OptimizationProblem(CHIP1_LIKE, n_exc=3)
        x = np.array([20e9, 18e9, 60e-15, 65e-15, 5e-15])
        c1 = evaluate_one(x, problem)
        c2 = evaluate_one(x, problem)
        assert c1.zeta_hz == c2.zeta_hz
        assert c1.violations == c2.violations


# design values drawn for the oracle comparison: physical ones, and the values that
# make a row unphysical (E_J/E_C < 1 at any of these capacitances, C_i <= 0, C12 < 0)
PHYSICAL = {"ej1_hz": st.floats(12e9, 35e9), "ej2_hz": st.floats(12e9, 35e9),
            "c1_farads": st.floats(45e-15, 90e-15), "c2_farads": st.floats(45e-15, 90e-15),
            "c12_farads": st.floats(0.5e-15, 8e-15)}
UNPHYSICAL = {"ej1_hz": [0.05e9, 0.2e9], "ej2_hz": [0.05e9, 0.2e9],
              "c1_farads": [-10e-15, 0.0], "c2_farads": [-10e-15, 0.0],
              "c12_farads": [-2e-15, -1e-18]}


@st.composite
def design_values(draw, names, spoil):
    """Physical values of names; one in `spoil` draws made unphysical."""
    values = {n: draw(PHYSICAL[n]) for n in names}
    if names and draw(st.integers(1, spoil)) == spoil:
        bad = draw(st.sampled_from(names))
        values[bad] = draw(st.sampled_from(UNPHYSICAL[bad]))
    return values


@st.composite
def design_population(draw):
    """A problem with 0 to 3 capacitance variables (the rest fixed) and a stack of
    rows: physical, unphysical, and mirrored ones (qubit 2 a copy of qubit 1,
    resonant, whose labels come back ambiguous)."""
    caps = draw(st.sets(st.sampled_from(("c1_farads", "c2_farads", "c12_farads")), max_size=3))
    ejs = draw(st.sets(st.sampled_from(("ej1_hz", "ej2_hz")), min_size=0 if caps else 1))
    names = [n for n in VARIABLE_ORDER if n in caps | ejs]
    fixed = draw(design_values([n for n in VARIABLE_ORDER if n not in names], spoil=6))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = {**fixed, **draw(design_values(names, spoil=3))}
        mirror = draw(st.integers(0, 3)) == 3
        for a, b in (("ej1_hz", "ej2_hz"), ("c1_farads", "c2_farads")) * mirror:
            if b in names:
                row[b] = row[a]
            elif a in names:
                row[a] = row[b]
        rows.append([row[n] for n in names])
    bands = draw(st.sampled_from([((4.0e9, 8.0e9),), ((5.5e9, 7.0e9), (4.0e9, 5.2e9))]))
    problem = OptimizationProblem(
        tuple((n, *(CHIP1_LIKE[VARIABLE_ORDER.index(n)][1:])) for n in names),
        ConstraintSet(freq_band_hz=bands, max_j_over_delta=draw(st.sampled_from([0.05, 0.5]))),
        n_exc=draw(st.integers(2, 5)), fixed=tuple(fixed.items()))
    return np.array(rows, dtype=float), problem


class TestEvaluatorOracle:
    """evaluate_population (every row solved, a stand-in where unphysical) against
    the masked evaluator it replaced, bit for bit."""

    @given(drawn=design_population())
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    def test_matches_masked_evaluator(self, drawn):
        xs, problem = drawn
        got, want = evaluate_population(xs, problem), oracle.evaluate_masked(xs, problem)
        assert got.names == want.names
        assert got.error.tolist() == want.error.tolist()
        assert got.feasible.tolist() == want.feasible.tolist()
        assert got.zeta_hz.tobytes() == want.zeta_hz.tobytes()
        solved = np.equal(want.error, None)
        assert got.slacks[solved].tobytes() == want.slacks[solved].tobytes()
        assert [c.violations for c in got] == [c.violations for c in want]

    def test_all_unphysical_population(self):
        problem = OptimizationProblem(CHIP1_LIKE, n_exc=3)
        xs = np.array([[20e9, 18e9, 60e-15, 65e-15, -1e-15],      # C12 < 0
                       [20e9, 18e9, 0.0, 65e-15, 5e-15],          # C1 = 0
                       [20e9, 18e9, 60e-15, -5e-15, 5e-15],       # C2 < 0
                       [0.1e9, 18e9, 60e-15, 65e-15, 5e-15]])     # E_J/E_C < 1
        got = evaluate_population(xs, problem)
        assert got.error.tolist() == ["evaluation_error:ValueError"] * len(xs)
        assert not got.feasible.any() and np.isnan(got.zeta_hz).all()
        assert [c.violations for c in got] == [(("evaluation_error:ValueError", 1.0),)] * 4


    def test_rows_beyond_the_levels_range_are_stand_ins(self):
        # C1 = 90e285 F (a bound's high x1e300) sets E_J/E_C near 1e300: scipy found
        # no finite Mathieu value, and the generation ended in a traceback
        problem = OptimizationProblem(CHIP1_LIKE, n_exc=3)
        physical = [20e9, 18e9, 60e-15, 65e-15, 5e-15]
        xs = np.array([physical, [20e9, 18e9, 90e285, 65e-15, 5e-15],
                       [20e9, 18e9, 60e-15, 65e-15, 3e285]])
        got = evaluate_population(xs, problem)
        assert got.error.tolist() == [None] + ["evaluation_error:ValueError"] * 2
        assert np.isnan(got.zeta_hz[1:]).all() and not got.feasible[1:].any()
        alone = evaluate_population(xs[:1], problem)
        assert got.zeta_hz[0] == alone.zeta_hz[0]
        assert got.slacks[0].tobytes() == alone.slacks[0].tobytes()


class TestOptimize:
    def test_boundary_optimum_in_exchange_rate(self):
        # |zeta| grows with g^2 in the dispersive regime, so the optimum pins
        # the upper bound; oracle, a dense scan over the same interval
        g_hi = 150e6
        problem = OptimizationProblem(
            (("g_hz", 0.0, g_hi),),
            de_params=DEParams(population=20, generations=60, seed=3))
        best, history = optimize(problem, per_row(zeta_objective_1d))
        scan = [abs(zeta_objective_1d(np.array([g]), problem).zeta_hz)
                for g in np.linspace(0, g_hi, 201)]
        assert np.argmax(scan) == 200
        assert best.x[0] == pytest.approx(g_hi, abs=g_hi / 200)

    def test_degenerate_bounds_return_point(self):
        problem = OptimizationProblem(
            (("g_hz", 50e6, 50e6),),
            de_params=DEParams(population=6, generations=1, seed=0))
        best, history = optimize(problem, per_row(zeta_objective_1d))
        assert best.x[0] == 50e6
        assert len(history) == 1

    def test_rosenbrock_smoke(self):
        def rosen(x, problem):
            a, b = x
            return Candidate(x, -((a - 1) ** 2) - 100 * (b - a * a) ** 2, True, ())

        problem = OptimizationProblem(
            (("a", -2.0, 2.0), ("b", -1.0, 3.0)),
            de_params=DEParams(seed=11), objective="signed")
        best, history = optimize(problem, per_row(rosen))
        assert best.x[0] == pytest.approx(1.0, abs=1e-3)
        assert best.x[1] == pytest.approx(1.0, abs=1e-3)

    def test_history_monotone_and_bounds_respected(self):
        seen = []

        def recording(x, problem):
            seen.append(np.array(x))
            return zeta_objective_1d(x, problem)

        problem = OptimizationProblem(
            (("g_hz", 10e6, 120e6),),
            de_params=DEParams(population=12, generations=30, seed=5))
        best, history = optimize(problem, per_row(recording))
        bests = [h.best_zeta_hz for h in history]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        lo, hi = 10e6, 120e6
        assert all(lo - 1e-9 <= x[0] <= hi + 1e-9 for x in seen)

    def test_seed_reproducibility(self):
        problem = OptimizationProblem(
            (("g_hz", 0.0, 100e6),),
            de_params=DEParams(population=10, generations=20, seed=42))
        b1, h1 = optimize(problem, per_row(zeta_objective_1d))
        b2, h2 = optimize(problem, per_row(zeta_objective_1d))
        assert np.array_equal(b1.x, b2.x)
        assert [r.best_zeta_hz for r in h1] == [r.best_zeta_hz for r in h2]

    def test_constraint_soundness_of_best(self):
        problem = OptimizationProblem(
            CHIP1_LIKE,
            ConstraintSet(freq_band_hz=((4.5e9, 7.5e9), (4.0e9, 7.0e9)),
                          min_abs_anharmonicity_hz=150e6,
                          min_ej_ec_ratio=20.0, max_j_over_delta=1.0),
            de_params=DEParams(population=12, generations=8, seed=7),
            n_exc=3)
        best, _ = optimize(problem)
        recheck = evaluate_one(best.x, problem)
        assert recheck.feasible
        assert recheck.zeta_hz == pytest.approx(best.zeta_hz, rel=1e-12)

    def test_no_feasible_candidate_raises(self):
        problem = OptimizationProblem(
            CHIP1_LIKE,
            ConstraintSet(freq_band_hz=((40e9, 41e9), (40e9, 41e9))),
            de_params=DEParams(population=8, generations=3, seed=1),
            n_exc=3)
        with pytest.raises(NoFeasibleCandidateError):
            optimize(problem)

    def test_strict_mode_still_converges_from_feasible_start(self):
        problem = OptimizationProblem(
            (("g_hz", 0.0, 100e6),),
            de_params=DEParams(population=10, generations=25, seed=9),
            strict_mode=True)
        best, history = optimize(problem, per_row(zeta_objective_1d))
        assert best.x[0] == pytest.approx(100e6, rel=0.02)

    def test_population_evaluator_sees_each_generation_once(self):
        calls = []

        def population(xs, problem):
            calls.append(np.array(xs))
            return [zeta_objective_1d(x, problem) for x in xs]

        problem = OptimizationProblem(
            (("g_hz", 0.0, 100e6),),
            de_params=DEParams(population=7, generations=5, seed=4))
        best, _ = optimize(problem, population)
        assert [c.shape for c in calls] == [(7, 1)] * 6
        again, _ = optimize(problem, per_row(zeta_objective_1d))
        assert np.array_equal(best.x, again.x)

    def test_negative_generations_rejected(self):
        with pytest.raises(ValueError, match="generations"):
            DEParams(generations=-1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            DEParams(seed=seed)

    def test_de_run_matches_dense_charge_basis_oracle(self):
        # the default stacked evaluator against the per-point dense oracle:
        # the same accepted trials, so the same best point and feasible counts
        problem = OptimizationProblem(
            CHIP1_LIKE,
            ConstraintSet(freq_band_hz=((5.5e9, 7.0e9), (4.0e9, 5.2e9)),
                          min_abs_anharmonicity_hz=200e6, min_ej_ec_ratio=25.0,
                          max_j_over_delta=0.25),
            de_params=DEParams(population=10, generations=12, seed=23), n_exc=4)
        best, history = optimize(problem)
        dense_best, dense_history = optimize(problem, per_row(dense_candidate))
        assert [h.n_feasible for h in history] == [h.n_feasible for h in dense_history]
        assert history[-1].n_feasible > 0
        assert np.array_equal(best.x, dense_best.x)
        assert best.zeta_hz == pytest.approx(dense_best.zeta_hz, rel=1e-10)

    def test_infeasible_population_recovers_with_deb_rules(self):
        # start infeasible everywhere; total-violation comparison must pull the
        # population into the feasible region
        def gated(x, problem):
            g = float(x[0])
            feasible = g >= 80e6
            violations = (("gate", 80e6 - g),)
            return Candidate(x, g if feasible else None, feasible, violations)

        problem = OptimizationProblem(
            (("g_hz", 0.0, 100e6),),
            de_params=DEParams(population=10, generations=40, seed=2))
        best, history = optimize(problem, per_row(gated))
        assert best.feasible
        assert history[-1].n_feasible > 0


# objective ties (also |-3| = |3|), slack ties, and total-violation ties with
# the 1.0 of an evaluation error
ZETAS = (-3.0, -1.0, 0.0, 1.0, 2.0, 3.0)


@st.composite
def scripted_candidate(draw, x, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "error":
        cause = draw(st.sampled_from(["ValueError", "AmbiguousLabelError"]))
        return Candidate(x, None, False, ((f"evaluation_error:{cause}", 1.0),))
    if kind == "feasible":
        slacks = draw(st.tuples(*[st.sampled_from([-1.0, -0.5, 0.0])] * 2))
        zeta = draw(st.sampled_from(ZETAS + (None,)))     # None: feasible without a zeta
        return Candidate(x, zeta, True, tuple(zip(("g1", "g2"), slacks)))
    slacks = (draw(st.sampled_from([0.5, 1.0, 2.5])), draw(st.sampled_from([-0.5, 0.0, 0.5])))
    slacks = slacks[::-1] if draw(st.booleans()) else slacks
    return Candidate(x, draw(st.sampled_from(ZETAS + (None,))), False,
                     tuple(zip(("g1", "g2"), slacks)))


class TestSelection:
    @given(data=st.data(), n_pop=st.integers(4, 7), generations=st.integers(1, 8),
           strict=st.booleans(), objective=st.sampled_from(["abs", "signed"]),
           seed=st.integers(0, 1000))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_masked_update_and_running_best_match_oracle(self, data, n_pop, generations,
                                                         strict, objective, seed):
        # a scripted per-row evaluator draws each generation's candidates and
        # replays the per-candidate rules on them
        problem = OptimizationProblem(
            (("a", 0.0, 1.0), ("b", 0.0, 1.0), ("c", 0.0, 1.0)),
            de_params=DEParams(population=n_pop, generations=generations, crossover=0.0,
                               seed=seed), objective=objective, strict_mode=strict)
        replay = {"population": None, "best": None, "history": []}

        def scripted(xs, problem):
            kinds = (("infeasible", "error") if data.draw(st.booleans())   # all infeasible
                     else ("feasible", "infeasible", "error"))
            trials = [data.draw(scripted_candidate(x, kinds)) for x in xs]
            population = replay["population"]
            if population is None:
                population = replay["population"] = list(trials)
            else:
                for k, trial in enumerate(trials):
                    # crossover 0: a trial is its incumbent but for the forced component
                    assert np.count_nonzero(xs[k] != population[k].x) <= 1
                    if oracle.accepts(problem, trial, population[k]):
                        population[k] = trial
            best = replay["best"] = oracle.best_of(
                problem, [replay["best"], oracle.best_of(problem, population)])
            replay["history"].append((np.nan if best is None else oracle.objective(problem, best),
                                      sum(c.feasible for c in population)))
            return trials

        try:
            best, history = optimize(problem, scripted)
        except NoFeasibleCandidateError:
            assert replay["best"] is None
            return
        want = replay["best"]
        assert np.array_equal(best.x, want.x)
        assert (best.zeta_hz, best.feasible, best.violations) == \
            (want.zeta_hz, want.feasible, want.violations)
        np.testing.assert_array_equal([(h.best_zeta_hz, h.n_feasible) for h in history],
                                      replay["history"][1:])


class TestDraws:
    def test_three_distinct_partners_never_the_row(self):
        # one-hot rows as the population: a mutant e_r1 + f (e_r2 - e_r3) names
        # its partners by the components equal to 1, f and -f
        n_pop, f = 9, 0.5
        problem = OptimizationProblem(
            tuple((f"x{k}", -1.0, 2.0) for k in range(n_pop)), objective="signed",
            de_params=DEParams(population=n_pop, generations=300, mutation=f, crossover=1.0,
                               seed=13))
        seen = []

        def one_hot(xs, problem):
            seen.append(np.array(xs))
            return [Candidate(row, 0.0, True, ()) for row in np.eye(n_pop)]

        optimize(problem, one_hot)
        picks = []
        for trials in seen[1:]:
            for k, trial in enumerate(trials):
                roles = [np.flatnonzero(trial == v) for v in (1.0, f, -f)]
                assert [len(r) for r in roles] == [1, 1, 1], trial
                assert k not in [r[0] for r in roles]
                picks.append([r[0] for r in roles])
        picks = np.array(picks)
        # every role draws every other index, and r1 < r2 about half the time
        # (ordered triples, not index-sorted ones)
        for role in picks.T:
            assert set(role) == set(range(n_pop))
        assert 0.45 < np.mean(picks[:, 0] < picks[:, 1]) < 0.55

    @pytest.mark.parametrize("crossover", [0.0, 0.3, 1.0])
    def test_every_mask_row_crosses(self, crossover):
        # a generic fixed population: a trial equal to its incumbent in every
        # component would have had an empty mask row
        n_pop, dim = 8, 4
        codes = np.random.default_rng(0).random((n_pop, dim))
        problem = OptimizationProblem(
            tuple((f"x{j}", 0.0, 1.0) for j in range(dim)), objective="signed",
            de_params=DEParams(population=n_pop, generations=300, crossover=crossover, seed=3))
        seen = []

        def fixed(xs, problem):
            seen.append(np.array(xs))
            return [Candidate(row, 0.0, True, ()) for row in codes]

        optimize(problem, fixed)
        crossed = np.array([np.count_nonzero(trials != codes, axis=1) for trials in seen[1:]])
        assert crossed.min() >= 1
        if crossover == 0.0:
            assert crossed.max() == 1        # the forced component only
        if crossover == 1.0:
            assert crossed.min() == dim

    def test_equal_seeds_give_identical_trajectories(self):
        def run(seed):
            seen = []

            def recording(xs, problem):
                seen.append(np.array(xs))
                return rosenbrock_columns(xs, problem)

            problem = OptimizationProblem(ROSENBROCK, objective="signed",
                                          de_params=DEParams(population=10, generations=60,
                                                             seed=seed))
            best, history = optimize(problem, recording)
            return np.array(seen), best, history

        (xs1, best1, hist1), (xs2, best2, hist2), (xs3, _, _) = run(5), run(5), run(6)
        assert np.array_equal(xs1, xs2)
        assert np.array_equal(best1.x, best2.x) and hist1 == hist2
        assert not np.array_equal(xs1, xs3)

    def test_columnar_rosenbrock_optimum_on_twenty_seeds(self):
        missed = {}
        for seed in range(20):
            problem = OptimizationProblem(ROSENBROCK, objective="signed",
                                          de_params=DEParams(seed=seed))
            best, _ = optimize(problem, rosenbrock_columns)
            if not np.allclose(best.x, 1.0, rtol=0, atol=1e-6):
                missed[seed] = best.x
        assert not missed

    def test_candidate_list_and_columns_take_the_same_path(self):
        problem = OptimizationProblem(ROSENBROCK, objective="signed",
                                      de_params=DEParams(population=12, generations=40, seed=8))
        best, history = optimize(problem, rosenbrock_columns)
        again, again_history = optimize(problem, per_row(
            lambda x, problem: rosenbrock_columns(x[None], problem)[0]))
        assert np.array_equal(best.x, again.x) and history == again_history
