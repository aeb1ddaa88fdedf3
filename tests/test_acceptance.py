"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with the measured numbers.  Tolerances are pinned here and nowhere
else; the conservation criterion aggregates the norm/trace drifts of every
dynamics run performed by the earlier criteria.
"""

import json

import numpy as np
from scipy.optimize import curve_fit
from scipy.stats import spearmanr

from zzkit import (
    Candidate,
    DEParams,
    DissipationSpec,
    FosterMode,
    KerrParams,
    OptimizationProblem,
    PauliDecomposition,
    TwoQubitSystem,
    diagonalize_and_label,
    foster_from_fit,
    make_blockade_protocol,
    optimize,
    pi_pulse,
    pulse_spectral_power,
    run_blockade_protocol,
    run_conditional_ramsey,
    vector_fit,
    zeta_exact,
    zeta_perturbative,
)
from zzkit.circuit import foster_impedance
from zzkit.cli import main
from zzkit.io import read_blockade_csv, read_zz_sweep_csv

BLOCKADE_SYSTEM = TwoQubitSystem(6.307e9, 4.498e9, 19e6)
DRIFTS = []


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status} - {detail}")
    assert ok, detail


def _blockade_p1(system, length, delay, dissipation=None):
    protocol = make_blockade_protocol(system, length, delay)
    result = run_blockade_protocol(system, protocol, dissipation)
    DRIFTS.append(result.norm_drift)
    return float(result.p_excited(1)[-1])


def test_criterion_01_zeta_beta_identity(rng):
    betas = rng.uniform(-5e9, 5e9, size=(1000, 6))
    worst = 0.0
    for b in betas:
        d = PauliDecomposition(b)
        e = d.computational_energies()
        zeta = e[(1, 1)] - e[(1, 0)] - e[(0, 1)] + e[(0, 0)]
        scale = max(abs(zeta), abs(4 * b[5]), 1.0)
        worst = max(worst, abs(zeta - 4 * b[5]) / scale)
    _report(1, worst < 1e-12,
            f"zeta == 4 beta_5 over 1000 draws, worst rel dev {worst:.2e}")


def test_criterion_02_perturbative_oracle():
    rng = np.random.default_rng(1207)
    worst = 0.0
    for _ in range(20):
        a1 = -rng.uniform(150e6, 400e6)
        a2 = -rng.uniform(150e6, 400e6)
        delta = rng.uniform(2 * max(abs(a1), abs(a2)), 3e9)
        g = rng.uniform(0.01, 0.05) * delta
        w1 = rng.uniform(5e9, 7e9)
        params = KerrParams(np.array([w1, w1 - delta]), np.array([a1, a2]),
                            np.zeros((2, 2)), exchange_g_hz=g)
        spec = diagonalize_and_label(params, (5, 5), None)
        ze = zeta_exact(spec)
        zp = zeta_perturbative(g, delta, a1, a2)
        worst = max(worst, abs(ze - zp) / abs(ze))
    _report(2, worst <= 0.05,
            f"|exact - perturbative|/|exact| worst {worst:.3%} over 20 dispersive draws")


def test_criterion_03_hand_evaluated_point():
    zeta = zeta_perturbative(240e6, 2.0e9, 351e6, 312e6)
    rel = abs(zeta - (-20.0e6)) / 20.0e6
    _report(3, rel <= 0.005,
            f"zeta(g=240 MHz, D=2 GHz, a=351/312 MHz) = {zeta / 1e6:.3f} MHz "
            f"(target -20.0 MHz, dev {rel:.3%})")


def test_criterion_04_detuning_envelope(tmp_path):
    deltas = [0.0] + list(np.linspace(0.6e9, 2.4e9, 10))
    cfg = tmp_path / "zz.json"
    cfg.write_text(json.dumps({"fixture": "chip1", "delta_hz": deltas}))
    out = str(tmp_path / "zz.csv")
    code = main(["--config", str(cfg), "--out", out, "zz-sweep"])
    assert code == 0
    rows = read_zz_sweep_csv(out)
    near_zero = rows[0]
    mags = [abs(r["zeta_exact_hz"]) for r in rows[1:]]
    at_2ghz = abs([r for r in rows if r["delta_hz"] == 2.0e9][0]["zeta_exact_hz"])
    decreasing = all(b < a for a, b in zip(mags, mags[1:]))
    ok = (near_zero["ambiguous_flag"] == "1"
          and abs(near_zero["zeta_exact_hz"]) >= 300e6
          and decreasing and at_2ghz <= 25e6)
    _report(4, ok,
            f"|zeta(0)| = {abs(near_zero['zeta_exact_hz']) / 1e6:.0f} MHz (>=300, "
            f"resonant convention), strictly decreasing over [0.6, 2.4] GHz: "
            f"{decreasing}, |zeta(2 GHz)| = {at_2ghz / 1e6:.1f} MHz (<=25)")


def test_criterion_05_avoided_crossing(tmp_path):
    cfg = tmp_path / "flux.json"
    summary_path = tmp_path / "summary.json"
    cfg.write_text(json.dumps({
        "fixture": "chip1",
        "flux_phi0": {"start": -0.2, "stop": -0.01, "num": 25},
        "summary_json": str(summary_path)}))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "flux.csv"),
                 "flux-spectroscopy"])
    assert code == 0
    summary = json.loads(summary_path.read_text())
    two_j = summary["two_j_hz"]
    flux_min = summary["flux_at_min_phi0"]
    ok = abs(two_j - 491e6) / 491e6 <= 0.05 and abs(flux_min - (-0.1)) <= 0.02
    _report(5, ok,
            f"2J = {two_j / 1e6:.1f} MHz (491 +- 5%), minimum at "
            f"{flux_min:.4f} Phi0 (-0.1 +- 0.02)")


def test_criterion_06_blockade_suppression():
    p_blocked = _blockade_p1(BLOCKADE_SYSTEM, 200e-9, +100e-9)
    p_free = _blockade_p1(BLOCKADE_SYSTEM, 200e-9, -100e-9)
    p_short = _blockade_p1(BLOCKADE_SYSTEM, 16e-9, +100e-9)
    ok = p_blocked <= 0.1 and p_free >= 0.95 and p_short >= 3 * p_blocked
    _report(6, ok,
            f"P1(+100 ns, 200 ns) = {p_blocked:.4f} (<=0.1), "
            f"P1(-100 ns, 200 ns) = {p_free:.4f} (>=0.95), "
            f"P1(+100 ns, 16 ns) = {p_short:.3f} "
            f"({p_short / max(p_blocked, 1e-12):.0f}x the 200 ns value, >=3x)")


def test_criterion_07_spectral_power_correlation():
    lengths = [16e-9, 28e-9, 52e-9, 100e-9, 148e-9, 200e-9]
    window = 1.0 / 9.1e-6               # 1 / T2_echo of the interrogated qubit
    p1 = [_blockade_p1(BLOCKADE_SYSTEM, ln, +100e-9) for ln in lengths]
    power = [pulse_spectral_power(
        pi_pulse("truncated_cosine", ln, BLOCKADE_SYSTEM.omega1_hz), 19e6, window)
        for ln in lengths]
    rho = spearmanr(p1, power).statistic
    _report(7, rho >= 0.9,
            f"Spearman(P1, spectral fraction at 19 MHz) = {rho:.3f} over "
            f"lengths 16-200 ns (>=0.9)")


def test_criterion_08_relaxation_recovery(tmp_path):
    t1 = (7.35e-6, 9.57e-6)
    delays = sorted(set(np.linspace(2e-6, 30e-6, 8)) | set(-np.linspace(2e-6, 30e-6, 8)))
    cfg = tmp_path / "blockade.json"
    cfg.write_text(json.dumps({
        "zeta_hz": 19e6, "omega1_hz": 6.307e9, "omega2_hz": 4.498e9,
        "pulse_lengths_s": [200e-9],
        "delays_s": list(delays),
        "dissipation": {"t1_s": list(t1)}}))
    out = str(tmp_path / "blockade.csv")
    code = main(["--config", str(cfg), "--out", out, "blockade"])
    assert code == 0
    rows = read_blockade_csv(out)

    def expfit(xs, ys, tau0):
        popt, _ = curve_fit(lambda t, a, tau, c: c + a * np.exp(-t / tau),
                            xs, ys, p0=[np.sign(ys[-1] - ys[0]) * -1, tau0, ys[-1]])
        return popt[1]

    neg = sorted((abs(r["delay_s"]), r["p1_e"]) for r in rows if r["delay_s"] < 0)
    pos = sorted((r["delay_s"], r["p1_e"]) for r in rows if r["delay_s"] > 0)
    tau_decay = expfit([x for x, _ in neg], [y for _, y in neg], 8e-6)
    tau_recov = expfit([x for x, _ in pos], [y for _, y in pos], 8e-6)
    dev1 = abs(tau_decay - t1[0]) / t1[0]
    dev2 = abs(tau_recov - t1[1]) / t1[1]
    # one in-process open-system run so the conservation suite sees a trace drift
    protocol = make_blockade_protocol(BLOCKADE_SYSTEM, 200e-9, 10e-6)
    open_run = run_blockade_protocol(BLOCKADE_SYSTEM, protocol,
                                     DissipationSpec(t1))
    DRIFTS.append(open_run.norm_drift)
    _report(8, dev1 <= 0.02 and dev2 <= 0.02,
            f"decay tau = {tau_decay * 1e6:.3f} us (T1_q1 {t1[0] * 1e6} us, "
            f"dev {dev1:.2%}), recovery tau = {tau_recov * 1e6:.3f} us "
            f"(T1_q2 {t1[1] * 1e6} us, dev {dev2:.2%})")


def test_criterion_09_conditional_ramsey():
    grid = np.linspace(0.0, 2e-6, 4001)
    devs = []
    for zeta in (5e6, 15.25e6, 50e6):
        system = TwoQubitSystem(6.307e9, 4.498e9, zeta)
        f0, f1 = run_conditional_ramsey(system, grid)
        devs.append(abs(abs(f1 - f0) - zeta) / zeta)
    worst = max(devs)
    _report(9, worst <= 1e-3,
            f"fringe difference matches zeta for 5 / 15.25 / 50 MHz, "
            f"worst dev {worst:.2e} (<=0.1%)")


def test_criterion_10_frame_equivalence():
    worst = 0.0
    details = []
    for delay in (20e-9, 30e-9, 40e-9, 50e-9):
        lab_prot = make_blockade_protocol(BLOCKADE_SYSTEM, 40e-9, delay, frame="lab")
        rwa_prot = make_blockade_protocol(BLOCKADE_SYSTEM, 40e-9, delay,
                                          frame="rotating")
        lab = run_blockade_protocol(BLOCKADE_SYSTEM, lab_prot, n_grid=5)
        rwa = run_blockade_protocol(BLOCKADE_SYSTEM, rwa_prot, n_grid=5)
        DRIFTS.extend([lab.norm_drift, rwa.norm_drift])
        d1 = abs(lab.p_excited(1)[-1] - rwa.p_excited(1)[-1])
        d2 = abs(lab.p_excited(2)[-1] - rwa.p_excited(2)[-1])
        worst = max(worst, d1, d2)
        details.append(f"{delay * 1e9:.0f}ns:{max(d1, d2):.4f}")
    _report(10, worst <= 0.02,
            "lab vs RWA population differences " + " ".join(details) + " (<=0.02)")


def test_criterion_11_foster_round_trip():
    rng = np.random.default_rng(814)
    worst = 0.0
    for _ in range(100):
        n_modes = int(rng.integers(1, 5))
        freqs = np.sort(rng.uniform(2e9, 12e9, n_modes))
        while n_modes > 1 and np.any(np.diff(freqs) < 0.8e9):
            freqs = np.sort(rng.uniform(2e9, 12e9, n_modes))
        modes = [FosterMode(z / w, 1.0 / (z * w))
                 for f in freqs
                 for z, w in [(rng.uniform(40, 150), 2 * np.pi * f)]]
        omegas = 2 * np.pi * np.linspace(0.5e9, 15e9, 600)
        z = foster_impedance(modes, omegas)
        fit = vector_fit((omegas, z), 2 * n_modes)
        recovered = foster_from_fit(fit)
        got = np.sort([m.omega_rad_s for m in recovered])
        want = np.sort([m.omega_rad_s for m in modes])
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    _report(11, worst < 1e-6,
            f"100 random 1-4 mode lossless networks, worst mode-frequency "
            f"deviation {worst:.2e} (<1e-6)")


def test_criterion_12_optimizer_soundness():
    # 1-D boundary optimum with instrumented bound check
    seen = []

    def zeta_of_g(x, problem):
        seen.append(float(x[0]))
        params = KerrParams(np.array([6.27e9, 4.27e9]), np.array([-351e6, -312e6]),
                            np.zeros((2, 2)), exchange_g_hz=float(x[0]))
        spec = diagonalize_and_label(params, (4, 4), 4)
        return Candidate(x, zeta_exact(spec), True, ())

    g_hi = 150e6
    problem = OptimizationProblem((("g_hz", 0.0, g_hi),),
                                  de_params=DEParams(population=20,
                                                     generations=60, seed=3))

    def population(score):
        return lambda xs, problem: [score(x, problem) for x in xs]

    best, history = optimize(problem, population(zeta_of_g))
    bests = [h.best_zeta_hz for h in history]
    monotone = all(b >= a for a, b in zip(bests, bests[1:]))
    in_bounds = all(0.0 - 1e-9 <= g <= g_hi + 1e-9 for g in seen)
    boundary = abs(best.x[0] - g_hi) <= g_hi / 200

    best2, history2 = optimize(problem, population(zeta_of_g))
    reproducible = np.array_equal(best.x, best2.x) and \
        [h.best_zeta_hz for h in history] == [h.best_zeta_hz for h in history2]

    def rosen(x, problem):
        a, b = x
        return Candidate(x, -((a - 1) ** 2) - 100 * (b - a * a) ** 2, True, ())

    rosen_problem = OptimizationProblem(
        (("a", -2.0, 2.0), ("b", -1.0, 3.0)),
        de_params=DEParams(seed=11), objective="signed")
    rbest, _ = optimize(rosen_problem, population(rosen))
    rosen_ok = max(abs(rbest.x[0] - 1.0), abs(rbest.x[1] - 1.0)) <= 1e-3

    ok = monotone and in_bounds and boundary and reproducible and rosen_ok
    _report(12, ok,
            f"monotone history {monotone}, bounds respected {in_bounds}, "
            f"boundary optimum {boundary} (g* = {best.x[0] / 1e6:.2f} MHz), "
            f"seed-reproducible {reproducible}, rosenbrock within 1e-3 {rosen_ok}")


def test_criterion_13_conservation_suite():
    assert DRIFTS, "dynamics criteria must run before the conservation check"
    worst = max(DRIFTS)
    _report(13, worst <= 1e-6,
            f"worst norm/trace drift over {len(DRIFTS)} dynamics runs "
            f"{worst:.2e} (<=1e-6)")
