"""Output checks: read every output through the zzkit.io readers, compare to the reference.

One operation is one output row or result (sweep point, flux point, fit, DE
run, grid point, spectral row, Ramsey fringe).  It fails when its command
exited non-zero, when its row is missing or carries an `error:` token, or when
a value lies outside the workload's tolerance against the reference.
"""

import copy
import json

import numpy as np

import reference as ref
from workloads import REL_TOL


def known_defect(group, index, why):
    """The known misfit of run_conditional_ramsey: a listed fringe off its line, exit 0.

    Only the (window, spectator) fringes of `workloads.RAMSEY_MISFITS` qualify.
    They are counted in `failed` and `fail_frac` like any other failure; they
    are the only failures that leave `correct` true.
    """
    return (group["kind"] == "ramsey_fringe" and why.startswith("fringe_hz ")
            and index in group["extra"]["known_misfits"])


def _out_path(command, pass_dir):
    argv = command["argv"]
    return argv[argv.index("--out") + 1].replace("{pass}", str(pass_dir))


def read_rows(group, command, pass_dir, zio):
    """Parse the rows of one output group; raises on unreadable output."""
    out = _out_path(command, pass_dir)
    kind = group["kind"]
    if kind == "sweep_point":
        return zio.read_zz_sweep_csv(out)
    if kind == "flux_point":
        return zio.read_flux_csv(out)
    if kind == "flux_summary":
        with open(f"{pass_dir}/{command['name']}.stdout") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.startswith("{")]
        return [json.loads(lines[-1])]
    if kind in ("fit", "de_run"):
        with open(out) as fh:
            payload = json.load(fh)
        if kind == "de_run":
            payload["history_rows"] = zio.read_history_csv(out + ".history.csv")
        return [payload]
    if kind == "grid_point":
        return zio.read_blockade_csv(out)
    if kind == "spectral":
        return zio.read_spectral_csv(out + ".spectral.csv")
    if kind == "ramsey_fringe":
        return zio.read_ramsey_csv(out)
    raise ValueError(f"unknown output kind {kind!r}")


def _deviation(value, expected, mode, tol):
    """(deviation in the group's measure, within tolerance)."""
    diff = abs(value - expected)
    if mode == "abs":
        return diff, diff <= tol
    rel = diff / abs(expected)
    if mode == "rel":
        return rel, rel <= tol
    tol_rel, tol_abs = tol
    return rel, diff <= tol_rel * abs(expected) + tol_abs


def _check_fit(group, row):
    want = np.asarray(group["extra"]["freqs_hz"])
    got = np.sort([m["freq_hz"] for m in row["modes"]])
    if len(got) != len(want):
        return None, f"{len(got)} modes recovered, {len(want)} generated"
    dev = float(np.max(np.abs(got - want) / want))
    return dev, None if dev <= REL_TOL else f"mode frequency off by {dev:.2e}"


def _check_design(group, row):
    if not row["feasible"]:
        return None, "best design infeasible"
    zeta, slacks = ref.design_point(row["best_x"], group["extra"]["problem"])
    dev = abs(row["zeta_hz"] - zeta) / abs(zeta)
    if dev > REL_TOL:
        return dev, f"zeta {row['zeta_hz']:.6e} vs block zeta {zeta:.6e}"
    violated = [k for k, s in slacks.items() if s > 1e-9]
    if violated:
        return dev, f"constraints violated at the best design: {violated}"
    history = row["history_rows"]
    bests = [h["best_zeta_hz"] for h in history]
    if len(history) != group["extra"]["generations"]:
        return dev, f"{len(history)} history rows"
    if any(b is None for b in bests) or any(b1 < b0 for b0, b1 in zip(bests, bests[1:])):
        return dev, "history best is not monotone"
    if bests[-1] != abs(row["zeta_hz"]):
        return dev, "history best differs from the reported zeta"
    return dev, None


def check_group(group, rows, exit_code):
    """List of (ok, err, why) for the group's operations, in row order."""
    n = group["count"]
    if exit_code != 0:
        return [(False, None, f"{group['command']} exited {exit_code}")] * n
    if rows is None or len(rows) != n:
        got = "unreadable" if rows is None else f"{len(rows)} rows"
        return [(False, None, f"{group['command']}: {got}, expected {n}")] * n
    if group["kind"] in ("fit", "de_run"):
        checker = _check_fit if group["kind"] == "fit" else _check_design
        try:
            err, why = checker(group, rows[0])
        except (KeyError, TypeError, ValueError) as exc:
            err, why = None, f"malformed output: {exc!r}"
        return [(why is None, err, why)]
    ops = []
    for i, row in enumerate(rows):
        why, err = None, 0.0
        flag = row.get("ambiguous_flag", "")
        if flag.startswith("error:"):
            why = f"row carries {flag}"
        for col, values in group["exact"].items():
            if why is None and row[col] != values[i]:
                why = f"{col} {row[col]!r} != {values[i]!r}"
        for col, (values, mode, tol, counts) in group["fields"].items():
            if why is not None:
                break
            if row[col] is None:
                why = f"{col} missing"
                break
            dev, ok = _deviation(row[col], values[i], mode, tol)
            if counts:
                err = max(err, dev)
            if not ok:
                why = f"{col} {row[col]!r} vs reference {values[i]!r} (dev {dev:.3g})"
        ops.append((why is None, err, why))
    return ops


def perturb(group, rows, index):
    """Copy of rows with operation `index` pushed well past its tolerance."""
    rows = copy.deepcopy(rows)
    row = rows[index]
    if group["kind"] == "fit":
        row["modes"][0]["freq_hz"] *= 1.0 + 10 * REL_TOL
    elif group["kind"] == "de_run":
        row["zeta_hz"] *= 1.0 + 10 * REL_TOL
    else:
        col, (_, mode, tol, _) = next(iter(group["fields"].items()))
        allowed = {"abs": lambda v: tol, "rel": lambda v: tol * abs(v),
                   "rel+abs": lambda v: tol[0] * abs(v) + tol[1]}[mode](row[col])
        row[col] += 10 * allowed
    return rows
