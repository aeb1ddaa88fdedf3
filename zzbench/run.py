"""Benchmark of the zzkit design loop, driven through `zzkit.cli.main`.

    python3 zzbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (zzkit is imported from ./src, never
from an installed copy).  Workloads: sweep, design, blockade, lab_frame; see
zzbench/NOTES.md for why each exists and what each metric should respond to.

A run generates the workload's inputs from the seed, computes the reference
outputs (numpy only), times set-up in fresh interpreters, runs timed passes
in one worker process, and checks every pass's outputs against the
reference.  The last stdout line is the result object; the line before it is
a detail record (environment, failures with their causes, raw figures).
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced worker.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2            # fresh interpreters timed for set-up, besides the worker itself
CHILD_TIMEOUT_S = 150
WORK_RATIO_LIMIT = 1.10     # neighbouring seeds may differ this much in Hamiltonian evaluations
WORK_ROOT = ".zzbench_work"


def fail(message):
    print(f"zzbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(root):
    import numpy
    import scipy

    def git_sha():
        try:
            out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        lines = out.stdout.split()
        if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
            return None     # not a git checkout of its own (or inside another repository)
        return lines[1]

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


def run_child(workdir, workload, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(workdir),
           "--speed-kernel", workloads.SPEED_KERNEL[workload], *extra]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"worker {' '.join(extra)} timed out after {CHILD_TIMEOUT_S} s")
    if out.returncode != 0:
        fail(f"worker {' '.join(extra)} exited {out.returncode}: {out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_passes(plan, pass_dirs, exits, zio):
    """Per-pass operation results, and whether the checkers catch a perturbed output."""
    by_name = {c["name"]: i for i, c in enumerate(plan["commands"])}
    passes, selftest_ok = [], True
    for pass_dir, codes in zip(pass_dirs, exits):
        ops = []
        for group in plan["groups"]:
            index = by_name[group["command"]]
            try:
                rows = check.read_rows(group, plan["commands"][index], pass_dir, zio)
            except (OSError, ValueError, KeyError, IndexError, zio.ConfigError):
                rows = None
            results = check.check_group(group, rows, codes[index])
            ops.extend((group, i, ok, err, why) for i, (ok, err, why) in enumerate(results))
            passing = [i for i, (ok, _, _) in enumerate(results) if ok]
            if pass_dir is pass_dirs[-1] and passing:
                bad = check.check_group(group, check.perturb(group, rows, passing[0]), 0)
                selftest_ok &= not bad[passing[0]][0]
        passes.append(ops)
    return passes, selftest_ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    fixture_path = root / "src" / "zzkit" / "data" / "chip1.json"
    if not (root / "src" / "zzkit" / "cli.py").is_file() or not fixture_path.is_file():
        fail(f"no zzkit source tree under {root / 'src'}; run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    env = environment(root)
    fixture = json.loads(fixture_path.read_text())

    workdir = root / WORK_ROOT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.generate(args.workload, args.seed, workdir / "inputs", fixture)
    neighbour = workloads.generate(args.workload, args.seed + 1, workdir / "neighbour_inputs",
                                   fixture, references=False)
    for name, p in (("plan.json", plan), ("neighbour_plan.json", neighbour)):
        (workdir / name).write_text(json.dumps({k: p[k] for k in ("commands", "warmup")}))
    op_count = sum(g["count"] for g in plan["groups"])
    same_size = op_count == sum(g["count"] for g in neighbour["groups"])
    ref_errors = [g["extra"]["reference_error"] for g in plan["groups"]
                  if "reference_error" in g["extra"]]
    reference_ok = all(e <= plan["resolution"] / 10 for e in ref_errors)

    probes = [run_child(workdir, args.workload, "--setup-only") for _ in range(SETUP_PROBES)]
    run = run_child(workdir, args.workload, "--seconds", str(args.seconds),
                    "--trace", str(args.trace))

    import zzkit.io as zio
    n_passes = len(run["pass_s"])
    pass_dirs = [workdir / f"pass{k}" for k in range(n_passes)]
    passes, selftest_ok = check_passes(plan, pass_dirs, run["exits"], zio)

    failures = [[(g, i, why) for g, i, ok, _, why in ops if not ok] for ops in passes]
    failed = sum(len(f) for f in failures)
    attempted = op_count * n_passes
    unexpected = [(g["command"], why) for f in failures for g, i, why in f
                  if not check.known_defect(g, i, why)]
    raw_err = max((err for ops in passes for *_, err, _ in ops if err is not None), default=0.0)
    worst_failed = max(len(f) for f in failures)
    setups = [p["setup_s"] for p in probes] + [run["setup_s"]]

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "operations_per_pass": op_count, "passes": n_passes,
        "pass_s": run["pass_s"], "pass_wall_s": run["pass_wall_s"], "setup_samples_s": setups,
        "setup_wall_samples_s": [p["setup_wall_s"] for p in probes] + [run["setup_wall_s"]],
        "import_samples_s": [p["import_s"] for p in probes] + [run["import_s"]],
        "err_max_raw": raw_err, "err_resolution": plan["resolution"],
        "reference_error": max(ref_errors, default=None),
        "failures_last_pass": [f"{g['command']}[{i}]: {why}" for g, i, why in failures[-1]],
        "checker_selftest_ok": selftest_ok, "neighbour_same_op_count": same_size,
    }
    if args.trace == 0:
        metrics = {
            "task_s": (statistics.median(run["pass_s"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "err_max": (max(raw_err, plan["resolution"]), "1"),
            # rule-of-succession estimate of the per-operation failure
            # probability: never 0, and one more failure at least doubles it
            "fail_frac": ((worst_failed + 1) / (op_count + 2), "1"),
        }
    else:
        layers = {k: statistics.median(p[k] for p in run["layers"]) for k in run["layers"][0]}
        h_evals = (layers["dynamics.h_evals"], run["neighbour_layers"]["dynamics.h_evals"])
        work_ratio = max(h_evals) / min(h_evals) if min(h_evals) else float(h_evals[0] == h_evals[1])
        same_size &= work_ratio <= WORK_RATIO_LIMIT
        detail.update(traced_pass_s=run["traced_pass_s"], neighbour_h_evals=h_evals[1],
                      neighbour_h_evals_ratio=work_ratio)
        metrics = {k: (v, "s" if k.endswith("_s") else
                       "1" if k.endswith("_ratio") else "count") for k, v in layers.items()}
        metrics["setup.import_s"] = (statistics.median(detail["import_samples_s"]), "s")
        metrics["trace.overhead_ratio"] = (statistics.median(
            t / u for t, u in zip(run["traced_pass_s"], run["pass_s"])), "1")
    correct = not unexpected and selftest_ok and same_size and reference_ok
    detail["loadavg_end"] = os.getloadavg()
    detail["correct_parts"] = {"no_unexpected_failure": not unexpected,
                               "checker_selftest": selftest_ok, "work_size": same_size,
                               "reference_accuracy": reference_ok}
    detail["unexpected_failures"] = unexpected[:20]
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
