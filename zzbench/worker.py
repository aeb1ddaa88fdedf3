"""One fresh interpreter: set up zzkit, then (unless --setup-only) run timed passes.

    python3 worker.py WORKDIR --speed-kernel MIX [--setup-only] [--seconds S] [--trace 0|1]

Set-up is timed from before `import zzkit.cli` to the end of a warm-up on
tiny inputs, so it covers the import, fixture loading and lazy first-call
costs.  A pass runs every command of the plan once through `zzkit.cli.main`
and is timed as a whole.  Every interval is timed in wall seconds and also
corrected for the host's speed by `speed.SpeedProbe`, which samples from the
start of the process.  With --trace 1 each untraced pass is followed by a
traced one (spans from `spans.Tracer`), and at the end one traced pass runs
the plan of the neighbouring seed, to compare work sizes.  Prints one JSON
object on stdout.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

PROBE = SpeedProbe(sys.argv[sys.argv.index("--speed-kernel") + 1])
PROBE.start()

MIN_PASSES = 3          # per run; a traced run takes at least 2 untraced and 2 traced
MAX_PASSES = 200


def peak_rss_mb():
    """High-water resident set of this process image (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_command(cli, command, pass_dir):
    """Run one CLI command; returns (exit code, captured stdout+stderr)."""
    argv = [a.replace("{pass}", str(pass_dir)) for a in command["argv"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:       # a traceback is a failed command, not a crashed benchmark
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


def run_pass(cli, commands, pass_dir):
    pass_dir.mkdir(parents=True, exist_ok=True)
    captured = []
    start = time.perf_counter()
    for command in commands:
        captured.append(run_command(cli, command, pass_dir))
    end = time.perf_counter()
    for command, (_, text) in zip(commands, captured):
        (pass_dir / f"{command['name']}.stdout").write_text(text)
    return (start, end), [code for code, _ in captured]


def main():
    args = sys.argv[1:]
    workdir = Path(args[0])
    setup_only = "--setup-only" in args
    seconds = float(args[args.index("--seconds") + 1]) if "--seconds" in args else 0.0
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    plan = json.loads((workdir / "plan.json").read_text())

    sys.path.insert(0, str(Path.cwd() / "src"))
    import_start = time.perf_counter()
    import zzkit.cli as cli
    imported = (import_start, time.perf_counter())
    if not Path(cli.__file__).resolve().is_relative_to(Path.cwd().resolve()):
        sys.exit(f"zzkit imported from {cli.__file__}, outside the checkout")
    from zzkit.fixtures import load_fixture
    load_fixture("chip1")
    warm_dir = workdir / f"warmup-{'probe' if setup_only else 'run'}"
    warm_dir.mkdir(parents=True, exist_ok=True)
    for command in plan["warmup"]:
        code, text = run_command(cli, command, warm_dir)
        if code != 0:
            sys.exit(f"warm-up {command['name']} exited {code}: {text[-2000:]}")
    setup = (START, time.perf_counter())
    if setup_only:
        PROBE.stop()
        print(json.dumps({"setup_s": PROBE.corrected(*setup), "setup_wall_s": setup[1] - setup[0],
                          "import_s": PROBE.corrected(*imported)}))
        return

    commands = plan["commands"]
    min_passes = 2 if trace else MIN_PASSES
    times, exits, traced, layers = [], [], [], []
    if trace:
        from spans import Tracer
        tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while len(times) < MAX_PASSES and (len(times) < min_passes or time.perf_counter() < deadline):
        interval, codes = run_pass(cli, commands, workdir / f"pass{len(times)}")
        times.append(interval)
        exits.append(codes)
        if trace:
            # traced passes alternate with untraced ones, so that a change of
            # host speed during the run moves both alike
            tracer.install()
            mark = tracer.mark()
            interval, _ = run_pass(cli, commands, workdir / f"traced{len(traced)}")
            traced.append(interval)
            layers.append(tracer.summary(mark))
            tracer.uninstall()

    if trace:
        tracer.install()
        mark = tracer.mark()
        neighbour = json.loads((workdir / "neighbour_plan.json").read_text())
        run_pass(cli, neighbour["commands"], workdir / "neighbour")
        neighbour_layers = tracer.summary(mark)
        tracer.uninstall()
    PROBE.stop()

    result = {"setup_s": PROBE.corrected(*setup), "setup_wall_s": setup[1] - setup[0],
              "import_s": PROBE.corrected(*imported), "exits": exits,
              "pass_s": [PROBE.corrected(*t) for t in times],
              "pass_wall_s": [end - start for start, end in times]}
    if trace:
        # self times are rescaled by their pass's correction, like the pass itself
        for (start, end), summary in zip(traced, layers):
            scale = PROBE.corrected(start, end) / (end - start)
            for key in summary:
                if key.endswith("_s"):
                    summary[key] *= scale
        result.update(traced_pass_s=[PROBE.corrected(*t) for t in traced], layers=layers,
                      neighbour_layers=neighbour_layers)
        tracer.dump(workdir / "spans.json")

    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    finally:
        PROBE.stop()
