#!/usr/bin/env python3
"""designkit benchmark harness.

    python3 bench/run.py --workload design_grid --seed 0 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in-process through
``designkit.cli.main``, one command after the other, as one caller
would: a closed loop with a single client, on one process (neither
``--workers`` nor ``DESIGNKIT_THREADS`` is set).  Every command's exit
code and output is checked; a miss counts as a failed operation.

``--trace 0`` measures the end-to-end metrics: set-up time of a fresh
interpreter, and wall time and throughput per pass of the workload,
repeated for ``--seconds``, plus peak RSS.

``--trace 1`` measures the per-layer metrics: one traced pass of each
workload (the whole design loop) gives the span-derived counts and
times, the layer microbenchmarks run untraced, the design grid runs once
with two workers, and untraced and traced passes of the chosen workload
give the tracing overhead.

Progress and every metric, with its unit and sample count, go to stdout;
the last line is the result as one JSON object.  Artifacts (spans,
full results with context) are written under ``bench/out/``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5
MIN_PASSES = 3

# Run in a fresh interpreter: time to import the CLI and load both polars.
SETUP_CODE = """\
import time
start = time.perf_counter()
import sys
sys.path.insert(0, "src")
import designkit.cli
from designkit.airfoil import AirfoilPolar
AirfoilPolar.bundled("sc1095")
AirfoilPolar.bundled("naca0012")
print(time.perf_counter() - start)
"""


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []


def call_cli(argv):
    from designkit import cli
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:   # usage error
        return exc.code
    except Exception:
        traceback.print_exc()
        return "uncaught exception"


def run_pass(ops, tally):
    """Run every operation once, back to back; returns the pass wall time.
    Outputs are checked after the timed region."""
    for op in ops:
        shutil.rmtree(op.out, ignore_errors=True)
    start = time.perf_counter()
    codes = [call_cli(op.argv) for op in ops]
    took = time.perf_counter() - start
    for op, code in zip(ops, codes):
        tally.attempted += 1
        problems = op.problems() if code == 0 else [f"{op.name}: exit code {code}"]
        if problems:
            tally.failed += 1
            tally.problems += problems
    return took


def measure_setup():
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def summary(values):
    """(median, q1, q3, n) of a sample."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def show(name, values, unit, what):
    median, q1, q3, n = summary(values)
    print(f"  {name} = {median:.6g} {unit}  (median of {n} {what}; "
          f"q1 {q1:.6g}, q3 {q3:.6g})")
    return median


def context(args):
    import numpy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_lines": src_lines}


def end_to_end(args, ops, tally):
    import workloads
    setup = measure_setup()
    walls = []
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_PASSES or \
            time.perf_counter() + statistics.median(walls) <= deadline:
        walls.append(run_pass(ops, tally))
    items = sum(op.items for op in ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    item_name = workloads.ITEM_NAMES[args.workload]
    print(f"end-to-end metrics, {args.workload}, {items} items per pass:")
    metrics = {
        "setup_s": (show("setup_s", setup, "s", "fresh interpreters"), "s"),
        "wall_s": (show("wall_s", walls, "s", "passes"), "s"),
        "items_per_s": (show(f"items_per_s ({item_name})",
                             [items / w for w in walls], "1/s", "passes"), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"  peak_rss_mb = {rss_mb:.6g} MB  (1 sample, whole process)")
    samples = {"setup_s": setup, "wall_s": walls, "items_per_pass": items}
    return metrics, samples


def per_layer(args, all_ops, tally):
    import micro
    import tracer as tracing
    from designkit import cli
    from workloads import WORKLOADS

    start = time.perf_counter()
    # the grid on a two-worker pool; once the CLI drops --workers, this
    # times the default path instead
    _, unknown = cli.build_parser().parse_known_args(["optimize", "--workers", "2"])
    pool_args = [] if unknown else ["--workers", "2"]
    pool_ops = [replace(op, argv=op.argv + pool_args) for op in all_ops["design_grid"]]
    pool_s = run_pass(pool_ops, tally)
    if unknown:
        print("  (optimize has no --workers option: explorer.optimize_pool2.s "
              "times the default path)")
    metrics = micro.run(args.seed)

    # overhead: traced and untraced passes of the chosen workload, run
    # back to back so that drift in CPU speed cancels; the traced loop
    # starts with the chosen workload right after its first untraced pass
    tracer = tracing.Tracer()
    ops = all_ops[args.workload]
    untraced, traced = [run_pass(ops, tally)], []
    loop = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    with tracer.installed():
        for workload in loop:
            tracer.pass_id = f"loop:{workload}"
            took = run_pass(all_ops[workload], tally)
            if workload == args.workload:
                traced.append(took)
    metrics.update(tracing.layer_metrics(tracer.spans, {f"loop:{w}" for w in loop}))

    deadline = start + args.seconds
    while time.perf_counter() + 2 * statistics.median(untraced) <= deadline:
        with tracer.installed():
            tracer.pass_id = f"overhead:{len(traced)}"
            traced.append(run_pass(ops, tally))
        untraced.append(run_pass(ops, tally))
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["explorer.optimize_pool2.s"] = (pool_s, "s")
    metrics["trace.overhead_frac"] = (overhead, "frac")

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    print(f"per-layer metrics (one traced pass of {', '.join(WORKLOADS)}; "
          f"spans in {spans_path.relative_to(ROOT)}):")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  trace overhead from {len(traced)} traced and {len(untraced)} "
          f"untraced passes of {args.workload}")
    return metrics, {"traced_wall_s": traced, "untraced_wall_s": untraced}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "designkit").is_dir():
        print(f"no designkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("DESIGNKIT_THREADS", None)   # the default, single-process path
    import workloads

    ctx = context(args)
    print("context " + json.dumps(ctx))
    work = OUT / "work"
    tally = Tally()
    if args.trace:
        all_ops = {w: workloads.build(w, args.seed, work) for w in WORKLOADS}
        metrics, samples = per_layer(args, all_ops, tally)
    else:
        ops = workloads.build(args.workload, args.seed, work)
        metrics, samples = end_to_end(args, ops, tally)

    rate = tally.failed / tally.attempted
    print(f"  error_rate = {rate:.6g}  ({tally.failed} failed / "
          f"{tally.attempted} operations)")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    detail = dict(result, context=ctx, samples=samples, error_rate=rate,
                  problems=tally.problems)
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
