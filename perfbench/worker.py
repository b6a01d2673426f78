"""One benchmark worker process: set up a workload, then time or trace it.

Started by ``perfbench/run.py`` with single-threaded BLAS and this
checkout's ``src`` on ``PYTHONPATH``.  Protocol on stdout: one JSON line
when set-up is done (``{"ready": ...}``), then one JSON line with the
results.  Set-up is import, input generation and one untimed warm-up
pass; the caller times it from process start.  Untraced, the worker runs
its stretch of the run's op stream and reports the raw samples; traced,
it reports the per-layer metrics.
"""

import argparse
import gzip
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import hostspeed
import tracing
import workloads
from checkout import ROOT, SRC, child_env


def run_op(op, tracer=None, index=-1):
    """Run one op; return its wall time in s and a failure message or None.

    Only the call is timed.  Exceptions from the call or the check count
    as a failed op; the run goes on.
    """
    if tracer is not None:
        tracer.op, tracer.active = index, True
    start = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            op.check(result)
        except Exception as exc:  # noqa: BLE001 - includes CheckFailed
            error = f"{type(exc).__name__}: {exc}"
    return wall, None if error is None else f"{op.name}: {error}"


def run_pass(ops, walls, failures, tracer=None):
    for index, op in enumerate(ops):
        wall, failure = run_op(op, tracer, index)
        walls.append(wall)
        if failure:
            failures.append(failure)


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def import_layer(repeats: int = 3) -> dict:
    """Median ``-X importtime`` figures of ``import qprospect`` in fresh processes."""
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qprospect"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=workloads.CLI_TIMEOUT_S, check=True,
        )
        runs.append(tracing.import_times(done.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def write_spans(spans, ops, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        out.write("span\tparent\top\top_name\tname\tstart_ns\tend_ns\n")
        for index, (name, start, end, parent, op) in enumerate(spans):
            out.write(f"{index}\t{parent}\t{op}\t{ops[op].name}\t{name}\t{start}\t{end}\n")


def cycle_order(ops, seed, cycle):
    """The seed-shuffled op order of one cycle of the run's op stream."""
    return random.Random(f"{seed}/{cycle}").sample(ops, len(ops))


def timed_share(ops, seed, start, seconds, finish, in_process):
    """This worker's stretch of the run's op stream.

    The stream is whole seed-shuffled cycles, one after another.  The
    worker picks it up at position ``start`` and runs ops until
    ``seconds`` of op time have passed; with ``finish`` it goes on to the
    end of the open cycle, and runs at least one cycle.  Just before each
    op it times the host's calibration unit.  Returns the raw samples;
    the caller joins the stretches of all workers.
    """
    walls, units, failures = [], [], []
    position, spent, n = start, 0.0, len(ops)
    while spent < seconds or (finish and (position % n or position == 0)):
        if position % n == 0 or not walls:
            order = cycle_order(ops, seed, position // n)
        units.append(hostspeed.calibrate())
        wall, failure = run_op(order[position % n])
        walls.append(wall)
        spent += wall
        position += 1
        if failure:
            failures.append(failure)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    samples = {"walls": walls, "units": units, "end": position, "ops_per_cycle": n,
               "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    return len(walls), failures, samples


def traced_phase(ops, seed, spans_file):
    """One cycle with span recorders, between two untraced runs of the same cycle."""
    cycle = cycle_order(ops, seed, 0)
    untraced, traced, failures = [], [], []
    run_pass(cycle, untraced, failures)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_pass(cycle, traced, failures, tracer)
    finally:
        tracer.uninstall()
    run_pass(cycle, untraced, failures)
    metrics = tracing.layer_metrics(tracer.spans, [op.tags for op in cycle])
    metrics["trace.overhead_ratio"] = 2 * sum(traced) / sum(untraced)
    metrics.update(import_layer())
    write_spans(tracer.spans, cycle, spans_file)
    metrics["spans"] = len(tracer.spans)
    metrics["spans_file"] = os.path.relpath(spans_file, ROOT)
    return 3 * len(cycle), failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--start", type=int, default=0,
                        help="position in the run's op stream where this worker begins")
    parser.add_argument("--finish", type=int, choices=(0, 1), default=1,
                        help="1: run on to the end of the open cycle")
    args = parser.parse_args(argv)
    # the host's speed at both ends of set-up, to scale ``setup_s``
    first_unit = hostspeed.calibrate()

    # The traced route runs the CLI in-process; the timed route spawns it.
    in_process = args.trace == 1 or args.workload != "cli_scenarios"
    if in_process:
        import qprospect

        if not os.path.abspath(qprospect.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"qprospect imported from {qprospect.__file__}, not {SRC}")
    ops = workloads.build(args.workload, args.seed, in_process)
    # every set-up does the same work: all ops in-process, else the first scenario
    warm = ops if in_process else ops[:1]
    failures: list[str] = []
    run_pass(warm, [], failures)
    unit = (first_unit + hostspeed.calibrate()) / 2
    print(json.dumps({"ready": True, "attempted": len(warm), "failures": failures,
                      "unit": unit}), flush=True)

    if args.trace:
        spans_file = os.path.join(
            ROOT, ".perfbench", f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        attempted, failures, data = traced_phase(ops, args.seed, spans_file)
    else:
        attempted, failures, data = timed_share(ops, args.seed, args.start, args.seconds,
                                                args.finish, in_process)
    print(json.dumps({"attempted": attempted, "failures": failures, "data": data,
                      "machine": machine_facts()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
