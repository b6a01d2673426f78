"""qprospect benchmark: run one workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cli_scenarios, sequential_tables, composite_scale,
pipeline_dynamics (see ``perfbench/README.md``).  Each is a closed loop
with one client: the next op starts when the previous one has finished.
Every worker process and CLI child runs with BLAS pinned to one thread.

With ``--trace 0`` the workload runs in ``SETUPS`` fresh worker
processes one after another.  ``setup_s`` is their median time from
spawn to ready (import, input generation, warm-up).  The timed phase is
one stream of whole seed-shuffled cycles of ops, split between the
workers: worker k runs ops until ``(k + 1) / SETUPS`` of ``--seconds`` of
op time has passed in the run, and the last one also finishes the open
cycle.  So the samples spread over the whole run, and a run overshoots
``--seconds`` by less than one cycle.

Times are reported at the reference speed of ``hostspeed``: each op's
wall time is scaled by how much slower or faster than its reference time
a fixed calibration unit ran just before it, and each set-up by the same
unit timed at its start and end, so that the shared host's slow and fast
stretches cancel.  The unscaled figures are printed too, on a comment
line.

With ``--trace 1`` one worker runs one cycle with span recording,
between two untraced runs of it, and reports the per-layer metrics.
``BENCHMARK.json`` names the workloads and metrics.

The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero, with no such
line, when the workload cannot be run at all.
"""

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

import hostspeed
from checkout import ROOT, child_env

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
DEADLINE_S = 170.0


class WorkerError(Exception):
    pass


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def read_line(proc, selector, deadline) -> dict:
    """Next JSON line from a worker, or WorkerError on exit or deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not selector.select(remaining):
        raise WorkerError("worker missed the deadline")
    line = proc.stdout.readline()
    if not line:
        raise WorkerError(f"worker exited with code {proc.wait()} before reporting")
    return json.loads(line)


def run_worker(args, extra, deadline: float):
    """Start one worker; return (set-up seconds, ready record, result record)."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            ready = read_line(proc, selector, deadline)
            setup_s = time.perf_counter() - start
            result = read_line(proc, selector, deadline)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")
        return setup_s, ready, result
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


#: the tail percentile of each workload, fixed so that a faster or slower
#: program is compared at the same percentile.  Each is the highest of
#: p5, p10, ..., p95, p99 with at least ten samples beyond it in a
#: baseline run of 16 s, except on sequential_tables: there p95 falls on
#: the edge between the 4 table calls and the 72 cheaper calls of a
#: cycle, so the tail is p90 (see ``perfbench/README.md``).
TAIL_PERCENTILE = {
    "cli_scenarios": 65,
    "sequential_tables": 90,
    "composite_scale": 90,
    "pipeline_dynamics": 95,
}


def percentile(ordered, p):
    """Inclusive linear-interpolation percentile of sorted samples."""
    h = (len(ordered) - 1) * p / 100.0
    lo = int(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (h - lo)


def timings(setups, walls, tail_p) -> dict:
    """The timing metrics of one run from its set-up times and op walls, in s."""
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(walls) / sum(walls),
        "op_wall_p50_ms": statistics.median(walls) * 1e3,
        "op_wall_tail_ms": percentile(sorted(walls), tail_p) * 1e3,
    }


def end_to_end(setups, shares, tail_p) -> tuple[dict, str]:
    """End-to-end metrics from the set-ups and the workers' stretches.

    ``setups`` holds ``(seconds, unit)`` pairs, the unit being the mean of
    the calibrations a worker made at the start and the end of its
    set-up.  Each share holds its op walls and the calibration unit timed
    before each op.  The reported times are at the reference speed
    (``hostspeed``); the unscaled ones go in the note.
    """
    n = shares[0]["ops_per_cycle"]
    walls = [w for share in shares for w in share["walls"]]
    units = [u for share in shares for u in share["units"]]
    metrics = timings([hostspeed.scaled(s, u) for s, u in setups],
                      [hostspeed.scaled(w, u) for w, u in zip(walls, units)], tail_p)
    metrics["peak_rss_mb"] = max(share["peak_rss_mb"] for share in shares)
    unscaled = timings([s for s, _ in setups], walls, tail_p)
    beyond = sum(1 for w, u in zip(walls, units)
                 if hostspeed.scaled(w, u) * 1e3 > metrics["op_wall_tail_ms"])
    note = (f"# setup_s is the median of {len(setups)} set-ups: "
            + ", ".join(f"{hostspeed.scaled(s, u):.4f}" for s, u in setups)
            + f"\n# ops_per_s is over {len(walls) // n} whole cycles of {n} ops"
            + f"\n# op_wall_tail_ms is p{tail_p} of {len(walls)} samples, {beyond} beyond it"
            + f"\n# times are at the reference speed; the calibration unit took "
            + f"{statistics.median(units) * 1e3:.4f} ms (median), "
            + f"{hostspeed.REFERENCE_S * 1e3:g} ms at the reference speed"
            + "\n# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    config = benchmark()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "qprospect", "__init__.py"),
                   os.path.join("tests", "data"), os.path.join("tests", "golden")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} is missing; run from a qprospect checkout",
                  file=sys.stderr)
            return 2

    deadline = time.monotonic() + DEADLINE_S
    workers = 1 if args.trace else SETUPS
    setups, results = [], []
    position, spent = 0, 0.0
    try:
        for part in range(workers):
            share = max(0.0, args.seconds * (part + 1) / workers - spent)
            extra = ["--start", str(position), "--seconds", repr(share),
                     "--finish", str(int(part == workers - 1))]
            setup_s, ready, result = run_worker(args, extra, deadline)
            setups.append((setup_s, ready["unit"]))
            results += [ready, result]
            if not args.trace:
                position = result["data"]["end"]
                spent += sum(result["data"]["walls"])
    except (WorkerError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'}; machine {json.dumps(results[-1]['machine'])}")
    if args.trace:
        metrics = results[-1]["data"]
        print(f"# {metrics['spans']} spans written to {metrics['spans_file']}")
    else:
        metrics, note = end_to_end(setups, [r["data"] for r in results[1::2]],
                                   TAIL_PERCENTILE[args.workload])
        print(note)
    units = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}
    print(f"# failed_ops_ratio {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} ops)")
    for name in units:
        print(f"{name:<44} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
