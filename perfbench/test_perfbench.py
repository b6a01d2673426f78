"""Tests of the benchmark harness itself.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import sys

import pytest

from checkout import SRC

sys.path.insert(0, SRC)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("linalg.eigvalsh_calls", "linalg.eigh_calls", "events.validations",
          "composite.validations", "measure.projector_builds")


def traced(ops) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        failures = []
        worker.run_pass(ops, [], failures, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    return tracing.layer_metrics(tracer.spans, [op.tags for op in ops])


def bindings():
    return [(owner, attr, original) for owner, attr, original, _ in tracing.wrap_targets()]


@pytest.mark.parametrize("name", ["sequential_tables", "composite_scale", "pipeline_dynamics"])
def test_traced_counts_repeat_exactly(name):
    ops = workloads.build(name, seed=5)
    if name == "sequential_tables":
        ops = [op for op in ops if op.tags["d"] == 16]
    first, second = traced(ops), traced(ops)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert sum(first[k] for k in COUNTS) > 0


@pytest.mark.parametrize("table", ["wigner_table", "kirkwood_table"])
def test_each_table_builds_two_projectors_per_entry(table):
    d = 16
    ops = [op for op in workloads.build("sequential_tables", seed=0)
           if op.name == f"{table}.d{d}"]
    metrics = traced(ops)
    assert metrics["measure.projector_builds"] == 2 * d * d
    assert metrics[f"measure.{table}_ms.d{d}"] > 0


def test_tracer_covers_reexports_and_restores_every_binding():
    from qprospect import events, measure

    before = bindings()
    names = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in before}
    assert ("qprospect.measure", "projector_of") in names
    assert ("qprospect.events", "projector_of") in names
    assert ("numpy.linalg", "eigvalsh") in names
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert measure.projector_of is not events.projector_of
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_timed_run_leaves_the_original_callables(capsys):
    before = bindings()
    assert worker.main(["--workload", "pipeline_dynamics", "--seed", "3",
                        "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert '"failures": []' in lines[-1]
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_csv_check_allows_only_rounding_in_numeric_cells():
    expected = "label,value,provenance\np[0],0.5,born\nevent,Z=1,apply\n"
    workloads.compare_csv(expected.replace("0.5", "0.5000000000001"), expected)
    with pytest.raises(workloads.CheckFailed):
        workloads.compare_csv(expected.replace("0.5", "0.50000000001"), expected)
    with pytest.raises(workloads.CheckFailed):
        workloads.compare_csv(expected.replace("Z=1", "Z=0"), expected)


def test_workers_split_one_stream_of_whole_cycles():
    ran = []
    ops = [workloads.Op(str(k), lambda k=k: ran.append(str(k)), lambda result: None)
           for k in range(5)]
    stream = [op.name for cycle in range(2) for op in worker.cycle_order(ops, 9, cycle)]
    assert sorted(stream[:5]) == sorted(stream[5:]) == [op.name for op in ops]
    assert worker.timed_share(ops, 9, 0, 0.0, 0, True)[2]["end"] == 0
    assert worker.timed_share(ops, 9, 0, 1e-9, 0, True)[2]["end"] == 1
    last = worker.timed_share(ops, 9, 1, 0.0, 1, True)[2]
    assert last["end"] == 5 and len(last["walls"]) == 4
    assert ran == stream[:5]
    assert worker.timed_share(ops, 9, 5, 0.0, 1, True)[2]["end"] == 5


def test_end_to_end_counts_every_op_and_uses_the_fixed_tail_percentile():
    ref = hostspeed.REFERENCE_S
    shares = [{"walls": [0.1] * 7, "units": [ref] * 7, "ops_per_cycle": 4, "peak_rss_mb": 10.0},
              {"walls": [0.2] * 5, "units": [ref] * 5, "ops_per_cycle": 4, "peak_rss_mb": 12.0}]
    metrics, note = run.end_to_end([(1.0, ref), (3.0, ref), (2.0, ref)], shares, 90)
    assert metrics["setup_s"] == 2.0
    # 12 ops in 0.7 + 1.0 s
    assert metrics["ops_per_s"] == pytest.approx(12 / 1.7)
    assert metrics["peak_rss_mb"] == 12.0
    assert "p90 of 12 samples" in note
    assert set(run.TAIL_PERCENTILE) == set(workloads.NAMES)


def test_times_are_scaled_to_the_reference_speed():
    ref = hostspeed.REFERENCE_S
    # the host ran the calibration unit twice as slowly as the reference
    share = {"walls": [0.2, 0.4, 0.6], "units": [2 * ref] * 3, "ops_per_cycle": 3,
             "peak_rss_mb": 10.0}
    metrics, note = run.end_to_end([(4.0, 2 * ref)], [share], 50)
    assert metrics["setup_s"] == pytest.approx(2.0)
    assert metrics["op_wall_p50_ms"] == pytest.approx(200.0)
    assert metrics["ops_per_s"] == pytest.approx(5.0)
    assert "unscaled: setup_s 4, ops_per_s 2.5, op_wall_p50_ms 400," in note
    assert hostspeed.calibrate(3) > 0


def test_import_times_count_nested_packages_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.linalg",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         numpy.f2py",
        "import time:       100 |        150 |       scipy",
        "import time:       400 |        550 |     scipy.integrate",
        "import time:        10 |        860 |   qprospect.game",
        "import time:        20 |        880 | qprospect",
    ])
    assert tracing.import_times(stderr) == {
        "import.qprospect_ms": 0.88, "import.scipy_ms": 0.55, "import.numpy_ms": 0.3}
