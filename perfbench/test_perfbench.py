"""Tests of the benchmark itself: statistics, span accounting, output
checks and a smoke run on tiny points.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Span, Tracer, instrument, self_times  # noqa: E402

CLI_MAIN = run.load_cli()


# -- tail percentile ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [
        (6, 100.0, 0),  # too few for any ladder step: the maximum stands in
        (19, 100.0, 0),  # p50 would leave only 9 beyond
        (20, 50.0, 10),
        (99, 50.0, 49),  # p90 would leave 9 beyond
        (100, 90.0, 10),
        (999, 90.0, 99),  # p99 would leave 9 beyond
        (1000, 99.0, 10),
        (9999, 99.0, 99),
        (10000, 99.9, 10),
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, percentile, beyond):
    samples = [float(i) for i in range(n, 0, -1)]
    p, value, got_beyond = run.tail_percentile(samples)
    assert (p, got_beyond) == (percentile, beyond)
    assert sum(x > value for x in samples) == beyond


# -- speed gauge ----------------------------------------------------------------


def gauge_with(readings):
    gauge = run.SpeedGauge(Path("unused"))
    gauge.readings = readings
    return gauge


def test_scale_is_reference_over_harmonic_mean_inside_the_interval():
    ref = run.GAUGE_REF_S
    # Half the time at twice the reference speed, half at the reference:
    # the mean speed is 1.5 times the reference, whatever the median says.
    inside = [(1.0 + i / 10, ref / 2 if i % 2 else ref) for i in range(10)]
    gauge = gauge_with([(0.0, 9 * ref), *inside, (9.0, 9 * ref)])
    assert gauge.scale(1.0, 0.95) == pytest.approx(1.5)


def test_scale_of_a_short_interval_uses_the_nearest_readings():
    ref = run.GAUGE_REF_S
    far = [(float(t), 4 * ref) for t in range(10)]
    near = [(10.0 + i / 10, ref) for i in range(run.GAUGE_MIN_READINGS)]
    gauge = gauge_with(far + near + [(20.0 + t, 4 * ref) for t in range(10)])
    assert gauge.scale(10.2, 0.001) == pytest.approx(1.0)
    assert gauge_with(near[:2]).scale(0.0, 0.001) == pytest.approx(1.0)


def test_gauge_process_reads_and_is_stopped(tmp_path):
    with run.SpeedGauge(tmp_path / "gauge.txt") as gauge:
        assert gauge.readings
        proc = gauge._proc
    assert proc.returncode is not None
    assert all(v > 0 for _, v in gauge.readings)


# -- spans --------------------------------------------------------------------


def test_self_time_with_nested_and_sibling_spans():
    spans = [
        Span("cli", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, None), Span("x", 1.0, 4.0, 0), Span("y", 3.0, 5.0, 0)]
    assert self_times(spans)[0] == 6.0


def test_tracer_links_parents_and_keeps_results():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, keep=True)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    spans, kept = tracer.take()
    assert [(s.name, s.parent) for s in spans] == [("outer", None), ("inner", 0)]
    assert kept == [("inner", (1,), 2)]
    assert tracer.take() == ([], [])


def test_instrument_restores_every_original():
    from jetlift import cli, lift_space, oracle, verifier, weil_algebra

    owners = (cli, lift_space, oracle, verifier, weil_algebra.AlgebraParams,
              lift_space.CoefficientAssignment, lift_space.LiftTable)
    before = [dict(vars(o)) for o in owners]
    with instrument(Tracer()):
        assert oracle.build_constraints is cli.build_constraints
        assert oracle.build_constraints is not before[2]["build_constraints"]
    assert [dict(vars(o)) for o in owners] == before


# -- output checks and error counting -------------------------------------------


def test_wrong_output_counts_as_a_failed_command():
    def stub(argv):
        print("3 (free cells: 4)")  # dim (1,2,1) is 3 both ways
        return 0

    runner = run.Runner(stub)
    runner.run(run.dim_command("grid_s", 1, 2, 1))
    assert (runner.attempted, len(runner.errors)) == (1, 1)


def test_crashes_and_usage_errors_are_counted_not_raised():
    def crash(argv):
        raise RuntimeError("boom")

    def usage(argv):
        raise SystemExit(2)

    runner = run.Runner(crash)
    runner.run(run.dim_command("grid_s", 1, 2, 1))
    runner.cli_main = usage
    runner.run(run.zset_command("grid_s", 1, 2, 1))
    assert runner.attempted == 2
    assert "boom" in runner.errors[0] and "exit 2" in runner.errors[1]


def test_real_cli_passes_its_checks_and_a_clean_table_fails_the_reject_check(tmp_path):
    import random

    files = run.write_point_inputs(random.Random(3), tmp_path, 2, 2, 1)
    runner = run.Runner(CLI_MAIN)
    for cmd in (
        run.construct_command("construct_s", files.assignment, files.table, files.values),
        run.verify_command("verify_s", files.table),
        run.reject_command("verify_reject_s", files.corrupted),
        run.oracle_command("oracle_compare_s", 2, 2, 1, True),
    ):
        runner.run(cmd)
    assert runner.errors == []
    runner.run(run.reject_command("verify_reject_s", files.table))
    assert len(runner.errors) == 1 and "expected 1" in runner.errors[0]


# -- smoke runs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(workload, tmp_path):
    res = run.run_workload(workload, 5, 0, False, tmp_path, CLI_MAIN, smoke=True)
    assert res.errors == []
    assert set(res.metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in res.metrics.values())


def test_traced_smoke_counts_repeat_exactly(tmp_path):
    first = run.run_workload("tables", 7, 0, True, tmp_path / "a", CLI_MAIN, smoke=True)
    second = run.run_workload("tables", 7, 0, True, tmp_path / "b", CLI_MAIN, smoke=True)
    assert first.errors == second.errors == []
    assert set(first.metrics) == set(run.PER_LAYER)
    exact = [n for n, unit in run.PER_LAYER.items() if unit in ("count", "bits")]
    assert {n: first.metrics[n] for n in exact} == {n: second.metrics[n] for n in exact}
    assert first.metrics["verifier.failed"] > 0  # the corrupted tables were rejected


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_command_line_smoke_and_refusal_without_sources(tmp_path):
    argv = ["--workload", "all", "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    bare = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert bare.returncode != 0
    assert '"correct"' not in bare.stdout
