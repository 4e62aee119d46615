"""Tests of the benchmark itself: its checks must catch wrong answers.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial

import pytest

import layers
import run
import worker
from workloads import (
    WORKLOADS,
    Context,
    CheckFailed,
    Op,
    Workload,
    census_workload,
    check_ideal,
    check_straighten,
    ideal_workload,
    straighten_workload,
    weyl_dimension,
)

cli = worker.import_program()
import sympbw.relations  # noqa: E402  (after import_program puts src/ on the path)
from sympbw.liealg import weyl_dimension as program_weyl_dimension  # noqa: E402


def verify_op(n, seeds, cap_s=60.0):
    argv = ("verify", "--suite", "classical-ideal", "--n", str(n), "--seeds", str(seeds),
            "--report", "json")
    op = Op(argv, partial(check_ideal, points=seeds))
    return op, Workload("test", (op,), cap_s)


def runner_for(workload, ctx=None):
    return worker.Runner(cli, workload, ctx or Context(), caches=[])


def test_ideal_suite_passes_its_check():
    op, workload = verify_op(2, 2)
    runner = runner_for(workload)
    runner.run(op)
    assert runner.failures == {} and runner.attempted == 1
    assert len(runner.latencies()) == 1


def test_perturbed_relation_counts_as_failed(monkeypatch):
    real = sympbw.relations.generate_ideal

    def perturbed(n, kind):
        rels = real(n, kind)
        first = rels[0]
        (key, coeff), *rest = first.poly
        bad = replace(first, poly=((key, coeff + 1), *rest))
        return [bad] + rels[1:]

    monkeypatch.setattr(sympbw.relations, "generate_ideal", perturbed)
    op, workload = verify_op(2, 2)
    runner = runner_for(workload)
    runner.run(op)
    assert runner.failures == {"wrong": 1} and runner.wrong == 1
    assert runner.latencies() == {}


def test_vacuous_zero_point_verify_counts_as_failed():
    op, workload = verify_op(2, 0)
    runner = runner_for(workload)
    runner.run(op)
    assert runner.failures == {"wrong": 1}


def call(argv):
    """Run the CLI once, outside the benchmark's timing, and capture what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return worker.Output(out.getvalue(), err.getvalue(), code)


def test_wrong_straighten_coefficient_is_caught():
    workload = straighten_workload(seed=3)
    ctx = Context(points=worker.sample_points(workload))
    # the first corpus entry that straightens to more than one term
    for op in workload.ops:
        try:
            output = call(op.argv)
        except AssertionError:  # the known straightening defect
            continue
        result = json.loads(output.out)
        if len(result["result"]) > 1:
            break
    op.check(output, ctx)
    result["result"][0]["coefficient"] += 1
    with pytest.raises(CheckFailed):
        op.check(replace(output, out=json.dumps(result)), ctx)


def test_straighten_defect_counts_as_failed_not_wrong():
    # straighten(4, [(1,2,7,8)]) is a known AssertionError in both rings
    columns = ((1, 2, 7, 8),)
    op = Op(("straighten", "--n", "4", "--ring", "classical", "--columns", "1,2,7,8",
                       "--format", "json"),
            partial(check_straighten, n=4, ring="classical", columns=columns))
    runner = runner_for(Workload("test", (op,), 10.0))
    runner.run(op)
    assert runner.failures == {"AssertionError": 1} and runner.wrong == 0


def test_operation_over_the_cap_counts_as_failed_and_the_run_goes_on():
    slow = Op(("tableaux", "--n", "6", "--lambda", "1,0,0,0,0,1", "--format", "json"),
              lambda output, ctx: None)
    fast, _ = verify_op(2, 1)
    runner = runner_for(Workload("test", (slow, fast), cap_s=0.05))
    rounds = runner.run_rounds(0)
    assert runner.failures == {"timeout": 1}
    assert list(runner.latencies()) == [fast] and rounds[0] < 1.0


def test_weyl_dimension_matches_the_program():
    for n, m in [(2, (1, 1)), (3, (2, 1, 1)), (4, (1, 1, 0, 1)), (6, (1, 0, 0, 0, 0, 1))]:
        assert weyl_dimension(n, m) == program_weyl_dimension(n, m)


def test_workloads_are_seeded():
    def argvs(build, seed):
        return [op.argv for op in build(seed).ops]

    assert argvs(ideal_workload, 5) == argvs(ideal_workload, 5) != argvs(ideal_workload, 6)
    assert argvs(census_workload, 5) == argvs(census_workload, 6)
    assert argvs(straighten_workload, 5) == argvs(straighten_workload, 6)
    assert len(straighten_workload(0).ops) == 1792


def test_tracer_counts_layers_and_restores_the_program():
    original = sympbw.relations.generate_ideal
    op, workload = verify_op(2, 2)
    runner = runner_for(workload)
    runner.tracer = layers.make_tracer()
    runner.tracer.install()
    try:
        rounds = runner.run_rounds(0, traced=True)
    finally:
        runner.tracer.uninstall()
    assert sympbw.relations.generate_ideal is original
    assert runner.failures == {}
    metrics = layers.per_layer_metrics(runner, rounds, rounds)
    assert list(metrics) == layers.metric_names()
    assert metrics["verify.points"] == 2
    assert metrics["verify.evaluations"] == 2 * metrics["relations.kept"] > 0
    assert metrics["relations.raw"] == (metrics["relations.pluecker_relation.calls"]
                                        + metrics["relations.symplectic_relation.calls"])
    assert metrics["cli.self_s"] > 0 and metrics["relations.generate_ideal.s"] > 0
    spans = runner.tracer.kept_spans()
    names = runner.tracer.names
    assert [names[fid] for fid, _, parent, _, _ in spans if parent == -1] == ["cli.main"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == layers.metric_names()
    assert {m["unit"] for m in spec["per_layer"]} <= {"s", "count", "ratio"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
