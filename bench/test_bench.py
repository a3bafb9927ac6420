"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs():
    """Each workload once untraced and twice traced, at one op set."""
    return {
        (name, trace, repeat): result_of(bench(ROOT, name, 7, trace))
        for name in workloads.WORKLOADS
        for trace, repeat in ((0, 0), (1, 0), (1, 1))
    }


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_op_lists_pass_their_checks(name, tmp_path):
    ops = workloads.build(name, 3, 1, tmp_path)[:12]
    workloads.warm_up(name)
    probe, _ = workloads.probe_for(name)
    latencies, probes, probe_before, failures = workloads.run_ops(ops, probe)
    assert len(latencies) == len(probe_before) == 12
    assert probe_before[0] == 0 and probe_before[-1] == len(probes) - 2
    assert failures == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(runs, name):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = runs[(name, trace, 0)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
        printed = result["metrics"]
        assert set(printed) == {m["name"] for m in declared}
        for metric in declared:
            assert printed[metric["name"]]["unit"] == metric["unit"]
            assert isinstance(printed[metric["name"]]["value"], (int, float))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counters_repeat_for_a_seed(runs, name):
    first, second = runs[(name, 1, 0)]["metrics"], runs[(name, 1, 1)]["metrics"]
    counts = [n for n, m in first.items() if m["unit"] in ("count", "ratio")]
    counts.remove("trace.overhead_ratio")
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_layers_show_work_only_where_predicted(runs):
    def value(name, metric):
        return runs[(name, 1, 0)]["metrics"][metric]["value"]

    unused_by_classify = (
        "forms.FormSum.mul.calls", "linalg.RowReducer.add.calls", "numerics.solve.calls"
    )
    for metric in unused_by_classify:
        assert value("classify", metric) == 0
    for metric in ("strata.sigma_membership.calls", "numerics.solve.calls"):
        assert value("forms", metric) == 0
    assert value("classify", "strata.sigma_membership.calls") > 0
    assert value("forms", "forms.FormSum.mul.calls") > 0
    assert value("lie", "lie.kontsevich_bracket.calls") > 0
    assert value("moment", "numerics.solve.calls") > 0


def _calogero_1_2_first(ops):
    """Put a classify op whose alpha is a root on the hyperplane first, so
    p(alpha) is reported and checked against the Euler matrix."""
    chosen = next(
        op for op in ops if Path(op.quiver_file).name.startswith("calogero-") and op.alpha == (1, 2)
    )
    return [chosen] + [op for op in ops if op is not chosen][:5]


def _bump_first_entry(matrix):
    return [[x + (i == j == 0) for j, x in enumerate(row)] for i, row in enumerate(matrix)]


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("classify", lambda op: setattr(op, "euler", _bump_first_entry(op.euler))),
        ("forms", lambda op: op.expected.__setitem__((0, 0), op.expected[(0, 0)] + 1)),
        ("moment", lambda op: setattr(op, "expected_rank", op.expected_rank + 1)),
        # the CLI's argument parser rejects this with SystemExit
        ("forms", lambda op: setattr(op, "command", "no-such-command")),
    ],
)
def test_a_wrong_expected_value_or_argument_fails_the_op(name, corrupt, tmp_path):
    ops = workloads.build(name, 5, 1, tmp_path)
    ops = _calogero_1_2_first(ops) if name == "classify" else ops[:6]
    corrupt(ops[0])
    workloads.warm_up(name)
    latencies, _, _, failures = workloads.run_ops(ops, workloads.probe_for(name)[0])
    assert len(latencies) == len(ops)
    assert len(failures) == 1 and failures[0].startswith("op 0 ")


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "lie", 1, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
