"""Tests of the benchmark itself: schema, smoke runs, checks and tracing.

Run with: python3 -m pytest perfbench -q
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

import bootstrap  # noqa: E402

bootstrap.prepare()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture(autouse=True)
def _records_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(bootstrap, "OUT", tmp_path)


def _cli(*args, cwd=bootstrap.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert list(END_TO_END.items()) == list(run.END_TO_END)
    assert list(PER_LAYER.items()) == [(n, u) for n, u, _, _ in tracing.PER_LAYER]
    better = {n: b for n, _, b, _ in tracing.PER_LAYER}
    assert all(m["better"] == better[m["name"]] for m in SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_tiny_smoke_run_schema(name, trace):
    proc = _cli("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= workloads.PRELOAD_OPS
    expected = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_digest_repeats_for_a_seed_and_changes_with_it():
    first = run.run_workload("outcome_chain", 5, 0.2, False, "tiny")["record"]
    again = run.run_workload("outcome_chain", 5, 0.2, False, "tiny")["record"]
    other = run.run_workload("outcome_chain", 6, 0.2, False, "tiny")["record"]
    assert first["digest"] == again["digest"] != other["digest"]
    for key in ("nproc", "python", "numpy", "blas_threads", "git_commit", "seed"):
        assert key in first
    assert set(first["blas_threads"].values()) == {"1"}


@pytest.mark.parametrize("name, target", [
    ("sparsify_norm", "reference_sqnorm"),
    ("fastnorm_ch", "reference_sqnorm"),
    ("outcome_chain", "dense_chain"),
])
def test_planted_wrong_reference_fails(name, target, monkeypatch):
    good = getattr(workloads, target)
    if target == "reference_sqnorm":
        # fastnorm_ch only checks the pooled mean, whose standard error
        # scales with it, so plant a reference that shrinks the mean
        factor = 1e3 if name == "fastnorm_ch" else 1 + 1e-6
        monkeypatch.setattr(workloads, target, lambda d: good(d) * factor)
    else:
        monkeypatch.setattr(
            workloads, target, lambda *a: (good(*a)[0] + 1e-6, good(*a)[1])
        )
    out = run.run_workload(name, 1, 0.3, False, "tiny")
    if name == "fastnorm_ch":
        assert out["record"]["run_check"] is not None
    else:
        assert out["record"]["failed_frac"] > 0
    assert out["result"]["correct"] is False


def test_ops_that_raise_are_counted_as_failed(monkeypatch):
    def boom(decomp):
        raise RuntimeError("planted")

    monkeypatch.setattr(workloads.estimator, "exact_sqnorm", boom)
    out = run.run_workload("sparsify_norm", 1, 0.1, False, "tiny")
    assert out["record"]["failed"] == out["record"]["attempted"] >= workloads.PRELOAD_OPS
    assert out["record"]["failures"][0].endswith("RuntimeError: planted")
    assert out["result"]["correct"] is False


def _layer_functions():
    snap = {}
    for module in tracing.LAYERS.values():
        snap.update({(module.__name__, k): v for k, v in vars(module).items() if callable(v)})
    snap["amplitude"] = vars(tracing.sb.StabilizerState)["amplitude"]
    return snap


def test_traced_run_restores_every_original():
    before = _layer_functions()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracing.estimator.apply_clifford is not before[("stabsparse.estimator", "apply_clifford")]
        assert vars(tracing.sb.StabilizerState)["amplitude"] is not before["amplitude"]
    out = run.run_workload("fastnorm_ch", 2, 0.3, True, "tiny")
    assert out["result"]["correct"] is True
    after = _layer_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_errors_are_counted_once_per_layer():
    tracer = tracing.Tracer()
    with tracer.installed():
        with pytest.raises(ValueError):
            tracing.magic.sample_iid(tracing.magic.magic_model(0.5, 4), 0, None)
    assert tracer.errors == {"magic": 1}


def test_tail_is_a_fixed_percentile():
    assert run.tail(list(range(1, 31))) == (pytest.approx(24.2), 6)
    assert run.tail([3, 1, 2]) == (pytest.approx(2.6), 1)
    assert run.tail([5]) == (5, 0)


def test_op_times_are_scaled_to_the_reference_speed():
    results = [
        run.OpResult(0, 7, None, "warm-up", 1.0),
        run.OpResult(1, 100, None, "at half speed", run.REF_NS * 2),
        run.OpResult(2, None, "raised", None, run.REF_NS),
    ]
    assert run.scaled_ns(results) == [50]
    assert run.timed_ns(results) == [100]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [[0, 0, 100, -1, 0], [1, 10, 40, 0, 0], [1, 50, 60, 0, 0], [2, 12, 20, 1, 0]]
    assert tracer.self_ns() == [60, 22, 10, 8]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("--workload", "outcome_chain", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
