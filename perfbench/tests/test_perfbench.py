"""Fast checks of the benchmark itself.

    python3 -m pytest perfbench/tests

Every workload runs at a tiny budget and reports every metric that
BENCHMARK.json names, and the traced run leaves no wrapper behind.
"""
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout_source()

import harness  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.05  # seconds: one annealing stage or one design step per window


def test_benchmark_json_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    res = harness.run(workload, seed=3, seconds=TINY, trace=bool(trace))["result"]
    assert res["correct"] is True
    assert res["failed"] == 0
    assert res["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def _wrapped_attributes():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in harness.trace_targets()]


def test_tracer_restores_every_wrapped_function():
    before = _wrapped_attributes()
    with pytest.raises(RuntimeError):
        with Tracer(harness.trace_targets()):
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
            raise RuntimeError("leave the traced block by an exception")
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def test_traced_run_leaves_untraced_code_unwrapped():
    before = _wrapped_attributes()
    harness.run("anneal-1q-hadamard", seed=5, seconds=TINY, trace=True)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    assert not any(hasattr(fn, "__wrapped__") for _, _, fn in before)


def test_self_time_excludes_wrapped_children():
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(10_000))
    ns.outer = lambda: ns.inner() + ns.inner()
    targets = [(ns, "inner", "inner", None), (ns, "outer", "outer", None)]
    with Tracer(targets) as tracer:
        ns.outer()
    outer, inner = tracer.spans["outer"], tracer.spans["inner"]
    assert inner.calls == 2 and outer.calls == 1
    assert outer.child == inner.total
    assert 0.0 <= outer.self_time < outer.total


def _command(workload, seconds):
    return [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "0", "--seconds", str(seconds), "--trace", "0",
    ]


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        _command("anneal-1q-hadamard", TINY), cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True


def test_command_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        _command("anneal-1q-hadamard", 1), cwd=tmp_path, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
