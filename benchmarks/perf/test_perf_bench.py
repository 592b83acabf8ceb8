"""Smoke test of the repo benchmark: BENCHMARK.json matches what the
harness emits, and smoke runs are deterministic and pass their checks."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import layers
import measure
import run

#: Per-layer metrics read off the simulation, not the host: identical on
#: every run of the same seed.
DETERMINISTIC = {name for name, unit in run.PER_LAYER.items()
                 if unit in ("count", "B", "sim_s", "events/op")} | {
    "cache.hit_ratio", "client.failed_share"}


def _declared() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_declares_what_the_harness_emits():
    bench = _declared()
    assert sorted(w["name"] for w in bench["workloads"]) == \
        run.workload_names()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.PER_LAYER
    assert bench["run_seconds"] == run.DEFAULT_SECONDS
    assert bench["command"] == ["python3", "benchmarks/perf/run.py"]


def test_every_repro_package_has_a_layer():
    assert layers.missing_layers(run.SRC) == []


def test_smoke_runs_are_deterministic():
    def smoke():
        return [measure.measure(name, 2002, 0.0, trace=True, smoke=True)
                for name in run.workload_names()]

    for a, b in zip(smoke(), smoke()):
        assert a["unit_errors"] == 0 and not a["problems"], a["problems"]
        assert a["fingerprint"] == b["fingerprint"], a["workload"]
        assert {k: a["per_layer"][k] for k in DETERMINISTIC} == \
            {k: b["per_layer"][k] for k in DETERMINISTIC}, a["workload"]
        assert set(a["per_layer"]) | {"import_s"} == set(run.PER_LAYER)


def test_cli_smoke_emits_every_declared_metric(tmp_path):
    out = tmp_path / "perf.jsonl"
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke",
         "--workload", "matrix_smoke", "--trace", "1", "--out", str(out)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        run.PER_LAYER
    record = json.loads(out.read_text())
    assert set(record["end_to_end"]) == set(run.END_TO_END)
    assert all(v > 0 for v in record["end_to_end"].values())
