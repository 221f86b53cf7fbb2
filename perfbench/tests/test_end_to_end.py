"""The command as the driver runs it, on the cheapest fabric workload.

Slow (about 25 s): two whole measurements in child interpreters.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import harness
from perfbench.layers import LAYERS
from perfbench.spec import END_TO_END, PER_LAYER


def run(*args, cwd=harness.ROOT):
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def processes_of_the_benchmark():
    out = subprocess.run(["ps", "-eo", "pid,args"], capture_output=True, text=True)
    return [line for line in out.stdout.splitlines() if "perfbench" in line
            and "pytest" not in line and " ps " not in line]


def test_untraced_run_reports_every_end_to_end_metric():
    shm = harness.shm_snapshot()
    proc, lines = run("--workload", "serve_open", "--seed", "5",
                      "--seconds", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m.name for m in END_TO_END}
    for m in END_TO_END:
        assert doc["metrics"][m.name]["unit"] == m.unit
        assert doc["metrics"][m.name]["value"] > 0
    assert harness.shm_snapshot() == shm
    assert processes_of_the_benchmark() == []


def test_traced_run_reports_every_per_layer_metric_and_little_in_other():
    proc, lines = run("--workload", "serve_open", "--seed", "5",
                      "--seconds", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(lines[-1])
    assert doc["correct"] is True
    assert list(doc["metrics"]) == [m.name for m in PER_LAYER]
    value = {name: cell["value"] for name, cell in doc["metrics"].items()}
    traced = sum(value[f"{layer}.self_s"] for layer in LAYERS)
    assert traced > 0 and value["other.self_s"] < 0.05 * traced
    assert value["trace.overhead_ratio"] > 1.0
    assert value["protocol.comms_per_steal.sws"] == 3
    assert value["protocol.comms_per_steal.sdc"] == 6
    assert value["serving.completed"] == value["serving.emitted"] > 0
    assert value["serving.gen_lateness_us"] == 0
    assert value["failed_frac"] == 0
    with open(os.path.join(harness.OUT_DIR, "trace-serve_open.json")) as fh:
        trace = json.load(fh)
    names = {span["name"] for span in trace["untraced"]["spans"]}
    assert {"repetition", "spawn", "import", "generate", "run.sws", "run.sdc",
            "verify", "teardown"} <= names
    assert processes_of_the_benchmark() == []


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copytree(os.path.join(harness.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    proc, lines = run("--workload", "serve_open", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert lines == []


def test_result_json_of_a_full_run_names_every_metric():
    path = os.path.join(harness.OUT_DIR, "result.json")
    if not os.path.exists(path):
        pytest.skip("no full run yet: python3 -m perfbench")
    with open(path) as fh:
        doc = json.load(fh)
    seen = set()
    for cell in doc["workloads"].values():
        assert set(cell["end_to_end"]) == {m.name for m in END_TO_END}
        seen |= set(cell["per_layer"])
        if "other.self_s" in cell["per_layer"]:
            total = sum(cell["per_layer"][f"{lay}.self_s"]["value"] for lay in LAYERS)
            assert cell["per_layer"]["other.self_s"]["value"] < 0.05 * total
    assert seen == {m.name for m in PER_LAYER}
