"""The path -> layer map and the profile fold."""

import os

from perfbench.harness import ROOT
from perfbench.layers import LAYERS, fold_profile, layer_of_path

SRC = os.path.join(ROOT, "src", "repro")


def test_named_files_land_in_their_layer():
    def layer(rel):
        return layer_of_path(os.path.join(SRC, rel))

    assert layer("fabric/engine.py") == "engine"
    assert layer("fabric/nic.py") == layer("fabric/latency.py") == "nic"
    assert layer("fabric/memory.py") == layer("shmem/heap.py") == "heap"
    assert layer("shmem/api.py") == "shmem"
    assert layer("core/sws_queue.py") == "protocol"
    assert layer("runtime/worker.py") == layer("runtime/pool.py") == "worker"
    assert layer("runtime/termination.py") == "termination"
    assert layer("runtime/oracle.py") == "oracle"
    assert layer("runtime/stats.py") == layer("fabric/metrics.py") == "stats"
    assert layer("workloads/uts/workload.py") == "workload"


def test_moved_and_new_files_fall_back_by_package():
    assert layer_of_path(os.path.join(SRC, "fabric", "new_queue.py")) == "engine"
    assert layer_of_path(os.path.join(SRC, "core", "sansio", "steal.py")) == "protocol"
    assert layer_of_path(os.path.join(SRC, "brand_new", "x.py")) == "other"
    assert layer_of_path("/usr/lib/python3.11/random.py") is None
    assert layer_of_path("~") is None


def test_every_file_of_the_simulator_has_a_layer_today():
    for package in ("fabric", "shmem", "core", "runtime", "workloads"):
        for folder, _dirs, files in os.walk(os.path.join(SRC, package)):
            for name in files:
                if name.endswith(".py"):
                    layer = layer_of_path(os.path.join(folder, name))
                    assert layer in LAYERS and layer != "other", (folder, name)


def test_foreign_code_is_charged_to_the_layer_that_called_it():
    engine = (os.path.join(SRC, "fabric", "engine.py"), 10, "run")
    worker = (os.path.join(SRC, "runtime", "worker.py"), 20, "loop")
    stdlib = ("/usr/lib/python3.11/random.py", 5, "randrange")
    builtin = ("~", 0, "<built-in method bisect.insort>")
    stats = {
        engine: (1, 1, 1.0, 4.0, {}),
        worker: (4, 4, 2.0, 3.0, {engine: (4, 4, 2.0, 3.0)}),
        # randrange: 0.5 s self, called only from the worker.
        stdlib: (8, 8, 0.5, 0.6, {worker: (8, 8, 0.5, 0.6)}),
        # insort: 0.3 s from the engine directly, 0.1 s through randrange.
        builtin: (9, 9, 0.4, 0.4, {engine: (6, 6, 0.3, 0.3),
                                   stdlib: (3, 3, 0.1, 0.1)}),
    }
    folded = fold_profile(stats)
    assert folded["engine"]["self_s"] == 1.0 + 0.3
    assert abs(folded["worker"]["self_s"] - (2.0 + 0.5 + 0.1)) < 1e-12
    assert folded["engine"]["calls"] == 1 and folded["worker"]["calls"] == 4
    total = sum(cell["self_s"] for cell in folded.values())
    assert abs(total - 3.9) < 1e-12   # nothing lost, nothing counted twice
