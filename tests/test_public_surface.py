"""The public surface is what it was before package ``__init__``s stopped
importing: every name each package exported still resolves from it, lazily
(``repro/_exports.py``), and is the very object its defining module holds.
"""

from __future__ import annotations

import importlib
import pickle
import re
import subprocess
import sys

import pytest

#: ``__all__`` of every package at the commit before the export tables
#: (``git show de922d5:src/repro/.../__init__.py``), as literals.
PUBLIC = {
    "repro": """
        TaskPool run_pool TaskRegistry Task TaskOutcome RunStats
        WorkerStats WorkerConfig QueueConfig SwsQueue SwsQueueSystem
        SdcQueue SdcQueueSystem StealResult StealStatus StealValV1
        StealValEpoch DampingTracker LatencyModel EDR_INFINIBAND
        SLOW_ETHERNET ZERO_LATENCY FaultPlan PEFailure
        FabricTimeoutError Scheduler ScheduleTrace make_scheduler
        PoolOracle OracleViolation ShmemCtx Pe __version__
    """,
    "repro.core": """
        QueueConfig DampingTracker DampingStats TargetMode StealResult
        StealStatus SdcQueue SdcQueueSystem SplitQueue
        SplitQueueSystem SwsQueue SwsQueueSystem SwsV1Queue
        SwsV1QueueSystem EpochRecord StealValV1 StealValEpoch
        StealViewV1 StealViewEpoch max_initial_tasks steal_volume
        steal_displacement max_steals schedule share_half TaskState
        TaskStateTracker IllegalTransition ALLOWED_TRANSITIONS
    """,
    "repro.fabric": """
        Call Delay Engine Process FabricError AddressError
        AlignmentError DeadlockError FabricTimeoutError FaultPlan
        FaultInjector PEFailure NO_FAULTS PEIndexError ProtocolError
        OracleViolation RegionError SimulationError LatencyModel
        EDR_INFINIBAND SLOW_ETHERNET ZERO_LATENCY PRESETS get_preset
        RegionSpec SymmetricHeap FabricMetrics OpRecord OP_KINDS
        BLOCKING_KINDS Nic WORD_BYTES Scheduler FixedScheduler
        RandomScheduler PctScheduler DfsScheduler ReplayScheduler
        ScheduleDivergence ScheduleTrace dfs_successor make_scheduler
        POLICIES Topology
    """,
    "repro.runtime": """
        TaskPool run_pool IMPLEMENTATIONS PoolOracle TaskRegistry
        TaskContext TaskOutcome TaskFn Task HEADER_BYTES RunStats
        WorkerStats TerminationSystem TerminationDetector
        TreeTerminationSystem TreeTerminationDetector UniformVictim
        RoundRobinVictim LocalityVictim HierarchicalVictim
        VictimSelector make_selector Inbox InboxSystem LifelineConfig
        LifelineManager LifelineSystem hypercube_neighbors Worker
        WorkerConfig
    """,
    "repro.shmem": """
        Pe ShmemCtx HeapBackend SymWord SymArray SymBytes
        SymmetricAllocator Collectives CollectiveSystem REDUCERS
    """,
    "repro.analysis": """
        EXPERIMENTS ExperimentResult run_experiment AsciiChart
        chart_cells profile_run render_profiles imbalance_report Table
        RowDiff diff_payloads render_diff ascii_table sparkline
        write_csv CellSummary by_impl relative_improvement
        speedup_factor summarize_cells SweepConfig SweepPoint
        run_point run_sweep
    """,
    "repro.threads": """
        SwsShimCore SdcShimCore
        FfMultShimCore ShimStealResult sws_steal_once sdc_steal_once
        ffmult_steal_once hammer
    """,
    "repro.mp": """
        ShmWords WordRef WordSlice MpHeap SwsQueueLayout
        SdcQueueLayout FfMultQueueLayout MpSwsQueue MpSwsThief
        MpSdcQueue MpSdcThief MpFfMultQueue MpFfMultThief hammer_mp
        run_mp MpRunResult MpPeStats synthetic_expected uts_expected
    """,
    "repro.workloads": """
        BpcParams BpcWorkload BPC_PAPER_PARAMS BPC_PAPER_TASK_SIZE
        paper_scale StealProbeResult measure_single_steal
        steal_volume_sweep FibParams FibWorkload fib task_count
        NQueensParams NQueensWorkload SOLUTIONS
    """,
    "repro.workloads.uts": """
        UtsParams UtsWorkload UtsWorkloadParams TreeType GeoShape
        branching_factor num_children expand enumerate_tree TreeStats
        root_state spawn rand31 to_prob STATE_BYTES PAPER_TASK_SIZE
        PAPER_NODE_TIME NAMED_TREES get_tree T1WL TEST_TINY TEST_SMALL
        BENCH_GEO SWEEP_GEO BENCH_BIN
    """,
}
PUBLIC = {package: names.split() for package, names in PUBLIC.items()}
#: Every re-export (``__version__`` is ``repro``'s own, a literal).
EVERY_NAME = [(package, name) for package, names in PUBLIC.items()
              for name in names if name != "__version__"]


@pytest.mark.parametrize("package", PUBLIC)
def test_all_and_dir_list_the_old_names(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == sorted(PUBLIC[package])
    assert set(PUBLIC[package]) <= set(dir(module))


@pytest.mark.parametrize("package,name", EVERY_NAME)
def test_name_is_its_defining_modules_object(package, name):
    obj = getattr(importlib.import_module(package), name)
    home = getattr(obj, "__module__", None) or ""
    if home.startswith("repro.") and hasattr(obj, "__qualname__"):
        assert getattr(sys.modules[home], obj.__qualname__) is obj
    else:
        # A constant carries no address: some module below ``repro`` that
        # resolving it loaded must hold the identical object.
        holders = [m for key, m in list(sys.modules.items())
                   if key.startswith("repro.") and key not in PUBLIC
                   and any(v is obj for v in vars(m).values())]
        assert holders, f"{package}.{name} is defined nowhere"


def test_star_import_binds_exactly_all():
    import repro

    namespace: dict = {}
    exec("from repro import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(repro.__all__)


@pytest.mark.parametrize("package", PUBLIC)
def test_unknown_attribute_is_an_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"'{re.escape(package)}'"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_a_submodule_never_shadows_the_export_of_its_name():
    """``repro.workloads.fib`` is the function, whichever of the function
    and the module ``repro.workloads.fib`` is asked for first."""
    order = ("import repro.workloads.fib as m, repro.workloads as w",
             "import repro.workloads as w; w.fib; import repro.workloads.fib")
    for first in order:
        code = (f"{first}\nimport sys\n"
                "assert w.fib(10) == 55\n"
                "assert w.fib is sys.modules['repro.workloads.fib'].fib\n"
                "from repro.workloads import fib\nassert fib is w.fib")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_lazily_resolved_classes_pickle():
    import repro

    config = repro.QueueConfig(qsize=64, task_size=16)
    task = repro.Task(3, b"payload")
    stats = repro.RunStats(npes=2, runtime=1.5e-3, workers=[repro.WorkerStats()])
    for value in (config, task, stats):
        assert pickle.loads(pickle.dumps(value)) == value


def test_eight_threads_resolve_one_object_per_name():
    """First access from many threads at once, in a fresh interpreter
    (here every name is long since cached)."""
    code = f"""
# ``dataclasses`` reads ``sys.modules["typing"]`` without the import lock
# (CPython), so a thread decorating a dataclass can meet another thread's
# half-imported ``typing``; any real program has both loaded by now.
import dataclasses, importlib, threading, typing
names = {EVERY_NAME!r}
barrier = threading.Barrier(8)
seen = [dict() for _ in range(8)]
def resolve(slot):
    barrier.wait()
    for package, name in names[slot:] + names[:slot]:
        seen[slot][package, name] = getattr(importlib.import_module(package), name)
threads = [threading.Thread(target=resolve, args=(i,)) for i in range(8)]
for t in threads: t.start()
for t in threads: t.join(60)
assert not any(t.is_alive() for t in threads)
for key in names:
    assert len({{id(s[tuple(key)]) for s in seen}}) == 1, key
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
