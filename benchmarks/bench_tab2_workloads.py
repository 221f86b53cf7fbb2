"""Table 2: benchmark workload characteristics.

Regenerates the workload-characteristics table (paper values alongside
the scaled reproduction workloads) and checks workload generation.
"""

from repro.analysis.experiments import run_experiment
from repro.workloads.bpc import BpcParams, BpcWorkload
from repro.workloads.uts import TEST_SMALL, enumerate_tree
from repro.runtime.registry import TaskContext, TaskRegistry

from .conftest import emit


def test_tab2_characteristics():
    result = run_experiment("tab2")
    emit(result)
    rows = {r[0]: r for r in result.rows}
    # Paper rows recorded verbatim.
    assert rows["UTS (paper, T1WL)"][1] == 270_751_679_750
    # Coarse-vs-fine task-time contrast preserved in the repro rows.
    assert rows["BPC (this repro)"][2] > 1000 * rows["UTS (this repro)"][2]


def test_bench_bpc_expansion():
    """Producer expansion (tasks generated per producer call)."""
    reg = TaskRegistry()
    wl = BpcWorkload(reg, BpcParams(n_consumers=128, depth=4))
    tc = TaskContext(0, 1)
    out = reg.execute(wl.seed_task(), tc)
    assert len(out.children) == 129


def test_bench_uts_enumeration():
    """Sequential SHA-1 tree enumeration."""
    assert enumerate_tree(TEST_SMALL).nodes == 3542
