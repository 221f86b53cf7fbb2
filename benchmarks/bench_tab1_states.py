"""Table 1: shared-task state machine — lifecycle."""

from repro.analysis.experiments import run_experiment
from repro.core.task_state import TaskState, TaskStateTracker

from .conftest import emit


def test_tab1_lifecycle():
    result = run_experiment("tab1")
    emit(result)
    assert result.rows[0][1] == "AAA"
    assert result.rows[-1][1] == "III"


def test_bench_state_transitions():
    """The A->C->F->I lifecycle over many blocks."""

    def lifecycle():
        t = TaskStateTracker(64)
        for i in range(64):
            t.claim(i)
        for i in range(64):
            t.finish(i)
        for i in range(64):
            t.invalidate(i)
        return t.count(TaskState.INVALID)

    assert lifecycle() == 64


def test_bench_finished_prefix_scan():
    t = TaskStateTracker(256)
    for i in range(255):
        t.claim(i)
        t.finish(i)
    assert t.finished_prefix() == 255
