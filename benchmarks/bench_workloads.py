"""Workload benches: the UTS tree under both protocols, simulated end to
end and checked against its known node count.
"""

from repro.core.config import QueueConfig
from repro.runtime.pool import run_pool
from repro.runtime.registry import TaskRegistry
from repro.workloads.uts import TEST_SMALL, UtsWorkload


def test_bench_uts_small_pool():
    def run():
        reg = TaskRegistry()
        wl = UtsWorkload(reg, TEST_SMALL)
        return run_pool(
            8, reg, [wl.seed_task()],
            impl="sws", queue_config=QueueConfig(qsize=4096, task_size=48),
        ).total_tasks

    assert run() == 3542


def test_bench_sdc_vs_sws_wall_cost():
    """The same tree under the baseline protocol."""

    def run():
        reg = TaskRegistry()
        wl = UtsWorkload(reg, TEST_SMALL)
        return run_pool(
            8, reg, [wl.seed_task()],
            impl="sdc", queue_config=QueueConfig(qsize=4096, task_size=48),
        ).total_tasks

    assert run() == 3542
