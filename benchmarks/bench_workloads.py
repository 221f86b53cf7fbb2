"""Workload benches: NQueens, Fibonacci, UTS shapes — each classic
workload simulated end to end and checked against its known answer.
"""

from repro.core.config import QueueConfig
from repro.runtime.pool import run_pool
from repro.runtime.registry import TaskRegistry
from repro.runtime.task import Task
from repro.workloads.fib import FibParams, FibWorkload, task_count
from repro.workloads.nqueens import SOLUTIONS, NQueensParams, NQueensWorkload
from repro.workloads.uts import TEST_SMALL, UtsWorkload


def test_bench_nqueens8():
    def run():
        reg = TaskRegistry()
        wl = NQueensWorkload(reg, NQueensParams(n=8))
        stats = run_pool(
            8, reg, [wl.seed_task()],
            impl="sws", queue_config=QueueConfig(qsize=4096, task_size=24),
        )
        return wl.solutions, stats.total_tasks

    solutions, _ = run()
    assert solutions == SOLUTIONS[8]


def test_bench_fib16():
    def run():
        reg = TaskRegistry()
        wl = FibWorkload(reg, FibParams(n=16))
        return run_pool(8, reg, [wl.seed_task()], impl="sws").total_tasks

    assert run() == task_count(16)


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
