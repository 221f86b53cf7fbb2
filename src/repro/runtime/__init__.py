"""Scioto-model task-parallel runtime over the work-stealing queues."""

from .oracle import PoolOracle
from .pool import IMPLEMENTATIONS, TaskPool, run_pool
from .registry import TaskContext, TaskFn, TaskOutcome, TaskRegistry
from .stats import RunStats, WorkerStats
from .task import HEADER_BYTES, Task
from .termination import (
    TerminationDetector,
    TerminationSystem,
    TreeTerminationDetector,
    TreeTerminationSystem,
)
from .inbox import Inbox, InboxSystem
from .lifeline import (
    LifelineConfig,
    LifelineManager,
    LifelineSystem,
    hypercube_neighbors,
)
from .victim import (
    HierarchicalVictim,
    LocalityVictim,
    RoundRobinVictim,
    UniformVictim,
    VictimSelector,
    make_selector,
)
from .worker import Worker, WorkerConfig

__all__ = [
    "TaskPool",
    "run_pool",
    "IMPLEMENTATIONS",
    "PoolOracle",
    "TaskRegistry",
    "TaskContext",
    "TaskOutcome",
    "TaskFn",
    "Task",
    "HEADER_BYTES",
    "RunStats",
    "WorkerStats",
    "TerminationSystem",
    "TerminationDetector",
    "TreeTerminationSystem",
    "TreeTerminationDetector",
    "UniformVictim",
    "RoundRobinVictim",
    "LocalityVictim",
    "HierarchicalVictim",
    "VictimSelector",
    "make_selector",
    "Inbox",
    "InboxSystem",
    "LifelineConfig",
    "LifelineManager",
    "LifelineSystem",
    "hypercube_neighbors",
    "Worker",
    "WorkerConfig",
]
