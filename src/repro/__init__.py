"""repro — reproduction of *Optimizing Work Stealing Communication with
Structured Atomic Operations* (Cartier, Dinan, Larkins; ICPP 2021).

The package implements the paper's SWS work-stealing system and its
Scioto-SDC baseline over a simulated RDMA/PGAS fabric:

* :mod:`repro.fabric` — discrete-event RDMA fabric (engine, symmetric
  heap, NIC with a calibrated latency model);
* :mod:`repro.shmem` — OpenSHMEM-flavoured one-sided API;
* :mod:`repro.core` — the stealval codecs, steal-half schedule, steal
  damping, and the SDC / SWS task queues;
* :mod:`repro.runtime` — Scioto-model task pool: workers, termination
  detection, statistics;
* :mod:`repro.workloads` — BPC, UTS, and the Figure-6 steal probe;
* :mod:`repro.analysis` — the experiment harness regenerating every
  table and figure of the paper's evaluation.

Quickstart::

    from repro import TaskPool, Task, TaskOutcome, TaskRegistry

    reg = TaskRegistry()
    leaf = reg.register("leaf", lambda payload, tc: TaskOutcome(5e-3))
    pool = TaskPool(npes=16, registry=reg, impl="sws")
    pool.seed(0, [Task(leaf) for _ in range(10_000)])
    stats = pool.run()
    print(f"{stats.throughput:.0f} tasks/s at efficiency "
          f"{stats.parallel_efficiency:.2%}")
"""

from ._exports import exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = exports(__name__, {
    "TaskPool": "runtime.pool",
    "run_pool": "runtime.pool",
    "TaskRegistry": "runtime.registry",
    "Task": "runtime.task",
    "TaskOutcome": "runtime.registry",
    "RunStats": "runtime.stats",
    "WorkerStats": "runtime.stats",
    "WorkerConfig": "runtime.worker",
    "QueueConfig": "core.config",
    "SwsQueue": "core.sws_queue",
    "SwsQueueSystem": "core.sws_queue",
    "SdcQueue": "core.sdc_queue",
    "SdcQueueSystem": "core.sdc_queue",
    "StealResult": "core.results",
    "StealStatus": "core.results",
    "StealValV1": "core.stealval",
    "StealValEpoch": "core.stealval",
    "DampingTracker": "core.damping",
    "LatencyModel": "fabric.latency",
    "EDR_INFINIBAND": "fabric.latency",
    "SLOW_ETHERNET": "fabric.latency",
    "ZERO_LATENCY": "fabric.latency",
    "FaultPlan": "fabric.faults",
    "PEFailure": "fabric.faults",
    "FabricTimeoutError": "fabric.errors",
    "Scheduler": "fabric.scheduler",
    "ScheduleTrace": "fabric.scheduler",
    "make_scheduler": "fabric.scheduler",
    "PoolOracle": "runtime.oracle",
    "OracleViolation": "fabric.errors",
    "ShmemCtx": "shmem.api",
    "Pe": "shmem.api",
})
__all__.append("__version__")
