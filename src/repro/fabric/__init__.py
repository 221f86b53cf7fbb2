"""Simulated RDMA/PGAS fabric: the substrate the paper's testbed provided.

The real system ran on EDR InfiniBand with Sandia OpenSHMEM; this package
replaces that hardware with a deterministic discrete-event model that
preserves the properties the paper's argument rests on: per-message
latency costs, one-sided remote memory semantics, and target-side
serialization of atomics.
"""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "Call": "engine",
    "Delay": "engine",
    "Engine": "engine",
    "Process": "engine",
    "FabricError": "errors",
    "AddressError": "errors",
    "AlignmentError": "errors",
    "DeadlockError": "errors",
    "FabricTimeoutError": "errors",
    "FaultPlan": "faults",
    "FaultInjector": "faults",
    "PEFailure": "faults",
    "NO_FAULTS": "faults",
    "PEIndexError": "errors",
    "ProtocolError": "errors",
    "OracleViolation": "errors",
    "RegionError": "errors",
    "SimulationError": "errors",
    "LatencyModel": "latency",
    "EDR_INFINIBAND": "latency",
    "SLOW_ETHERNET": "latency",
    "ZERO_LATENCY": "latency",
    "PRESETS": "latency",
    "get_preset": "latency",
    "RegionSpec": "memory",
    "SymmetricHeap": "memory",
    "FabricMetrics": "metrics",
    "OpRecord": "metrics",
    "OP_KINDS": "metrics",
    "BLOCKING_KINDS": "metrics",
    "Nic": "nic",
    "WORD_BYTES": "nic",
    "Scheduler": "scheduler",
    "FixedScheduler": "scheduler",
    "RandomScheduler": "scheduler",
    "PctScheduler": "scheduler",
    "DfsScheduler": "scheduler",
    "ReplayScheduler": "scheduler",
    "ScheduleDivergence": "scheduler",
    "ScheduleTrace": "scheduler",
    "dfs_successor": "scheduler",
    "make_scheduler": "scheduler",
    "POLICIES": "scheduler",
    "Topology": "topology",
})
