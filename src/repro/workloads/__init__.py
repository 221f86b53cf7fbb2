"""Benchmark workloads: BPC, UTS, and the Figure-6 steal-latency probe."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "BpcParams": "bpc_params",
    "BpcWorkload": "bpc",
    "BPC_PAPER_PARAMS": "bpc_params:PAPER_PARAMS",
    "BPC_PAPER_TASK_SIZE": "bpc:PAPER_TASK_SIZE",
    "paper_scale": "bpc_params",
    "StealProbeResult": "synthetic",
    "measure_single_steal": "synthetic",
    "steal_volume_sweep": "synthetic",
})
