"""Benchmark workloads: BPC, UTS, and the Figure-6 steal-latency probe."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "BpcParams": "bpc",
    "BpcWorkload": "bpc",
    "BPC_PAPER_PARAMS": "bpc:PAPER_PARAMS",
    "BPC_PAPER_TASK_SIZE": "bpc:PAPER_TASK_SIZE",
    "paper_scale": "bpc",
    "StealProbeResult": "synthetic",
    "measure_single_steal": "synthetic",
    "steal_volume_sweep": "synthetic",
    "FibParams": "fib",
    "FibWorkload": "fib",
    "fib": "fib",
    "task_count": "fib",
    "NQueensParams": "nqueens",
    "NQueensWorkload": "nqueens",
    "SOLUTIONS": "nqueens",
})
