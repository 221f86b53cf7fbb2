"""Real-thread substrate: the SWS protocol under genuine preemption."""

from .atomics import AtomicArray64, AtomicWord64
from .ffmult_shim import ThreadFfMultQueue, hammer_ffmult
from .protocol import (
    FfMultShimCore,
    SdcShimCore,
    ShimStealResult,
    SwsShimCore,
    ffmult_steal_once,
    sdc_steal_once,
    sws_steal_once,
)
from .queue_shim import ThreadSwsQueue, hammer
from .sdc_shim import ThreadSdcQueue, hammer_sdc

__all__ = [
    "AtomicWord64",
    "AtomicArray64",
    "SwsShimCore",
    "SdcShimCore",
    "FfMultShimCore",
    "ShimStealResult",
    "sws_steal_once",
    "sdc_steal_once",
    "ffmult_steal_once",
    "ThreadSwsQueue",
    "hammer",
    "ThreadSdcQueue",
    "hammer_sdc",
    "ThreadFfMultQueue",
    "hammer_ffmult",
]
