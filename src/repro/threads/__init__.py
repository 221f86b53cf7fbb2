"""Real-thread substrate: the SWS protocol under genuine preemption."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "AtomicWord64": "atomics",
    "AtomicArray64": "atomics",
    "SwsShimCore": "protocol",
    "SdcShimCore": "protocol",
    "FfMultShimCore": "protocol",
    "ShimStealResult": "protocol",
    "sws_steal_once": "protocol",
    "sdc_steal_once": "protocol",
    "ffmult_steal_once": "protocol",
    "ThreadSwsQueue": "queue_shim",
    "hammer": "queue_shim",
    "ThreadSdcQueue": "sdc_shim",
    "hammer_sdc": "sdc_shim",
    "ThreadFfMultQueue": "ffmult_shim",
    "hammer_ffmult": "ffmult_shim",
})
