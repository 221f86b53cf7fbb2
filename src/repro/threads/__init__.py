"""Real-thread substrate: the shim protocols under genuine preemption,
raced by threads over the mp layouts on a heap of one process."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "SwsShimCore": "protocol",
    "SdcShimCore": "protocol",
    "FfMultShimCore": "protocol",
    "ShimStealResult": "protocol",
    "sws_steal_once": "protocol",
    "sdc_steal_once": "protocol",
    "ffmult_steal_once": "protocol",
    "hammer": "protocol",
})
