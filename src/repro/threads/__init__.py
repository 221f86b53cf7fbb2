"""Real-thread substrate: the mp layouts' protocols under genuine
preemption, raced by threads on a heap of one process."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "hammer": "protocol",
})
