"""OpenSHMEM-like PGAS layer over the simulated fabric."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "Pe": "api",
    "ShmemCtx": "api",
    "HeapBackend": "heap",
    "SymWord": "heap",
    "SymArray": "heap",
    "SymBytes": "heap",
    "SymmetricAllocator": "heap",
    "Collectives": "collectives",
    "CollectiveSystem": "collectives",
    "REDUCERS": "collectives",
})
