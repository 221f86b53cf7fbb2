"""Multiprocess substrate: the shim protocols across real OS processes.

The third execution substrate of the reproduction (after the simulated
fabric and the in-process threads): shared-memory 64-bit words with
cross-process atomic operations, the shim protocol cores of
:mod:`repro.threads.protocol` bound to them once (:mod:`repro.mp.queue`,
which the threads backend runs too), and a process-pool PE driver that
runs the synthetic and UTS workloads end-to-end.  See
``docs/backends.md`` for what each substrate can and cannot falsify.
"""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "ShmWords": "atomics",
    "WordRef": "atomics",
    "WordSlice": "atomics",
    "MpHeap": "heap",
    "SwsQueueLayout": "queue",
    "SdcQueueLayout": "queue",
    "FfMultQueueLayout": "queue",
    "MpSwsQueue": "queue",
    "MpSwsThief": "queue",
    "MpSdcQueue": "queue",
    "MpSdcThief": "queue",
    "MpFfMultQueue": "queue",
    "MpFfMultThief": "queue",
    "hammer_mp": "queue",
    "run_mp": "driver",
    "MpRunResult": "driver",
    "MpPeStats": "driver",
    "synthetic_expected": "driver",
    "uts_expected": "driver",
})
