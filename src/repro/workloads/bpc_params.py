"""BPC's parameters and its one step, free of any substrate.

A node is ``(d, i)``: the producer at chain depth ``d`` is ``(d,
PRODUCER)`` and its ``i``-th consumer ``(d, i)``, so every node is
distinct.  The fabric (:mod:`repro.workloads.bpc`) runs the step on
producers only and charges a consumer its virtual ``consumer_time``; on
real processes a consumer's step is :data:`CONSUMER_ROUNDS` SHA-1 rounds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

#: A producer's index: ``(d, PRODUCER)`` is the producer at depth ``d``.
PRODUCER = 0xFFFFFFFF

#: SHA-1 rounds a consumer's step computes: its host-time work.
CONSUMER_ROUNDS = 64

#: A node's bytes (little-endian): ``d : u32``, ``i : u32``.
NODE = struct.Struct("<II")


@dataclass(frozen=True)
class BpcParams:
    """BPC workload configuration.

    ``n_consumers`` consumers per producer, producers chained to
    ``depth``; durations in seconds.
    """

    n_consumers: int = 64
    depth: int = 32
    consumer_time: float = 5.0e-3
    producer_time: float = 1.0e-3

    def __post_init__(self) -> None:
        if self.n_consumers < 0:
            raise ValueError(f"n_consumers must be >= 0, got {self.n_consumers}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.consumer_time < 0 or self.producer_time < 0:
            raise ValueError("task durations must be non-negative")

    def root(self) -> tuple[int, int]:
        """The first producer's node."""
        return (self.depth, PRODUCER)

    @property
    def total_tasks(self) -> int:
        """Exact task count: each of ``depth`` producers spawns
        ``n_consumers``; the deepest producer spawns nothing further."""
        return self.depth * (self.n_consumers + 1)

    @property
    def total_task_time(self) -> float:
        """Sum of all task compute durations (for efficiency baselines)."""
        return self.depth * (
            self.n_consumers * self.consumer_time + self.producer_time
        )

    @property
    def avg_task_time(self) -> float:
        """Mean task duration (Table 2 reports 5 ms at paper scale)."""
        return self.total_task_time / self.total_tasks


#: The configuration used in the paper's evaluation.
PAPER_PARAMS = BpcParams(
    n_consumers=8192, depth=500, consumer_time=5.0e-3, producer_time=1.0e-3
)


def paper_scale() -> BpcParams:
    """The published configuration (≈2.46 M tasks — heavy to simulate)."""
    return PAPER_PARAMS


def bpc_step(params: BpcParams) -> Callable:
    """The chain's one task body: a node ``(d, i)`` in, its children's
    nodes out (a consumer has none, after its SHA-1 rounds)."""
    consumers = range(params.n_consumers)
    pack = NODE.pack

    def step(node):
        d, i = node
        if i == PRODUCER:
            # Next producer first: closest to the tail, first to be stolen.
            first = [(d - 1, PRODUCER)] if d > 1 else []
            return first + [(d, c) for c in consumers]
        # Imported here: the fabric never runs a consumer's step, and
        # hashlib's libcrypto would cost its process ~3.6 MiB of RSS.
        from hashlib import sha1
        h = pack(d, i)
        for _ in range(CONSUMER_ROUNDS):
            h = sha1(h).digest()
        return ()

    return step
