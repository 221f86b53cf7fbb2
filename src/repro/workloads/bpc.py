"""Bouncing Producer-Consumer benchmark (paper §5.2.1).

BPC stresses a load balancer's ability to *locate and disperse* work.
One producer task spawns ``n`` consumer tasks plus the next producer,
down to a set depth.  Because the producer is enqueued first, it sits at
the **tail** of the owner's queue — the first task a thief copies — so
the producer "bounces" between processes, dragging the work front with
it.  Consumers are pure compute.

Paper parameters: n=8192 consumers per producer, depth 500, consumer
5 ms, producer 1 ms, 32-byte tasks → 2,457,901 total tasks (Table 2:
``depth * (n + 1) + 1`` with the final producer spawning nothing).
Scaled defaults keep simulation tractable; ``paper_scale`` restores the
published configuration.

Payload: the task's ``(d, i)`` node (:mod:`repro.workloads.bpc_params`).
"""

from __future__ import annotations

from ..runtime.registry import TaskContext, TaskOutcome, TaskRegistry
from ..runtime.task import Task
from .bpc_params import PAPER_PARAMS, paper_scale  # noqa: F401  (re-exported)
from .bpc_params import NODE, PRODUCER, BpcParams, bpc_step

#: Task record size used by the paper for BPC (Table 2).
PAPER_TASK_SIZE = 32


class BpcWorkload:
    """Registers BPC task functions and produces the seed task.

    The producer enqueues itself *first* so it lands nearest the queue
    tail and is stolen first — the bounce that gives BPC its name.
    """

    def __init__(self, registry: TaskRegistry, params: BpcParams | None = None) -> None:
        self.params = params or BpcParams()
        self.producer_id = registry.register("bpc.producer", self._producer)
        self.consumer_id = registry.register("bpc.consumer", self._consumer)
        self._step = bpc_step(self.params)
        #: (depth, executing rank) per producer, in execution order — the
        #: raw data behind the "bouncing" in the benchmark's name.
        self.producer_hosts: list[tuple[int, int]] = []

    def seed_task(self) -> Task:
        """The root producer task."""
        return Task(self.producer_id, NODE.pack(*self.params.root()))

    @property
    def bounces(self) -> int:
        """How many times the producer chain changed hosts.

        The producers form one serial chain (depth N spawns depth N-1),
        so consecutive entries of ``producer_hosts`` sorted by falling
        depth are consecutive chain links; a rank change between links is
        one bounce.
        """
        chain = sorted(self.producer_hosts, key=lambda dr: -dr[0])
        return sum(
            1 for (_, a), (_, b) in zip(chain, chain[1:]) if a != b
        )

    def _producer(self, payload: bytes, tc: TaskContext) -> TaskOutcome:
        node = NODE.unpack(payload)
        self.producer_hosts.append((node[0], tc.rank))
        pack, producer, consumer = NODE.pack, self.producer_id, self.consumer_id
        children = [Task(producer if i == PRODUCER else consumer, pack(d, i))
                    for d, i in self._step(node)]
        return TaskOutcome(duration=self.params.producer_time, children=children)

    def _consumer(self, payload: bytes, tc: TaskContext) -> TaskOutcome:
        return TaskOutcome(duration=self.params.consumer_time)
