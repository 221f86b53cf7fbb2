"""UTS as a task-pool workload (paper §5.2.2).

Every tree node is one task (Table 2: 48-byte tasks, ~110 ns average
"work" per node).  A node task hashes out its children — real SHA-1
evaluations, so the tree shape is genuine — and spawns one child task
per child node.  The body is the tree's one step,
:func:`~repro.workloads.uts.tree.uts_step`; a task wraps its node in a
payload (little-endian)::

    depth : u32   (the root is depth 0)
    state : 20 bytes (SHA-1 digest)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ...runtime.registry import TaskContext, TaskOutcome, TaskRegistry
from ...runtime.task import Task
from .tree import UtsParams, uts_step

_NODE = struct.Struct("<I20s")
_new_task = Task.__new__

#: Task record size used by the paper for UTS (Table 2).
PAPER_TASK_SIZE = 48

#: Average per-node task duration reported in Table 2 (0.00011 ms).
PAPER_NODE_TIME = 0.00011e-3


@dataclass(frozen=True)
class UtsWorkloadParams:
    """Execution-side knobs for the UTS workload."""

    node_time: float = PAPER_NODE_TIME   # seconds of compute per node
    per_child_time: float = 0.0          # extra compute per spawned child

    def __post_init__(self) -> None:
        if self.node_time < 0 or self.per_child_time < 0:
            raise ValueError("node times must be non-negative")


class UtsWorkload:
    """Registers the UTS node task and produces the root seed task."""

    def __init__(
        self,
        registry: TaskRegistry,
        tree: UtsParams,
        params: UtsWorkloadParams | None = None,
    ) -> None:
        self.tree = tree
        self.params = params or UtsWorkloadParams()
        self.node_id = registry.register("uts.node", self._node)
        # Hot-loop hoists: _node runs once per tree node.
        self._node_time = self.params.node_time
        self._per_child = self.params.per_child_time
        # One immutable outcome serves every leaf (most nodes): built once.
        self._leaf = TaskOutcome(self._node_time)
        self._step = uts_step(tree)

    def seed_task(self) -> Task:
        """The root node's task."""
        return Task(self.node_id, _NODE.pack(0, self.tree.root()))

    def _node(self, payload: bytes, tc: TaskContext) -> TaskOutcome:
        depth, state = _NODE.unpack(payload)
        children = self._step((state, depth))
        if not children:
            return self._leaf
        # The step is this body's one extra frame, so a child costs none:
        # make_task's body in place (a registry id, a fixed-width payload).
        tasks = []
        append, pack, nid = tasks.append, _NODE.pack, self.node_id
        for child, d in children:
            task = _new_task(Task)
            task.fn_id = nid
            task.payload = pack(d, child)
            append(task)
        return TaskOutcome(self._node_time + self._per_child * len(tasks), tasks)
