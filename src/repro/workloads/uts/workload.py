"""UTS as a task-pool workload (paper §5.2.2).

Every tree node is one task (Table 2: 48-byte tasks, ~110 ns average
"work" per node).  A node task hashes out its children — real SHA-1
evaluations, so the tree shape is genuine — and spawns one child task
per child node.  Payload layout (little-endian)::

    depth : u32
    flags : u32   (bit 0: is_root)
    state : 20 bytes (SHA-1 digest)
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

from ...runtime.registry import TaskContext, TaskOutcome, TaskRegistry
from ...runtime.task import Task, make_task
from .sha1_rng import _TWO31
from .tree import TreeType, UtsParams, expand, geo_log1mp_table

_NODE = struct.Struct("<II20s")
_CHILD_PACK = struct.Struct(">I").pack
_SHA1 = hashlib.sha1
_LOG = math.log

#: Task record size used by the paper for UTS (Table 2).
PAPER_TASK_SIZE = 48

#: Average per-node task duration reported in Table 2 (0.00011 ms).
PAPER_NODE_TIME = 0.00011e-3

_ROOT_FLAG = 1


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
        self.registry = registry
        self.node_id = registry.register("uts.node", self._node)
        # Hot-loop hoists: _node runs once per tree node.
        self._node_time = self.params.node_time
        self._per_child = self.params.per_child_time
        # One immutable outcome serves every leaf (most nodes): built once.
        self._leaf = TaskOutcome(self._node_time)
        # GEO trees: the geometric draw's log(1 - p) is a pure function of
        # depth, tabled once here instead of per node.
        self._log1mp = (geo_log1mp_table(tree)
                        if tree.tree_type is TreeType.GEO else None)

    def seed_task(self) -> Task:
        """The root node's task."""
        return Task(
            self.node_id, _NODE.pack(0, _ROOT_FLAG, self.tree.root())
        )

    def _node(self, payload: bytes, tc: TaskContext) -> TaskOutcome:
        # make_task: the fn id is a registry id and the payload a fixed-width
        # struct, so Task's range validation is statically satisfied.
        depth, flags, state = _NODE.unpack(payload)
        table = self._log1mp
        if table is None:
            tasks = [
                make_task(self.node_id, _NODE.pack(depth + 1, 0, c))
                for c in expand(self.tree, state, depth, bool(flags & _ROOT_FLAG))
            ]
        else:
            # Inlined GEO expansion (bit-identical to tree.num_children):
            # the state is a fixed-width struct field, so the validating
            # to_prob/spawn wrappers are skipped.
            log1mp = table[depth] if depth < len(table) else 0.0
            if log1mp == 0.0:
                return self._leaf
            u = (int.from_bytes(state[:4], "big") & 0x7FFFFFFF) / _TWO31
            n = int(_LOG(1.0 - u) / log1mp)
            if not n:
                return self._leaf
            pack = _NODE.pack
            nid = self.node_id
            d1 = depth + 1
            tasks = [
                make_task(nid, pack(d1, 0, _SHA1(state + _CHILD_PACK(i)).digest()))
                for i in range(n)
            ]
        return TaskOutcome(self._node_time + self._per_child * len(tasks), tasks)
