"""Task-function registry.

Task descriptors are portable across PEs, so the mapping from ``fn_id``
to executable code must be identical everywhere — exactly like function
pointers registered at startup in the C implementation.  A
:class:`TaskRegistry` is built once, before the pool runs, and shared by
every worker.

A task function has the signature::

    fn(payload: bytes, tc: TaskContext) -> TaskOutcome

returning the task's (virtual) compute duration and any child tasks to
spawn.  Child tasks are enqueued LIFO on the executing PE's local queue,
giving the depth-first traversal the Scioto model prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..fabric.errors import ProtocolError
from .task import Task


@dataclass(frozen=True)
class TaskContext:
    """Execution context handed to task functions."""

    rank: int
    npes: int


class TaskOutcome:
    """What executing one task produced.

    ``children`` are enqueued LIFO on the executing PE.

    A ``__slots__`` class: one outcome is built per executed task, which
    makes construction cost part of the simulator's per-task overhead.
    Most tasks are leaves: one that names no children holds the shared
    immutable ``()``, so build the list first and pass it in.
    """

    __slots__ = ("duration", "children")

    def __init__(self, duration: float, children: Sequence[Task] = ()) -> None:
        if duration < 0:
            raise ValueError(f"negative task duration: {duration}")
        self.duration = duration
        self.children = children

    def __repr__(self) -> str:
        return (f"TaskOutcome(duration={self.duration!r}, "
                f"children={self.children!r})")


TaskFn = Callable[[bytes, TaskContext], TaskOutcome]


class TaskRegistry:
    """Bidirectional name/id registry of task functions."""

    def __init__(self) -> None:
        self._fns: list[TaskFn] = []
        self._names: dict[str, int] = {}

    def register(self, name: str, fn: TaskFn) -> int:
        """Register ``fn`` under ``name``; returns its ``fn_id``."""
        if name in self._names:
            raise ProtocolError(f"task function {name!r} already registered")
        fn_id = len(self._fns)
        if fn_id >= (1 << 16):
            raise ProtocolError("task-function registry full")
        self._fns.append(fn)
        self._names[name] = fn_id
        return fn_id

    def id_of(self, name: str) -> int:
        """Look up a registered function's id."""
        try:
            return self._names[name]
        except KeyError:
            raise ProtocolError(f"no task function named {name!r}") from None

    def execute(self, task: Task, tc: TaskContext) -> TaskOutcome:
        """Run ``task``'s function; returns its outcome."""
        if not 0 <= task.fn_id < len(self._fns):
            raise ProtocolError(f"task references unregistered fn_id {task.fn_id}")
        return self._fns[task.fn_id](task.payload, tc)

    def dispatch_table(self) -> list[TaskFn]:
        """The live fn_id-indexed function list (read-only by contract).

        Hot executors index this directly — with their own bounds check —
        instead of paying a method call per task."""
        return self._fns

    def __len__(self) -> int:
        return len(self._fns)
