"""Portable task descriptors (paper §2.1).

A task is "the fundamental unit of work": a descriptor naming the function
to execute plus the portable state that function needs.  Descriptors
serialize to fixed-size records — the byte currency of the task queues —
with a tiny header::

    fn_id : u16   registered task-function identifier
    plen  : u16   payload length in bytes
    payload, zero-padded to the queue's task_size

Payloads must be position-independent (global addresses or plain values),
matching the Scioto execution model's portability requirement.
"""

from __future__ import annotations

import functools
import struct

from ..fabric.errors import ProtocolError

HEADER_BYTES = struct.calcsize("<HH")


@functools.lru_cache(maxsize=None)
def _record(size: int) -> struct.Struct:
    """The one codec of ``size``-byte records (header + NUL-padded payload)."""
    return struct.Struct(f"<HH{size - HEADER_BYTES}s")


class Task:
    """One unit of work: a function id and its serialized arguments.

    A ``__slots__`` value class (tasks are created per spawn and per
    dequeue — the hottest object in the runtime layer).  Instances are
    immutable by convention; equality and hashing follow the
    ``(fn_id, payload)`` pair.
    """

    __slots__ = ("fn_id", "payload")

    def __init__(self, fn_id: int, payload: bytes = b"") -> None:
        if not 0 <= fn_id < (1 << 16):
            raise ProtocolError(f"fn_id {fn_id} does not fit in 16 bits")
        if len(payload) >= (1 << 16):
            raise ProtocolError(f"payload of {len(payload)} bytes too large")
        self.fn_id = fn_id
        self.payload = payload

    def __repr__(self) -> str:
        return f"Task(fn_id={self.fn_id}, payload={self.payload!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Task):
            return NotImplemented
        return self.fn_id == other.fn_id and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.fn_id, self.payload))

    def serialize(self, task_size: int) -> bytes:
        """Encode to a fixed-size record of ``task_size`` bytes."""
        payload = self.payload
        if HEADER_BYTES + len(payload) > task_size:
            raise ProtocolError(
                f"task needs {HEADER_BYTES + len(payload)} bytes; "
                f"record size is {task_size}"
            )
        return _record(task_size).pack(self.fn_id, len(payload), payload)

    @classmethod
    def deserialize(cls, record: bytes) -> "Task":
        """Decode a fixed-size record back into a task."""
        return make_task(*parse_record(record))


def parse_record(record: bytes) -> tuple[int, bytes]:
    """Decode a record to ``(fn_id, payload)`` without building a Task:
    the worker's batch loop only needs the two fields."""
    size = len(record)
    if size < HEADER_BYTES:
        raise ProtocolError(f"record of {size} bytes has no header")
    fn_id, plen, body = _record(size).unpack(record)
    if plen > len(body):
        raise ProtocolError(
            f"record declares {plen} payload bytes but holds {len(body)}"
        )
    return fn_id, body[:plen]


def make_task(fn_id: int, payload: bytes) -> Task:
    """Unvalidated fast constructor for hot spawn loops.

    The caller must guarantee ``fn_id`` fits in 16 bits (e.g. a registry
    id) and ``len(payload) < 65536`` (e.g. a fixed-width struct field).
    """
    task = Task.__new__(Task)
    task.fn_id = fn_id
    task.payload = payload
    return task
