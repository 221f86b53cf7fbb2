"""Lifeline work delivery via per-PE MPSC inboxes (paper §2.1/§3).

A donor hands surplus tasks to a quiescent buddy (:mod:`.lifeline`), but
the buddy's task queue cannot be written by arbitrary remote producers
(thieves only *read* the shared portion), so deliveries land in a
separate symmetric **inbox** — a multi-producer single-consumer ring:

1. the sender reserves a slot with a remote ``fetch_add`` on the
   reserve counter;
2. one ``put_signal`` (OpenSHMEM 1.5) writes the task record and raises
   the slot's commit flag in a single message: two communications per
   delivered task.

The owner polls commit flags from its drain cursor (a local read),
moving committed tasks onto its normal local queue.  Slots are reused
once drained; the ring must be sized for the peak in-flight delivery
count (an overwritten un-drained slot raises :class:`ProtocolError` —
the flow-control discipline real implementations enforce with
windowing).
"""

from __future__ import annotations

from typing import Generator

from ..fabric.errors import ProtocolError
from ..shmem.api import ShmemCtx

META_REGION = "inbox.meta"
FLAG_REGION = "inbox.flags"
TASK_REGION = "inbox.tasks"

RESERVE = 0  # meta word: next slot sequence number

#: Slots per PE in a pool's inbox ring.
CAPACITY = 1024


class InboxSystem:
    """Allocates the symmetric inbox regions for the job."""

    def __init__(self, ctx: ShmemCtx, capacity: int, task_size: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if task_size <= 0:
            raise ValueError(f"task_size must be positive, got {task_size}")
        self.ctx = ctx
        self.capacity = capacity
        self.task_size = task_size
        ctx.heap.alloc_words(META_REGION, 1)
        ctx.heap.alloc_words(FLAG_REGION, capacity)
        ctx.heap.alloc_bytes(TASK_REGION, capacity * task_size)

    def handle(self, rank: int) -> "Inbox":
        """Per-PE inbox endpoint."""
        return Inbox(self, rank)


class Inbox:
    """Sender + owner operations for one PE's inbox."""

    def __init__(self, system: InboxSystem, rank: int) -> None:
        self.system = system
        self.pe = system.ctx.pe(rank)
        self.rank = rank
        self.drain_cursor = 0  # owner-local: next sequence to drain

    # ------------------------------------------------------------------
    # sender side (remote)
    # ------------------------------------------------------------------
    def send(self, target: int, record: bytes) -> Generator:
        """Deposit one task record into ``target``'s inbox: a blocking
        reserve fetch-add, then the record and its commit flag as one
        non-blocking ``put_signal``."""
        if target == self.rank:
            raise ProtocolError("use the local queue, not the inbox, for self-spawns")
        if len(record) != self.system.task_size:
            raise ProtocolError(
                f"record of {len(record)} bytes; inbox expects "
                f"{self.system.task_size}"
            )
        seq = yield self.pe.atomic_fetch_add(target, META_REGION, RESERVE, 1)
        # The flag carries the lap count, so a clobbered slot (a producer
        # lapping an undrained one) is still detectable.
        lap, slot = divmod(seq, self.system.capacity)
        yield self.pe.put_signal_nb(
            target, TASK_REGION, slot * self.system.task_size, record,
            FLAG_REGION, slot, lap + 1)

    # ------------------------------------------------------------------
    # owner side (local)
    # ------------------------------------------------------------------
    def drain(self) -> list[bytes]:
        """Collect committed records in arrival sequence (local reads).

        Commit flags carry the *lap count* (pass number over the ring):
        slot ``seq`` is ready when its flag equals ``seq // cap + 1``.
        A higher flag means a producer lapped an undrained slot and
        clobbered it — the ring was undersized.  Flags are never cleared;
        the lap discipline makes reuse unambiguous.
        """
        out: list[bytes] = []
        ts = self.system.task_size
        while True:
            slot, lap = self._next()
            flag = self.pe.local_load(FLAG_REGION, slot)
            if flag < lap:
                return out
            if flag > lap:
                raise ProtocolError(
                    f"PE {self.rank}: inbox overrun at slot {slot} "
                    f"(flag={flag}, expected lap {lap}); "
                    f"increase inbox capacity"
                )
            out.append(self.pe.local_read_bytes(TASK_REGION, slot * ts, ts))
            self.drain_cursor += 1

    def _next(self) -> tuple[int, int]:
        """The next sequence's slot, and the flag that commits it."""
        lap, slot = divmod(self.drain_cursor, self.system.capacity)
        return slot, lap + 1

    @property
    def pending_hint(self) -> bool:
        """Cheap check: is the next slot committed? (one local read)"""
        slot, lap = self._next()
        return self.pe.local_load(FLAG_REGION, slot) >= lap

    def wake_condition(self) -> tuple[str, int, object]:
        """``wait_until_any`` triple firing when the next slot commits."""
        slot, lap = self._next()
        return (FLAG_REGION, slot, lambda v: v >= lap)
