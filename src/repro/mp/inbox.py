"""The serving inbox: one PE's arrival ring in shared memory.

``run_mp_serve``'s parent is the only producer of each inbox and its PE
the only consumer.  Monotone ``rd`` / ``wr`` cursors (record counts;
slot = cursor % capacity) go through the locked word API, and record
bytes through the lock-free block plane, split in two where a batch
wraps the ring end.  Bytes are written before ``wr`` advances and read
before ``rd`` does, so neither side ever sees a half-written record.
"""

from __future__ import annotations

from ..shmem.heap import SymArray, SymWord
from .atomics import RecordCodec
from .errors import RingOverflowError
from .heap import MpHeap


class ShmInbox:
    """SPSC ring of task records: the feeder posts, one PE drains."""

    def __init__(self, heap: MpHeap, rd: SymWord, wr: SymWord,
                 buf: SymArray, capacity: int, words_per_task: int) -> None:
        self._rd_w = heap.ref(rd)
        self._wr_w = heap.ref(wr)
        self._buf = heap.slice(buf)
        self.capacity = capacity
        self.words_per_task = words_per_task
        self._codec = RecordCodec(words_per_task)

    # -- producer (the feeder) ----------------------------------------
    def post(self, tasks) -> None:
        """Append ``tasks``, or raise :class:`RingOverflowError` with the
        ring unchanged when they do not all fit."""
        tasks = list(tasks)
        if not tasks:
            return
        rd, wr = self._rd_w.load(), self._wr_w.load()
        if wr - rd + len(tasks) > self.capacity:
            raise RingOverflowError(
                f"inbox of {self.capacity} records cannot take "
                f"{len(tasks)} more (holding {wr - rd})"
            )
        data = self._codec.encode(tasks)
        w0, total = self._slot(wr)
        if w0 + len(data) // 8 <= total:
            self._buf.write_block(w0, data)
        else:
            split = (total - w0) * 8
            self._buf.write_block(w0, data[:split])
            self._buf.write_block(0, data[split:])
        self._wr_w.store(wr + len(tasks))

    def pending(self) -> int:
        """Records posted and not yet drained."""
        return self._wr_w.load_seq() - self._rd_w.load_seq()

    # -- consumer (the PE) --------------------------------------------
    def drain(self) -> list:
        """Take every posted record, oldest first."""
        rd = self._rd_w.load_seq()
        wr = self._wr_w.load_seq()
        if wr <= rd:
            return []
        nw = (wr - rd) * self.words_per_task
        w0, total = self._slot(rd)
        if w0 + nw <= total:
            data = self._buf.read_block(w0, nw)
        else:
            head = total - w0
            data = (self._buf.read_block(w0, head)
                    + self._buf.read_block(0, nw - head))
        self._rd_w.store(wr)
        return self._codec.decode(data)

    def _slot(self, cursor: int) -> tuple[int, int]:
        """(first word of ``cursor``'s record, words in the ring)."""
        total = self.capacity * self.words_per_task
        return (cursor * self.words_per_task) % total, total
