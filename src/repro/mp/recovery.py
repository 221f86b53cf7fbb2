"""Crash-recovery data plane for the multiprocess substrate.

Everything a fail-stopped PE would otherwise take to the grave is kept
in shared memory, in owner-exclusive structures the supervisor can read
post-mortem:

* :class:`ShmRing` — the crash-mode replacement for the PE loop's
  private Python deque: a bounded ring of task records with monotone
  head/tail cursors published through the locked word API, so a dead
  PE's queued-but-unshared work is scavengeable.
* an **in-flight journal** (flag + payload words, see
  :class:`PeRegions`) written *before* a task is popped for execution
  and cleared *after* its children are safely in the ring — every crash
  window around an execution yields a re-injected duplicate, never a
  lost subtree.
* **steal-intent words** — a thief durably records ``(victim, start,
  count)`` for each winning claim before copying; a thief that dies
  with loot only in its dead address space is recovered by re-reading
  the victim's buffer range (claimed ranges are never overwritten, so
  the bytes stay valid).
* :class:`ShmXlog` — an append-only per-PE log of executed-task
  fingerprints: the ground truth for at-least-once accounting (the
  duplicate-aware oracle dedups the union of all logs).
* :class:`ShmInbox` — a single-producer/single-consumer ring the
  supervisor re-injects scavenged orphan tasks through.

The orderings are chosen so that *every* reachable crash point leaves
each task either still visible somewhere in shared memory (ring,
in-flight journal, intent, victim buffer, inbox) or already fingerprint
-logged — at-least-once, with duplicates absorbed by the accounting,
never silent loss.

The supervisor-side scavenger lives here too: :func:`scavenge_rank`
pulls a dead PE's shared-queue remainder (the thief view's
``scavenge``, through the protocol's own lock / swap-to-locked paths, so
live thieves race it safely), ring, journal, intent and undrained inbox
into a list of payloads ready to re-inject.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..shmem.heap import SymArray, SymWord, SymmetricAllocator
from ..threads.protocol import RecordCodec
from .errors import RingOverflowError
from .heap import MpHeap


class ShmRing:
    """Owner-exclusive deque of task records in shared words.

    Monotone ``head``/``tail`` cursors (record counts, slot = cursor %
    capacity) are published through the locked word API; record bytes go
    through the lock-free block plane (single writer: the owner, or the
    supervisor after the owner died).  Publish ordering is loss-proof:
    a push writes bytes first and advances ``tail`` last; a pop-for-
    execution journals the record in the in-flight words *before*
    retreating ``tail``; a share-from-the-left only advances ``head``
    *after* the records are republished in the steal queue — so every
    crash window duplicates, never loses.
    """

    def __init__(self, heap: MpHeap, head: SymWord, tail: SymWord,
                 buf: SymArray, capacity: int, words_per_task: int) -> None:
        self._head_w = heap.ref(head)
        self._tail_w = heap.ref(tail)
        self._buf = heap.slice(buf)
        self.capacity = capacity
        self.words_per_task = words_per_task
        self._codec = RecordCodec(words_per_task)
        # Owner-local cursor mirrors (re-synced from shared on bind so a
        # respawned owner resumes where the supervisor left the ring).
        self._head = self._head_w.load()
        self._tail = self._tail_w.load()

    def __len__(self) -> int:
        return self._tail - self._head

    def __bool__(self) -> bool:
        return self._tail > self._head

    def _write_records(self, cursor: int, tasks) -> None:
        wpt = self.words_per_task
        total = self.capacity * wpt
        data = self._codec.encode(tasks)
        w0 = (cursor * wpt) % total
        if w0 + len(data) // 8 <= total:
            self._buf.write_block(w0, data)
        else:
            split = (total - w0) * 8
            self._buf.write_block(w0, data[:split])
            self._buf.write_block(0, data[split:])

    def _read_records(self, cursor: int, count: int) -> list:
        wpt = self.words_per_task
        total = self.capacity * wpt
        nw = count * wpt
        w0 = (cursor * wpt) % total
        if w0 + nw <= total:
            data = self._buf.read_block(w0, nw)
        else:
            head = total - w0
            data = self._buf.read_block(w0, head) + self._buf.read_block(
                0, nw - head)
        return self._codec.decode(data)

    def extend(self, tasks) -> None:
        """Push records at the tail (bytes first, cursor last)."""
        tasks = list(tasks)
        if not tasks:
            return
        if len(self) + len(tasks) > self.capacity:
            raise RingOverflowError(
                f"ring of {self.capacity} records cannot take "
                f"{len(tasks)} more (holding {len(self)})"
            )
        self._write_records(self._tail, tasks)
        self._tail += len(tasks)
        self._tail_w.store(self._tail)

    def peek_right(self):
        """Read the newest record without removing it."""
        if not self:
            raise IndexError("peek on empty ring")
        return self._read_records(self._tail - 1, 1)[0]

    def drop_right(self) -> None:
        """Retreat the tail past the newest record (after journaling)."""
        if not self:
            raise IndexError("drop on empty ring")
        self._tail -= 1
        self._tail_w.store(self._tail)

    def peek_left_block(self, count: int) -> list:
        """Read the ``count`` oldest records without removing them."""
        count = min(count, len(self))
        return self._read_records(self._head, count) if count else []

    def drop_left(self, count: int) -> None:
        """Advance the head past ``count`` records (after republish)."""
        if count > len(self):
            raise IndexError(f"drop_left({count}) with {len(self)} held")
        if count:
            self._head += count
            self._head_w.store(self._head)

    def scavenge(self) -> list:
        """Post-mortem read of everything still in the ring.

        Supervisor-side: cursors are re-read from shared memory (the
        local mirrors belong to the dead owner's address space).
        """
        head = self._head_w.load()
        tail = self._tail_w.load()
        self._head, self._tail = head, tail
        return self._read_records(head, tail - head) if tail > head else []


class ShmXlog:
    """Append-only per-PE log of executed-task fingerprints.

    One word per execution; the count word is published after the
    fingerprint bytes, so a crash mid-append under-reports by at most
    the one task whose in-flight journal entry still stands (it will be
    re-executed and logged by a survivor).  The union of all logs,
    deduplicated, is the at-least-once oracle's executed set.
    """

    def __init__(self, heap: MpHeap, count: SymWord, buf: SymArray,
                 capacity: int) -> None:
        self._count_w = heap.ref(count)
        self._buf = heap.slice(buf)
        self.capacity = capacity
        self._count = self._count_w.load()

    def append(self, fingerprint: int) -> None:
        if self._count >= self.capacity:
            raise RingOverflowError(
                f"xlog of {self.capacity} entries overflowed"
            )
        self._buf[self._count].store(fingerprint)
        self._count += 1
        self._count_w.store(self._count)

    def read_all(self) -> list[int]:
        count = self._count_w.load()
        if not count:
            return []
        import struct

        return list(struct.unpack(
            f"<{count}Q", self._buf.read_block(0, count)
        ))


class ShmInbox:
    """SPSC re-injection ring: the supervisor posts, one PE drains."""

    def __init__(self, heap: MpHeap, rd: SymWord, wr: SymWord,
                 buf: SymArray, capacity: int, words_per_task: int) -> None:
        self._rd_w = heap.ref(rd)
        self._wr_w = heap.ref(wr)
        self._ring = ShmRing.__new__(ShmRing)  # reuse the record codecs
        self._ring._buf = heap.slice(buf)
        self._ring.capacity = capacity
        self._ring.words_per_task = words_per_task
        self._ring._codec = RecordCodec(words_per_task)
        self.capacity = capacity

    # -- producer (supervisor) ----------------------------------------
    def post(self, tasks) -> None:
        tasks = list(tasks)
        if not tasks:
            return
        rd, wr = self._rd_w.load(), self._wr_w.load()
        if wr - rd + len(tasks) > self.capacity:
            raise RingOverflowError(
                f"inbox of {self.capacity} records cannot take "
                f"{len(tasks)} more (holding {wr - rd})"
            )
        self._ring._write_records(wr, tasks)
        self._wr_w.store(wr + len(tasks))

    def pending(self) -> int:
        return self._wr_w.load_seq() - self._rd_w.load_seq()

    # -- consumer (the PE) --------------------------------------------
    def drain(self) -> list:
        rd = self._rd_w.load_seq()
        wr = self._wr_w.load_seq()
        if wr <= rd:
            return []
        tasks = self._ring._read_records(rd, wr - rd)
        self._rd_w.store(wr)
        return tasks


# ----------------------------------------------------------------------
# Region layout
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CrashRegions:
    """Picklable footprint of all crash-mode shared state for one run.

    Global per-rank word arrays (heartbeat, idle flag, activity counter,
    dead flag, pid) plus a stop word, and per-rank rings / journals /
    intents / xlogs / inboxes.
    """

    npes: int
    words_per_task: int
    ring_cap: int
    xlog_cap: int
    inbox_cap: int
    stop: SymWord
    hb: SymArray
    idle: SymArray
    act: SymArray
    dead: SymArray
    pid: SymArray
    ring_head: tuple[SymWord, ...]
    ring_tail: tuple[SymWord, ...]
    ring_buf: tuple[SymArray, ...]
    inflight_flag: tuple[SymWord, ...]
    inflight_buf: tuple[SymArray, ...]
    intent: tuple[SymArray, ...]
    xlog_cnt: tuple[SymWord, ...]
    xlog_buf: tuple[SymArray, ...]
    inbox_rd: tuple[SymWord, ...]
    inbox_wr: tuple[SymWord, ...]
    inbox_buf: tuple[SymArray, ...]

    @classmethod
    def reserve(cls, heap: MpHeap, npes: int, words_per_task: int,
                ring_cap: int, xlog_cap: int,
                inbox_cap: int) -> "CrashRegions":
        g = SymmetricAllocator(heap, "crash")
        stop = g.word("stop")
        hb = g.array("hb", npes)
        idle = g.array("idle", npes)
        act = g.array("act", npes)
        dead = g.array("dead", npes)
        pid = g.array("pid", npes)
        g.commit()
        per: dict[str, list] = {k: [] for k in (
            "ring_head", "ring_tail", "ring_buf", "inflight_flag",
            "inflight_buf", "intent", "xlog_cnt", "xlog_buf",
            "inbox_rd", "inbox_wr", "inbox_buf",
        )}
        for r in range(npes):
            a = SymmetricAllocator(heap, f"crash{r}")
            per["ring_head"].append(a.word("rhead"))
            per["ring_tail"].append(a.word("rtail"))
            per["ring_buf"].append(a.array("rbuf", ring_cap * words_per_task))
            per["inflight_flag"].append(a.word("iflag"))
            per["inflight_buf"].append(a.array("ibuf", words_per_task))
            per["intent"].append(a.array("intent", 3))
            per["xlog_cnt"].append(a.word("xcnt"))
            per["xlog_buf"].append(a.array("xbuf", xlog_cap))
            per["inbox_rd"].append(a.word("nrd"))
            per["inbox_wr"].append(a.word("nwr"))
            per["inbox_buf"].append(a.array("nbuf", inbox_cap * words_per_task))
            a.commit()
        return cls(
            npes, words_per_task, ring_cap, xlog_cap, inbox_cap,
            stop, hb, idle, act, dead, pid,
            **{k: tuple(v) for k, v in per.items()},
        )

    def bind(self, heap: MpHeap, rank: int) -> "PeRegions":
        return PeRegions(heap, self, rank)


class PeRegions:
    """One rank's bound view of the crash regions (worker or supervisor)."""

    def __init__(self, heap: MpHeap, regions: CrashRegions,
                 rank: int) -> None:
        self.rank = rank
        self.stop = heap.ref(regions.stop)
        self.hb = heap.slice(regions.hb)[rank]
        self.idle = heap.slice(regions.idle)[rank]
        self.act = heap.slice(regions.act)[rank]
        self.dead = heap.slice(regions.dead)
        self.pid = heap.slice(regions.pid)[rank]
        self.ring = ShmRing(
            heap, regions.ring_head[rank], regions.ring_tail[rank],
            regions.ring_buf[rank], regions.ring_cap,
            regions.words_per_task,
        )
        self._iflag = heap.ref(regions.inflight_flag[rank])
        self._ibuf = heap.slice(regions.inflight_buf[rank])
        self._icodec = RecordCodec(regions.words_per_task)
        self._intent = heap.slice(regions.intent[rank])
        self.xlog = ShmXlog(
            heap, regions.xlog_cnt[rank], regions.xlog_buf[rank],
            regions.xlog_cap,
        )
        self.inbox = ShmInbox(
            heap, regions.inbox_rd[rank], regions.inbox_wr[rank],
            regions.inbox_buf[rank], regions.inbox_cap,
            regions.words_per_task,
        )

    # -- in-flight journal --------------------------------------------
    def inflight_write(self, payload) -> None:
        """Journal the record about to execute (payload first, flag last)."""
        self._ibuf.write_block(0, self._icodec.encode([payload]))
        self._iflag.store(1)

    def inflight_clear(self) -> None:
        self._iflag.store(0)

    def inflight_scavenge(self) -> list:
        """Post-mortem: the journaled record, if one was in flight."""
        if not self._iflag.load():
            return []
        wpt = self._icodec.words_per_task
        return self._icodec.decode(self._ibuf.read_block(0, wpt))

    # -- steal intent --------------------------------------------------
    def intent_set(self, victim: int, start: int, count: int) -> None:
        """Durably record a claimed range (range first, victim last)."""
        self._intent[1].store(start)
        self._intent[2].store(count)
        self._intent[0].store(victim + 1)

    def intent_clear(self) -> None:
        self._intent[0].store(0)

    def intent_read(self) -> tuple[int, int, int] | None:
        v = self._intent[0].load()
        if not v:
            return None
        return v - 1, self._intent[1].load(), self._intent[2].load()


# ----------------------------------------------------------------------
# Supervisor-side scavenging
# ----------------------------------------------------------------------

def scavenge_rank(heap: MpHeap, layouts, regions: CrashRegions,
                  rank: int) -> tuple[list, dict[str, int]]:
    """Everything a dead ``rank`` still owed the computation.

    Returns ``(payloads, breakdown)`` where the breakdown counts tasks
    per source (shared queue, ring, in-flight journal, steal intent,
    undrained inbox).  Call only after the rank's process is confirmed
    dead and ``break_dead_leases`` has repaired its stripes.
    """
    pe = regions.bind(heap, rank)
    tasks: list = []
    breakdown: dict[str, int] = {}

    got = layouts[rank].thief(heap).scavenge()
    breakdown["queue"] = len(got)
    tasks.extend(got)

    got = pe.ring.scavenge()
    breakdown["ring"] = len(got)
    tasks.extend(got)

    got = pe.inflight_scavenge()
    breakdown["inflight"] = len(got)
    tasks.extend(got)

    intent = pe.intent_read()
    if intent is not None:
        victim, start, count = intent
        # The claimed range in the victim's buffer is still valid: shim
        # buffers never rewrite published slots (cursors are monotone).
        got = layouts[victim].thief(heap)._read_tasks(start, count)
        breakdown["intent"] = len(got)
        tasks.extend(got)
        pe.intent_clear()
    else:
        breakdown["intent"] = 0

    got = pe.inbox.drain()
    breakdown["inbox"] = len(got)
    tasks.extend(got)
    return tasks, breakdown
