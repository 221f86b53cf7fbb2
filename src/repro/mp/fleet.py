"""The fleet harness: one shared heap, its child processes, one teardown.

Every multiprocess entry point (``run_mp`` in its plain and crash
regimes, ``run_mp_serve``, ``hammer_mp``) has the same lifecycle:
reserve the symmetric heap (one steal queue per PE, a few control words,
optionally regime regions) → freeze → spawn children → collect their
reports → terminate stragglers → join → close → unlink.  :class:`Fleet`
is that lifecycle as a context manager, so the teardown guarantee — no
child outlives the segment, the segment never outlives the call — is
written once, and so is the rule that a child which dies *without*
reporting is noticed within a poll interval and named (rank, pid,
exitcode) instead of hanging the parent for its whole timeout.
"""

from __future__ import annotations

import time
import traceback
from queue import Empty

from ..shmem.heap import SymmetricAllocator
from .atomics import _preferred_context
from .errors import MpStallError
from .heap import MpHeap

#: How long one blocking look at the report queue lasts between two
#: liveness checks of the children.
POLL_S = 0.05


def _child_main(body, rank, heap, args, outq) -> None:
    """Process entry: run ``body`` and report its result or traceback."""
    try:
        outq.put(("ok", rank, body(rank, heap, *args)))
    except Exception:
        outq.put(("error", rank, traceback.format_exc()))


class Fleet:
    """One run's heap, layouts, control words and child processes.

    ``regions`` is an optional ``heap -> object`` callable reserving
    regime-specific regions before the freeze; its result is kept as
    :attr:`regions`.  ``what`` names the run in error messages.
    """

    def __init__(self, what: str, layout_cls, nqueues: int, capacity: int,
                 words_per_task: int = 1, ctl: tuple[str, ...] = (),
                 regions=None) -> None:
        self.what = what
        self.ctx = _preferred_context()
        self.heap = heap = MpHeap(ctx=self.ctx)
        self.layouts = [
            layout_cls.reserve(heap, f"pe{r}", capacity,
                               words_per_task=words_per_task)
            for r in range(nqueues)
        ]
        alloc = SymmetricAllocator(heap, "ctl")
        self.ctl = {name: alloc.word(name) for name in ctl}
        alloc.commit()
        self.regions = regions(heap) if regions is not None else None
        self.outq = self.ctx.Queue()
        self.procs: dict[int, object] = {}
        #: ``(rank, payload)`` of every child that reported success.
        self.reports: list[tuple[int, object]] = []
        self._reported: set[int] = set()
        self.t0 = 0.0
        heap.freeze()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        # Teardown must run even when a child died abnormally: kill any
        # stragglers *before* unlinking so no live mapping outlasts the
        # segment, then destroy it exactly once (unlink is idempotent).
        for p in self.procs.values():
            if p.is_alive():
                p.terminate()
        for p in self.procs.values():
            p.join(timeout=5)
        self.heap.close()
        self.heap.unlink()

    def spawn(self, rank: int, body, *args) -> None:
        """Start ``body(rank, heap, *args)`` as child ``rank`` (a respawn
        replaces the rank's previous, dead, process)."""
        if not self.procs:
            self.t0 = time.perf_counter()
        p = self.ctx.Process(
            target=_child_main,
            args=(body, rank, self.heap, args, self.outq),
            daemon=True,
        )
        p.start()
        self.procs[rank] = p

    def describe(self, rank: int) -> str:
        p = self.procs[rank]
        return f"rank {rank} (pid {p.pid}, exitcode {p.exitcode})"

    def alive(self) -> list[int]:
        return [r for r, p in self.procs.items() if p.is_alive()]

    def drain(self, block_s: float = 0.0) -> None:
        """Move queued child reports into :attr:`reports`, waiting up to
        ``block_s`` for the first; an error report raises."""
        errors = []
        while True:
            try:
                status, rank, payload = self.outq.get(
                    block=block_s > 0, timeout=block_s or None)
            except Empty:
                break
            block_s = 0.0
            self._reported.add(rank)
            if status == "ok":
                self.reports.append((rank, payload))
            else:
                errors.append(f"PE {rank}:\n{payload}")
        if errors:
            raise RuntimeError(f"{self.what} failed:\n" + "\n".join(errors))

    def collect(self, timeout: float, lost_ok: bool = False) -> float:
        """Wait for every child's report, then for its exit.

        Returns the wall time from the first spawn to the last report.
        A child found dead with nothing reported raises at once, naming
        it — unless ``lost_ok`` (crash regime: fail-stops are the point,
        their books come from shared memory).
        """
        deadline = time.monotonic() + timeout
        while True:
            # Liveness first, queue second: a report written before the
            # exit we observed is already in the pipe when we drain.
            gone = {r for r, p in self.procs.items() if not p.is_alive()}
            self.drain(0.0 if len(gone) == len(self.procs) else POLL_S)
            pending = [r for r in self.procs if r not in self._reported]
            lost = [r for r in pending if r in gone]
            if lost and not lost_ok:
                raise MpStallError(
                    f"{self.what}: {self.describe(lost[0])} died without "
                    f"reporting", rank=lost[0])
            if len(lost) == len(pending):
                break
            if time.monotonic() > deadline:
                raise MpStallError(
                    f"{self.what}: no report from ranks "
                    f"{sorted(set(pending) - gone)}",
                    rank=pending[0], waited_s=timeout)
        wall = time.perf_counter() - self.t0
        for r, p in self.procs.items():
            p.join(timeout=max(0.0, deadline - time.monotonic()))
            if p.is_alive():
                raise MpStallError(
                    f"{self.what}: {self.describe(r)} failed to exit "
                    f"after reporting", rank=r, waited_s=timeout)
        return wall
