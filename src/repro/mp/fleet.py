"""The fleet harness: one shared heap, its child processes, one teardown.

Every multiprocess entry point (``run_mp``, ``run_mp_serve``,
``hammer_mp``) has the same lifecycle: reserve the symmetric heap (one
steal queue per PE, a few control words) →
freeze → spawn children → collect their reports → terminate stragglers
→ join → close.  :class:`Fleet` is that lifecycle as a context manager,
so the teardown guarantee — no child outlives the call, and with the
last of them the kernel frees the heap's anonymous mapping — is written
once, and so is the rule that a child which dies *without*
reporting is noticed within a poll interval and named (rank, pid,
exitcode) instead of hanging the parent for its whole timeout.
A child reports down a pipe of its own (one ``send``, no feeder thread),
and the parent waits on the pipes and the exit sentinels together.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
import traceback
from multiprocessing.connection import wait

from ..shmem.heap import SymmetricAllocator
from .atomics import _preferred_context
from .errors import MpStallError
from .heap import MpHeap

#: How long one wait on the report pipes and exit sentinels lasts
#: between two liveness checks of the children.
POLL_S = 0.05


#: Linux's ``prctl``: a child asks for SIGKILL when its parent dies.
_PRCTL = getattr(ctypes.CDLL(None), "prctl", None)
_PR_SET_PDEATHSIG = 1


def _child_main(body, rank, heap, args, report, parent) -> None:
    """Process entry: run ``body`` and send its result or traceback down
    the ``report`` pipe.

    A child dies with its parent: a supervisor killed by SIGKILL cannot
    tear its fleet down, so no PE may outlive it (nor keep its mapping).
    """
    if _PRCTL is not None and _PRCTL(_PR_SET_PDEATHSIG, signal.SIGKILL) == 0:
        if os.getppid() != parent:        # it died before the request
            os._exit(1)
    try:
        report.send(("ok", body(rank, heap, *args)))
    except Exception:
        report.send(("error", traceback.format_exc()))


class Fleet:
    """One run's heap, layouts, control words and child processes.

    ``what`` names the run in error messages.
    """

    def __init__(self, what: str, layout_cls, nqueues: int, capacity: int,
                 words_per_task: int = 1, ctl: tuple[str, ...] = ()) -> None:
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
        self.procs: dict[int, object] = {}
        #: rank -> the read end of its report pipe, until it is read.
        self._pipes: dict[int, object] = {}
        #: ``(rank, payload)`` of every child that reported success.
        self.reports: list[tuple[int, object]] = []
        self._reported: set[int] = set()
        self.t0 = 0.0
        heap.freeze()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        # Teardown must run even when a child died abnormally: kill and
        # reap every straggler, then detach; the kernel frees the mapping
        # with its last process.
        for p in self.procs.values():
            if p.is_alive():
                p.terminate()
        for p in self.procs.values():
            p.join(timeout=5)
        for conn in self._pipes.values():
            conn.close()
        self.heap.close()

    def spawn(self, rank: int, body, *args) -> None:
        """Start ``body(rank, heap, *args)`` as child ``rank``."""
        if not self.procs:
            self.t0 = time.perf_counter()
        reader, writer = self.ctx.Pipe(duplex=False)
        self._pipes[rank] = reader
        p = self.ctx.Process(
            target=_child_main,
            args=(body, rank, self.heap, args, writer, os.getpid()),
            daemon=True,
        )
        p.start()
        writer.close()        # the child's exit is now its pipe's EOF
        self.procs[rank] = p

    def describe(self, rank: int) -> str:
        p = self.procs[rank]
        return f"rank {rank} (pid {p.pid}, exitcode {p.exitcode})"

    def drain(self) -> None:
        """Move every report already sent into :attr:`reports`; an error
        report raises."""
        errors = []
        for rank, conn in list(self._pipes.items()):
            if not conn.poll():
                continue
            del self._pipes[rank]
            try:
                status, payload = conn.recv()
            except EOFError:              # died without sending
                continue
            finally:
                conn.close()
            self._reported.add(rank)
            if status == "ok":
                self.reports.append((rank, payload))
            else:
                errors.append(f"PE {rank}:\n{payload}")
        if errors:
            raise RuntimeError(f"{self.what} failed:\n" + "\n".join(errors))

    def collect(self, timeout: float) -> float:
        """Wait for every child's report, then for its exit.

        Returns the wall time from the first spawn to the last report.
        A child found dead with nothing reported raises at once, naming
        it.
        """
        deadline = time.monotonic() + timeout
        while True:
            # Liveness first, pipes second: a report sent before the exit
            # we observed is already in its pipe when we drain.
            gone = {r for r, p in self.procs.items() if not p.is_alive()}
            self.drain()
            pending = [r for r in self.procs if r not in self._reported]
            lost = [r for r in pending if r in gone]
            if lost:
                raise MpStallError(
                    f"{self.what}: {self.describe(lost[0])} died without "
                    f"reporting", rank=lost[0])
            if not pending:
                break
            if time.monotonic() > deadline:
                raise MpStallError(
                    f"{self.what}: no report from ranks "
                    f"{sorted(set(pending) - gone)}",
                    rank=pending[0], waited_s=timeout)
            # Bounded, so a signal (Ctrl-C) lands within POLL_S.
            wait([*self._pipes.values(),
                  *(self.procs[r].sentinel for r in pending)], POLL_S)
        wall = time.perf_counter() - self.t0
        for r, p in self.procs.items():
            p.join(timeout=max(0.0, deadline - time.monotonic()))
            if p.is_alive():
                raise MpStallError(
                    f"{self.what}: {self.describe(r)} failed to exit "
                    f"after reporting", rank=r, waited_s=timeout)
        return wall
