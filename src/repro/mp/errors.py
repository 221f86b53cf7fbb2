"""Diagnostic errors for the multiprocess substrate.

A wedged cross-process run used to look like a hung pytest job; these
errors carry enough context (rank, stripe, wait time) that a CI timeout
names the suspect instead of just dying.
"""

from __future__ import annotations

from ..threads.protocol import StallTimeout


class MpStallError(StallTimeout):
    """A cross-process wait exceeded its hard wall-clock deadline.

    Raised instead of spinning forever: by the striped-lock acquire path
    when a stripe is not released within ``stall_s``, by a seqlock read
    that sees no clean sample for as long, by the driver's idle loop
    when no progress happens for ``MP_IDLE_STALL_S`` seconds, and by
    ``hammer_mp`` when a thief or the owner wedges.  The message names
    the suspect stripe / rank so the failure is actionable.
    """

    def __init__(self, message: str, *, stripe: int | None = None,
                 rank: int | None = None,
                 waited_s: float | None = None) -> None:
        parts = [message]
        if stripe is not None:
            parts.append(f"stripe={stripe}")
        if rank is not None:
            parts.append(f"rank={rank}")
        if waited_s is not None:
            parts.append(f"waited={waited_s:.1f}s")
        super().__init__(" ".join(parts))
        self.stripe = stripe
        self.rank = rank
        self.waited_s = waited_s


class RingOverflowError(RuntimeError):
    """A serving inbox (:class:`~repro.mp.inbox.ShmInbox`) cannot take a
    post: the feeder retries once its PE has drained."""
