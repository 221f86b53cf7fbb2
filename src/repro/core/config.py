"""Configuration dataclasses for the task-queue implementations."""

from __future__ import annotations

from dataclasses import dataclass, field

from .stealval import StealValEpoch


@dataclass(frozen=True)
class QueueConfig:
    """Shape of a per-PE task queue.

    Attributes
    ----------
    qsize:
        Circular-buffer capacity in task slots.  For the epoch stealval the
        tail field is 19 bits, so ``qsize`` must not exceed ``2**19``.
    task_size:
        Bytes per serialized task record (paper workloads: 32 B BPC,
        48 B UTS; the Fig. 6 microbenchmark also uses 24 B and 192 B).
    max_epochs:
        Live completion epochs for SWS (paper: 2 sufficed to avoid
        acquire-time polling).
    comp_slots:
        Completion-array slots per epoch.  Must be at least the longest
        possible steal-half schedule (21 for a 19-bit allotment); the
        default leaves margin.
    lock_backoff:
        Seconds an SDC thief waits between lock-retry probes.
    damping_threshold:
        asteals overshoot (beyond the schedule length) after which a
        target is demoted to empty-mode when steal damping is enabled.
    sdc_steal:
        SDC thief volume policy: ``"half"`` (Hendler-Shavit steal-half,
        the paper's choice) or ``"one"`` (classic Cilk steal-one) — an
        ablation knob.  SWS volumes are fixed by the stealval schedule.
    sdc_lock_lease:
        Hold deadline (virtual seconds) for the SDC swap-lock, or ``None``
        for the classic unleased protocol.  With a lease, the lock word
        carries the holder's identity plus an acquisition timestamp, and
        any contender may CAS a lock held past the deadline back open —
        the recovery path for a fail-stopped (or wedged) lock holder.
        ``None`` keeps the baseline protocol bit-identical on a reliable
        fabric; under an active fault plan :class:`TaskPool` derives a
        lease from its ``op_timeout``, so setting this is an override.
    steal_fetch_retries:
        How many times a thief re-issues the post-claim block fetch
        after a :class:`~repro.fabric.errors.FabricTimeoutError` before
        abandoning the claimed tasks (they are unreachable if the victim
        died).  Only reached when fault injection is active.
    """

    qsize: int = 4096
    task_size: int = 48
    max_epochs: int = 2
    comp_slots: int = 24
    lock_backoff: float = 0.5e-6
    damping_threshold: int = 4
    sdc_steal: str = "half"
    sdc_lock_lease: float | None = None
    steal_fetch_retries: int = 3

    def __post_init__(self) -> None:
        if self.qsize <= 1:
            raise ValueError(f"qsize must exceed 1, got {self.qsize}")
        if self.qsize > (1 << StealValEpoch.TAIL_BITS):
            raise ValueError(
                f"qsize {self.qsize} exceeds the {StealValEpoch.TAIL_BITS}-bit "
                f"tail field of the epoch stealval"
            )
        if self.task_size <= 0:
            raise ValueError(f"task_size must be positive, got {self.task_size}")
        if not 1 <= self.max_epochs <= StealValEpoch.MAX_EPOCHS:
            raise ValueError(
                f"max_epochs must be in [1, {StealValEpoch.MAX_EPOCHS}], "
                f"got {self.max_epochs}"
            )
        if self.comp_slots < 21:
            raise ValueError(
                f"comp_slots must cover the longest steal schedule (>=21), "
                f"got {self.comp_slots}"
            )
        if self.lock_backoff < 0:
            raise ValueError("lock_backoff must be non-negative")
        if self.damping_threshold < 0:
            raise ValueError("damping_threshold must be non-negative")
        if self.sdc_steal not in ("half", "one"):
            raise ValueError(
                f"sdc_steal must be 'half' or 'one', got {self.sdc_steal!r}"
            )
        if self.sdc_lock_lease is not None and self.sdc_lock_lease <= 0:
            raise ValueError(
                f"sdc_lock_lease must be positive or None, got {self.sdc_lock_lease}"
            )
        if self.steal_fetch_retries < 0:
            raise ValueError("steal_fetch_retries must be non-negative")
