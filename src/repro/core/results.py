"""Shared result types for steal operations."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class StealStatus(Enum):
    """Outcome of one steal attempt."""

    STOLEN = "stolen"          #: claimed and copied ``ntasks`` tasks
    EMPTY = "empty"            #: target had no stealable work
    DISABLED = "disabled"      #: target queue locked / steals disabled
    LOCKED_ABORT = "locked"    #: (SDC) gave up waiting for the queue lock
    TIMEOUT = "timeout"        #: a fabric op timed out before claiming work
    ABANDONED = "abandoned"    #: claimed tasks unreachable (victim died)


@dataclass
class StealResult:
    """What a steal attempt produced.

    ``records`` holds the raw serialized task records copied from the
    victim (empty for unsuccessful attempts).
    """

    status: StealStatus
    victim: int
    ntasks: int = 0
    records: list[bytes] = field(default_factory=list)

    @property
    def success(self) -> bool:
        """True when at least one task was stolen."""
        return self.status is StealStatus.STOLEN and self.ntasks > 0
