"""Core contribution: stealval codecs, steal-half math, and both queues."""

from .config import QueueConfig
from .damping import DampingStats, DampingTracker, TargetMode
from .results import StealResult, StealStatus
from .sdc_queue import SdcQueue, SdcQueueSystem
from .split_queue import SplitQueue, SplitQueueSystem
from .steal_half import (
    max_steals,
    schedule,
    share_half,
    steal_displacement,
    steal_volume,
)
from .stealval import (
    StealValEpoch,
    StealValV1,
    StealViewEpoch,
    StealViewV1,
    max_initial_tasks,
)
from .sws_queue import EpochRecord, SwsQueue, SwsQueueSystem
from .sws_v1_queue import SwsV1Queue, SwsV1QueueSystem
from .task_state import (
    ALLOWED_TRANSITIONS,
    IllegalTransition,
    TaskState,
    TaskStateTracker,
)

__all__ = [
    "QueueConfig",
    "DampingTracker",
    "DampingStats",
    "TargetMode",
    "StealResult",
    "StealStatus",
    "SdcQueue",
    "SdcQueueSystem",
    "SplitQueue",
    "SplitQueueSystem",
    "SwsQueue",
    "SwsQueueSystem",
    "SwsV1Queue",
    "SwsV1QueueSystem",
    "EpochRecord",
    "StealValV1",
    "StealValEpoch",
    "StealViewV1",
    "StealViewEpoch",
    "max_initial_tasks",
    "steal_volume",
    "steal_displacement",
    "max_steals",
    "schedule",
    "share_half",
    "TaskState",
    "TaskStateTracker",
    "IllegalTransition",
    "ALLOWED_TRANSITIONS",
]
