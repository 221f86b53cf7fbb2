"""Communication accounting for the fabric.

Every one-sided operation the NIC performs is tallied here, per initiating
PE and per operation kind.  The Figure-2 reproduction (steal communication
counts) is literally a read-out of these counters around a single steal,
so the bookkeeping is intentionally explicit rather than sampled.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

#: Operation kinds tracked by the NIC.
OP_KINDS = (
    "put",
    "put_nb",
    "put_signal",
    "get",
    "amo_fetch_add",
    "amo_add_nb",
    "amo_swap",
    "amo_cas",
    "amo_fetch",
)

#: Kinds that block the initiator until a round trip completes.
BLOCKING_KINDS = frozenset(
    {"put", "get", "amo_fetch_add", "amo_swap", "amo_cas", "amo_fetch"}
)

#: Set form of OP_KINDS for O(1) validation in the per-op hot path.
_OP_KIND_SET = frozenset(OP_KINDS)


@dataclass
class OpRecord:
    """One fabric operation, for fine-grained audits."""

    time: float
    initiator: int
    target: int
    kind: str
    nbytes: int


class FabricMetrics:
    """Counters for one-sided traffic, with optional per-op audit trace."""

    def __init__(self, npes: int, trace: bool = False) -> None:
        self.npes = npes
        self.ops_by_pe: list[Counter] = [Counter() for _ in range(npes)]
        self.bytes_by_pe: list[int] = [0] * npes
        self.trace_enabled = trace
        self.trace: list[OpRecord] = []
        #: Open-system serving events (arrival injections and sheds).
        #: Empty for closed-batch runs, so their snapshots stay
        #: byte-identical to pre-serving archives.
        self.serving: Counter = Counter()

    def record_serving(self, event: str, count: int = 1) -> None:
        """Tally one serving-frontend event (injected or shed)."""
        self.serving[event] += count

    def record(
        self, time: float, initiator: int, target: int, kind: str, nbytes: int
    ) -> None:
        """Tally one operation issued by ``initiator`` against ``target``."""
        if kind not in _OP_KIND_SET:
            raise ValueError(f"unknown op kind {kind!r}")
        self.ops_by_pe[initiator][kind] += 1
        self.bytes_by_pe[initiator] += nbytes
        if self.trace_enabled:
            self.trace.append(OpRecord(time, initiator, target, kind, nbytes))

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def total_ops(self, kind: str | None = None) -> int:
        """Total operations across all PEs, optionally filtered by kind."""
        if kind is None:
            return sum(sum(c.values()) for c in self.ops_by_pe)
        return sum(c[kind] for c in self.ops_by_pe)

    def total_blocking_ops(self) -> int:
        """Total blocking (round-trip) operations across all PEs."""
        return sum(
            n for c in self.ops_by_pe for k, n in c.items() if k in BLOCKING_KINDS
        )

    def total_bytes(self) -> int:
        """Total payload bytes moved."""
        return sum(self.bytes_by_pe)

    def ops_of_pe(self, pe: int) -> Counter:
        """Counter of operations issued by one PE."""
        return self.ops_by_pe[pe]

    def snapshot(self) -> dict[str, int]:
        """Aggregate counts by kind plus totals, as a plain dict."""
        agg: Counter = Counter()
        for c in self.ops_by_pe:
            agg.update(c)
        out = {k: agg.get(k, 0) for k in OP_KINDS}
        out["total"] = sum(agg.values())
        out["blocking"] = self.total_blocking_ops()
        out["bytes"] = self.total_bytes()
        for event, n in sorted(self.serving.items()):
            if n:
                out[f"serving_{event}"] = n
        return out

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Difference between the current snapshot and a prior one."""
        now = self.snapshot()
        return {k: now[k] - before.get(k, 0) for k in now}
