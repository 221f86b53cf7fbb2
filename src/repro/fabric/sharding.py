"""Conservative time-window sharding for the discrete-event fabric.

This module partitions one simulated job's PEs across N *shard* engines
— each with its own :class:`~repro.fabric.engine.CalendarQueue` — and
keeps them causally consistent with the classic conservative
(YAWNS-style) lock-step window protocol:

* every cross-shard one-sided operation is **buffered at the
  originating shard** (:class:`ShardRouter` outbox) instead of being
  scheduled directly;
* between windows a coordinator performs the all-to-all **exchange**:
  buffered messages are enqueued into the destination shard's calendar
  queue at their true arrival ticks, so event ordering within each
  shard stays ``(when, seq)``-exact;
* each shard gets its own conservative bound: shard *i* may run to
  ``min(E_j for j != i) + W``, where ``E_j`` is shard *j*'s earliest
  unexecuted work (next event or undelivered inbound arrival) and the
  window width ``W`` is the hard lookahead lower bound derived from the
  active :class:`~repro.fabric.latency.LatencyModel`
  (:meth:`~repro.fabric.latency.LatencyModel.shard_window_ticks`) —
  never hand-tuned.  Any future cross-shard message targeting *i* is
  sent at some tick >= ``min E_j`` and arrives >= ``send + W``, so no
  shard ever sees a message from its past; quiet shards are simply not
  granted (round-elision) and the shard owning the global floor is no
  longer throttled to it.  Two in-window clamps keep the per-shard
  bound sound where the coordinator cannot see ahead: a parked
  cross-shard fetch clamps its shard's window to ``request_arrival +
  W`` (the earliest tick the response can land), and a fully-parked
  shard barrier clamps to "now" (the release tick is not yet known).

Message taxonomy (see ``docs/sharding.md`` for the full derivation):

* **one-way applies** (puts, non-blocking atomic adds, put-with-signal):
  the initiator's completion tick is a pure function of its own clock in
  the fault-free, non-link-serialized fabric, so the initiator resumes
  locally and only the remote memory effect crosses the boundary, with
  margin ``alpha_sw + one_way``;
* **fetch round trips** (fetch-add/swap/cas/fetch, gets): the request
  crosses with the same margin; the *response* is generated at the
  target's arrival event and crosses back with margin
  ``process + one_way`` — the binding term in ``W``.

Sharded mode is restricted to the fabric the bound is provable for: no
fault injection, no op timeouts, no schedule exploration, no
``link_serialize``, and a latency model with nonzero lookahead.

All shards live in the coordinator's process and are stepped in shard
order by :func:`run_window_loop` — deterministic, no IPC.  A sharded run
is the executable statement of the lookahead argument, not a speedup:
at ~3 events per round (64 PEs, EDR) no transport that pays a process
handoff per round can win, which is why there is none (measurements in
``docs/sharding.md``); multi-core throughput comes from independent
runs under ``repro sweep``'s process pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import ceil, log2
from typing import Any, Callable

from .engine import TICKS_PER_SECOND, Call, Engine, Process
from .errors import DeadlockError, SimulationError
from .latency import LatencyModel
from .nic import WORD_BYTES, Nic

#: Get-op payload opcodes, shared with the NIC's pooled get records.
_GET_WORD, _GET_WORDS, _GET_BYTES = 0, 1, 2


# ======================================================================
# Partitioning
# ======================================================================
class ShardPlan:
    """Contiguous block partition of ``npes`` PEs across ``nshards``.

    ``npes`` need not divide evenly: the remainder is spread one PE at a
    time over the first shards (10 PEs / 4 shards → block sizes
    3, 3, 2, 2), so shard sizes differ by at most one.
    """

    __slots__ = ("npes", "nshards", "_starts", "_owner")

    def __init__(self, npes: int, nshards: int) -> None:
        validate_shards(npes, nshards)
        self.npes = npes
        self.nshards = nshards
        base, rem = divmod(npes, nshards)
        starts = [0]
        for s in range(nshards):
            starts.append(starts[-1] + base + (1 if s < rem else 0))
        self._starts = starts
        owner = [0] * npes
        for s in range(nshards):
            for pe in range(starts[s], starts[s + 1]):
                owner[pe] = s
        self._owner = owner

    def shard_of(self, pe: int) -> int:
        """Owning shard of one PE."""
        return self._owner[pe]

    def pes_of(self, shard: int) -> range:
        """The contiguous PE block owned by one shard."""
        return range(self._starts[shard], self._starts[shard + 1])

    def local_size(self, shard: int) -> int:
        """Number of PEs owned by one shard."""
        return self._starts[shard + 1] - self._starts[shard]


def validate_shards(npes: int, nshards: int) -> None:
    """Up-front validation of a ``--shards``/``--npes`` combination.

    Raises :class:`ValueError` with an actionable message instead of
    letting a bad combination crash mid-run.  Non-divisible counts are
    fine (remainder partitioning); an empty shard is not.
    """
    if npes < 1:
        raise ValueError(f"npes must be >= 1, got {npes}")
    if nshards < 1:
        raise ValueError(f"--shards must be >= 1, got {nshards}")
    if nshards > npes:
        raise ValueError(
            f"--shards {nshards} exceeds --npes {npes}: every shard must "
            f"own at least one PE (use --shards <= {npes})"
        )


def check_shardable(latency: LatencyModel) -> int:
    """Validate a latency model for sharded execution; returns the window.

    The conservative window is only sound when the model guarantees a
    positive lookahead and target-side link occupancy cannot feed back
    into initiator-visible completion times.
    """
    window = latency.shard_window_ticks()
    if window <= 0:
        raise ValueError(
            "sharded execution needs a positive lookahead, but this "
            "latency model's window floor is 0 ticks (zero-latency "
            "models cannot be sharded conservatively)"
        )
    if latency.link_serialize:
        raise ValueError(
            "sharded execution does not support link_serialize=True: "
            "target-link occupancy makes put completion times depend on "
            "remote state, which breaks the initiator-side completion "
            "bound (run with link_serialize=False or --shards 1)"
        )
    return window


def barrier_cost_ticks(latency: LatencyModel, npes: int) -> int:
    """Release latency of the dissemination barrier, in ticks.

    Must match :class:`repro.shmem.api._Barrier` exactly: the release is
    charged ``ceil(log2(P))`` inter-node hops after the last arrival.
    """
    hops = max(1, ceil(log2(max(2, npes))))
    cost = hops * (latency.alpha_sw + latency.half_rtt_inter)
    return round(cost * TICKS_PER_SECOND)


@dataclass(frozen=True)
class ShardBinding:
    """Identity of one shard inside a plan (handed to ``ShmemCtx``)."""

    plan: ShardPlan
    shard_id: int


# ======================================================================
# Router: the NIC's route-to-shard seam
# ======================================================================
class ShardRouter:
    """Cross-shard routing for one shard's NIC.

    Installed as ``nic.router``; the NIC's public op constructors divert
    any op whose target PE lives on another shard through the methods
    below.  Ops are buffered in :attr:`outbox` as plain tuples and
    exchanged at window boundaries; inbound messages are enqueued into
    the local calendar queue at their true arrival ticks by
    :meth:`deliver`.

    Every data message carries its send tick as the final element so the
    property suite (and a curious debugger) can audit the lookahead
    invariant ``delivery_tick >= send_tick + W`` on the wire format
    itself.
    """

    def __init__(self, nic: Nic, plan: ShardPlan, shard_id: int,
                 window_ticks: int = 0) -> None:
        self.nic = nic
        self.plan = plan
        self.shard_id = shard_id
        #: Lookahead W; a parked fetch clamps the running window to
        #: ``request_arrival + W`` — the earliest tick its response can
        #: arrive — so a shard granted a deep window never runs past a
        #: reply it has not received yet.
        self.window_ticks = window_ticks
        #: (dest_shard, message) tuples awaiting the next exchange.
        self.outbox: list[tuple[int, tuple]] = []
        #: op_id -> parked initiator process awaiting a fetch response.
        self._pending: dict[int, Process] = {}
        #: op_id -> request arrival tick, for fetches whose *response*
        #: has not yet been scheduled locally.  The response resumes the
        #: initiator at >= arrival + W (the target processes the request
        #: at its arrival event; the return hop's margin is >= W), so
        #: ``min + W`` is a sound floor on this shard's next activity —
        #: without it the coordinator would read a parked shard's next
        #: *local* event as its earliest work and grant other shards past
        #: the resumption.  Cleared at :meth:`deliver` time, when the
        #: locally scheduled response makes ``next_event_ticks`` exact.
        self._pending_bound: dict[int, int] = {}
        self._op_seq = 0
        #: True for PEs this shard owns (list indexing beats dict here).
        self._local = [plan.shard_of(pe) == shard_id for pe in range(plan.npes)]
        nic.router = self

    def is_local(self, pe: int) -> bool:
        return self._local[pe]

    def drain_outbox(self) -> list[tuple[int, tuple]]:
        """Take every buffered message (called at a window boundary)."""
        out, self.outbox = self.outbox, []
        return out

    def response_floor(self) -> int | None:
        """Earliest tick an un-scheduled fetch response can resume us."""
        if not self._pending_bound:
            return None
        return min(self._pending_bound.values()) + self.window_ticks

    # ------------------------------------------------------------------
    # initiator side: Call factories the NIC diverts to
    # ------------------------------------------------------------------
    def fetch_amo(self, initiator: int, target: int, region: str,
                  offset: int, kind: str, a1: int, a2: int) -> Call:
        """Cross-shard fetching atomic: request out, park until response."""
        def handler(engine: Engine, proc: Process) -> None:
            nic = self.nic
            nic.metrics.record(engine.now, initiator, target, kind, WORD_BYTES)
            proc.blocked_on = f"{kind} -> pe{target} {region}[{offset}] (x-shard)"
            send = engine.now_ticks
            arrival = (send + nic._alpha_ticks
                       + nic._one_way_ticks(initiator, target))
            op_id = self._op_seq
            self._op_seq += 1
            self._pending[op_id] = proc
            self._pending_bound[op_id] = arrival
            self.outbox.append((
                self.plan.shard_of(target),
                ("amo", arrival, initiator, target, region, offset,
                 kind, a1, a2, op_id, self.shard_id, send),
            ))
            engine.clamp_window(arrival + self.window_ticks)

        return Call(handler)

    def get(self, initiator: int, target: int, region: str, offset: int,
            count: int, nbytes: int, opcode: int) -> Call:
        """Cross-shard blocking get: request out, park until response."""
        def handler(engine: Engine, proc: Process) -> None:
            nic = self.nic
            nic.metrics.record(engine.now, initiator, target, "get", nbytes)
            proc.blocked_on = f"get -> pe{target} {region}[{offset}] (x-shard)"
            send = engine.now_ticks
            arrival = (send + nic._alpha_ticks
                       + nic._one_way_ticks(initiator, target))
            op_id = self._op_seq
            self._op_seq += 1
            self._pending[op_id] = proc
            self._pending_bound[op_id] = arrival
            self.outbox.append((
                self.plan.shard_of(target),
                ("get", arrival, initiator, target, region, offset,
                 count, nbytes, opcode, op_id, self.shard_id, send),
            ))
            engine.clamp_window(arrival + self.window_ticks)

        return Call(handler)

    def put(self, initiator: int, target: int, region: str, offset: int,
            payload: Any, is_bytes: bool, blocking: bool) -> Call:
        """Cross-shard put.  In the fault-free non-link-serialized fabric
        the completion tick is a pure function of the initiator's clock
        (``alpha + stream + one_way`` to arrive, ``+ one_way`` for the
        blocking ack), so the initiator schedules its own resume locally
        and only the memory effect crosses the boundary."""
        kind = "put" if blocking else "put_nb"

        def handler(engine: Engine, proc: Process) -> None:
            nic = self.nic
            nbytes = len(payload) * (1 if is_bytes else WORD_BYTES)
            nic.metrics.record(engine.now, initiator, target, kind, nbytes)
            stream = nic._payload_ticks(nbytes)
            inject = nic._alpha_ticks + stream
            send = engine.now_ticks
            arrival = send + inject + nic._one_way_ticks(initiator, target)
            self.outbox.append((
                self.plan.shard_of(target),
                ("put", arrival, target, region, offset, payload,
                 is_bytes, send),
            ))
            if blocking:
                proc.blocked_on = f"put -> pe{target} ({nbytes}B) (x-shard)"
                back = nic._one_way_ticks(target, initiator)
                engine.at_ticks(arrival + back, proc._step0, actor=proc.name)
            else:
                nic._outstanding[initiator] += 1
                engine.at_ticks(arrival, partial(nic._complete_nb, initiator),
                                actor=nic._put_actors[target])
                engine.resume_ticks(proc, None, inject)

        return Call(handler)

    def amo_add_nb(self, initiator: int, target: int, region: str,
                   offset: int, delta: int) -> Call:
        """Cross-shard non-blocking atomic add: applies at arrival on the
        owning shard; the descriptor retires locally at the same tick it
        would on a single engine."""
        def handler(engine: Engine, proc: Process) -> None:
            nic = self.nic
            nic.metrics.record(engine.now, initiator, target,
                               "amo_add_nb", WORD_BYTES)
            nic._outstanding[initiator] += 1
            send = engine.now_ticks
            arrival = (send + nic._alpha_ticks
                       + nic._one_way_ticks(initiator, target))
            self.outbox.append((
                self.plan.shard_of(target),
                ("addnb", arrival, target, region, offset, delta, send),
            ))
            engine.at_ticks(arrival, partial(nic._complete_nb, initiator),
                            actor=nic._amo_actors[target])
            engine.resume_ticks(proc, None, nic._alpha_ticks)

        return Call(handler)

    def put_signal_nb(self, initiator: int, target: int, region: str,
                      offset: int, data: bytes, sig_region: str,
                      sig_offset: int, sig_value: int) -> Call:
        """Cross-shard put-with-signal.

        The payload+signal message crosses once; data lands at arrival
        and the signal store serializes through the *target's* atomic
        unit exactly as on a single engine.  The initiator's descriptor
        retires at the arrival tick — one documented approximation: on a
        single engine it retires at the signal-store tick, up to a few
        ``amo_process`` later under contention, which only a ``quiet()``
        racing that contention could observe.
        """
        def handler(engine: Engine, proc: Process) -> None:
            nic = self.nic
            nbytes = len(data) + WORD_BYTES
            nic.metrics.record(engine.now, initiator, target,
                               "put_signal", nbytes)
            nic._outstanding[initiator] += 1
            inject = nic._alpha_ticks + nic._payload_ticks(nbytes)
            send = engine.now_ticks
            arrival = send + inject + nic._one_way_ticks(initiator, target)
            self.outbox.append((
                self.plan.shard_of(target),
                ("putsig", arrival, target, region, offset, data,
                 sig_region, sig_offset, sig_value, send),
            ))
            engine.at_ticks(arrival, partial(nic._complete_nb, initiator),
                            actor=nic._put_actors[target])
            engine.resume_ticks(proc, None, inject)

        return Call(handler)

    # ------------------------------------------------------------------
    # receiver side: exchange delivery + in-window application
    # ------------------------------------------------------------------
    def deliver(self, messages: list[tuple]) -> None:
        """Enqueue inbound messages at their true arrival ticks.

        Called between windows, messages pre-sorted by the coordinator
        on ``(tick, origin_shard, origin_seq)`` so the fresh engine
        sequence numbers assigned here are deterministic.
        """
        engine = self.nic.engine
        for m in messages:
            if m[0] == "brel":
                self.barrier_release(m[1])
                continue
            if m[0] == "resp":
                # The response now has an exact local event tick; the
                # conservative pending floor is no longer needed.
                self._pending_bound.pop(m[2], None)
            engine.at_ticks(m[1], partial(self._apply, m), actor="xshard")

    #: Hook installed by the shard-aware barrier (shmem layer).
    barrier_release: Callable[[int], None] = staticmethod(lambda tick: None)

    def _apply(self, m: tuple) -> None:
        """Execute one inbound message at its arrival event."""
        nic = self.nic
        engine = nic.engine
        heap = nic.heap
        op = m[0]
        if op == "amo":
            (_, _, initiator, target, region, offset,
             kind, a1, a2, op_id, origin, send) = m
            done = nic._serialize(
                nic._amo_busy_until, target, engine.now_ticks, nic._amo_ticks
            )
            if kind == "amo_fetch_add":
                value = heap.fetch_add(target, region, offset, a1)
            elif kind == "amo_swap":
                value = heap.swap(target, region, offset, a1)
            elif kind == "amo_cas":
                value = heap.compare_swap(target, region, offset, a1, a2)
            else:  # amo_fetch
                value = heap.load(target, region, offset)
            back = nic._one_way_ticks(target, initiator)
            self.outbox.append(
                (origin, ("resp", done + back, op_id, value, engine.now_ticks))
            )
        elif op == "get":
            (_, _, initiator, target, region, offset,
             count, nbytes, opcode, op_id, origin, send) = m
            done = nic._serialize(
                nic._get_busy_until, target, engine.now_ticks, nic._get_ticks
            )
            if opcode == _GET_WORD:
                value = heap.load(target, region, offset)
            elif opcode == _GET_WORDS:
                value = heap.load_words(target, region, offset, count)
            else:
                value = heap.read_bytes(target, region, offset, count)
            back = (nic._one_way_ticks(target, initiator)
                    + nic._payload_ticks(nbytes))
            self.outbox.append(
                (origin, ("resp", done + back, op_id, value, engine.now_ticks))
            )
        elif op == "put":
            _, _, target, region, offset, payload, is_bytes, send = m
            if is_bytes:
                heap.write_bytes(target, region, offset, payload)
            elif len(payload) == 1:
                heap.store(target, region, offset, payload[0])
            else:
                heap.store_words(target, region, offset, list(payload))
        elif op == "addnb":
            _, _, target, region, offset, delta, send = m
            nic._serialize(
                nic._amo_busy_until, target, engine.now_ticks, nic._amo_ticks
            )
            heap.fetch_add(target, region, offset, delta)
        elif op == "putsig":
            (_, _, target, region, offset, data,
             sig_region, sig_offset, sig_value, send) = m
            heap.write_bytes(target, region, offset, data)
            sig_done = nic._serialize(
                nic._amo_busy_until, target, engine.now_ticks, nic._amo_ticks
            )
            store = partial(heap.store, target, sig_region, sig_offset, sig_value)
            if sig_done > engine.now_ticks:
                engine.at_ticks(sig_done, store, actor=nic._amo_actors[target])
            else:
                store()
        elif op == "resp":
            _, _, op_id, value, send = m
            proc = self._pending.pop(op_id)
            engine._step(proc, value)
        else:  # pragma: no cover - wire-format guard
            raise SimulationError(f"unknown cross-shard message {op!r}")

    def diagnostic(self) -> str:
        """Extra context for merged deadlock reports."""
        if not self._pending and not self.outbox:
            return ""
        return (f"  shard {self.shard_id}: {len(self._pending)} fetch(es) "
                f"awaiting cross-shard responses, "
                f"{len(self.outbox)} message(s) buffered")


# ======================================================================
# Shard-aware barrier
# ======================================================================
class ShardBarrier:
    """Job-wide ``barrier_all`` split across shards.

    Each shard parks its local arrivals; the coordinator watches the
    between-window reports and, once every PE in the job is parked,
    broadcasts a release tick of ``max(last arrival) + the dissemination
    release cost`` — the exact tick the single-engine
    :class:`repro.shmem.api._Barrier` resumes at (the cost there is
    charged from the moment the last PE arrives).  The cost is at least
    one ``alpha + inter`` hop, which is >= the window width, so the
    release always lands at or beyond the next window bound.
    """

    __slots__ = ("engine", "local_pes", "_waiting", "_generation",
                 "_last_arrival")

    def __init__(self, engine: Engine, local_pes: int = 0) -> None:
        self.engine = engine
        #: PEs owned by this shard; when all of them are parked the
        #: arrival handler clamps the running window to "now" — the
        #: release tick depends on *other* shards' arrivals the
        #: coordinator has not seen yet, so running trailing events
        #: further could overtake the eventual release.
        self.local_pes = local_pes
        self._waiting: list[Process] = []
        self._generation = 0
        self._last_arrival = 0

    def arrive(self) -> Call:
        def handler(engine: Engine, proc: Process) -> None:
            proc.blocked_on = "barrier_all (sharded)"
            self._waiting.append(proc)
            if engine.now_ticks > self._last_arrival:
                self._last_arrival = engine.now_ticks
            if self.local_pes and len(self._waiting) >= self.local_pes:
                engine.clamp_window(engine.now_ticks)

        return Call(handler)

    def report(self) -> tuple[int, int, int]:
        """(generation, locally parked PEs, last local arrival tick)."""
        return (self._generation, len(self._waiting), self._last_arrival)

    def release(self, tick: int) -> None:
        """Resume every parked PE at ``tick`` (coordinator broadcast)."""
        engine = self.engine
        # An unrelated in-flight completion may have nudged this shard's
        # clock just past the release tick; resuming "now" instead keeps
        # time monotone and is the same rounding a straggler would see.
        when = max(tick, engine.now_ticks)
        waiters, self._waiting = self._waiting, []
        self._generation += 1
        self._last_arrival = 0
        for proc in waiters:
            engine.at_ticks(when, proc._step0, actor=proc.name)


# ======================================================================
# Window-loop coordinator
# ======================================================================
#: "Unbounded" grant sentinel: every other shard is idle-empty, so no
#: future message can target the grantee and it may drain its queue.
INF_TICKS = 1 << 62


@dataclass
class ExchangeStats:
    """Coordinator-side counters for one sharded run.

    ``rounds`` counts coordinator iterations; ``grants`` window grants
    actually made (< rounds * nshards when round-elision skips quiet or
    blocked shards, whose skip count is ``elisions``).
    """

    rounds: int = 0
    grants: int = 0
    elisions: int = 0
    messages: int = 0
    barrier_releases: int = 0

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "grants": self.grants,
            "elisions": self.elisions,
            "messages": self.messages,
            "barrier_releases": self.barrier_releases,
        }


def _deadlock_text(shard: Any) -> str:
    """One shard's section of the merged deadlock report."""
    lines = [shard.engine._deadlock_report()]
    extra = shard.router.diagnostic()
    if extra:
        lines.append(extra)
    return "\n".join(lines)


def run_window_loop(
    shards: list,
    *,
    window_ticks: int,
    npes: int,
    barrier_cost: int,
    trace: list | None = None,
) -> ExchangeStats:
    """Drive shards through conservative windows until global completion.

    A shard is anything exposing ``engine`` (an :class:`Engine`),
    ``router`` (a :class:`ShardRouter`) and ``barrier`` (an object with
    ``report()``); the sharded ``ShmemCtx`` does.

    Per-shard bounds instead of a single global floor: with ``E_j`` =
    shard *j*'s earliest unexecuted work (next event tick, earliest
    undelivered inbound arrival, or :meth:`ShardRouter.response_floor` —
    a lower bound on when a still-in-flight fetch response can resume
    the shard, for which no local event exists yet), shard *i* may run
    to

        ``limit_i = min(E_j for j != i) + W``

    because any message that could still target *i* is sent at or after
    ``min E_j`` and arrives >= ``send + W``.  When every other shard is
    idle-empty the bound is :data:`INF_TICKS` (drain freely).  While a
    barrier is forming (any shard reports parked PEs) the bound is
    additionally capped at ``E_i + barrier_cost`` so no shard's trailing
    events overtake the eventual release tick.  Shards that cannot make
    progress under their bound — and have no pending deliveries — are
    simply not granted this round (round-elision); the shard owning the
    global minimum always can (its bound exceeds its position by >= W),
    so every round grants at least one shard and the loop terminates.

    A round's bounds all derive from one consistent set of ``E`` values:
    every granted shard runs its window before any outbox of the round
    is ingested, so a message sent in round *r* is delivered in round
    *r + 1* at the earliest — at a tick no receiver has run past.

    Returns an :class:`ExchangeStats`.  Raises :class:`DeadlockError`
    (with every shard's report merged) when all queues drain, nothing is
    in flight, and live processes remain.

    ``trace``, when given, receives one record per round::

        {"E": [...], "ran_to": [...], "bound": [...], "limits": {s: L},
         "deliveries": [(dest, opcode, arrival_tick, send_tick), ...],
         "barrier": release_tick | None}

    — the property suite audits the lookahead and grant invariants from
    it (``bound`` is the uncapped conservative bound, ``limits`` what
    was actually granted, ``ran_to`` each shard's high-water mark at the
    start of the round).
    """
    if window_ticks <= 0:
        raise SimulationError(
            f"window width must be positive, got {window_ticks} ticks"
        )
    nshards = len(shards)
    stats = ExchangeStats()
    #: Undelivered messages per destination: (sort_key, msg) with
    #: sort_key = (arrival, origin, per-origin seq) — the deterministic
    #: delivery order.
    inbox: list[list[tuple[tuple, tuple]]] = [[] for _ in range(nshards)]
    origin_seq = [0] * nshards
    #: Per-shard high-water mark: every event with ``when < ran_to[s]``
    #: has executed on shard *s*.  Monotone across rounds.
    ran_to = [0] * nshards

    def ingest(origin: int) -> None:
        out = shards[origin].router.drain_outbox()
        seq = origin_seq[origin]
        for dest, msg in out:
            inbox[dest].append(((msg[1], origin, seq), msg))
            seq += 1
        stats.messages += len(out)
        origin_seq[origin] = seq

    granted: list[int] = list(range(nshards))
    while True:
        for s in granted:
            ingest(s)

        # Barrier: when every PE in the job is parked, release all
        # shards at max(arrival) + the dissemination-release cost — the
        # same tick a single engine's barrier would pick.  The release
        # is injected as a pending delivery, so it participates in every
        # E_j until delivered (bounding other shards to release + W).
        reports = [sh.barrier.report() for sh in shards]
        gen = reports[0][0]
        release: int | None = None
        if (all(r[0] == gen for r in reports)
                and sum(r[1] for r in reports) == npes):
            release = max(r[2] for r in reports) + barrier_cost
            for dest in range(nshards):
                inbox[dest].append(((release, -1, dest), ("brel", release)))
            stats.barrier_releases += 1
        barrier_pending = any(r[1] > 0 for r in reports)

        nxt = [sh.engine.next_event_ticks() for sh in shards]
        E: list[int | None] = []
        # Two smallest E values in one pass: shard i's bound needs
        # min(E_j for j != i), which is min2 when i owns the global
        # minimum and min1 otherwise — no per-shard "others" scan.
        min1 = min2 = None
        argmin = -1
        for s in range(nshards):
            t = nxt[s]
            floor = shards[s].router.response_floor()
            if floor is not None and (t is None or floor < t):
                t = floor
            box = inbox[s]
            if box:
                a = min(key[0] for key, _m in box)
                t = a if t is None or a < t else t
            E.append(t)
            if t is None:
                continue
            if min1 is None or t < min1:
                min2 = min1
                min1 = t
                argmin = s
            elif min2 is None or t < min2:
                min2 = t

        if min1 is None:  # every E is None: nothing anywhere can run
            live = sum(sh.engine.live for sh in shards)
            if live:
                parts = [
                    f"sharded run deadlocked with {live} live process(es) "
                    f"across {nshards} shard(s):"
                ]
                for s, sh in enumerate(shards):
                    parts.append(f"--- shard {s} ---")
                    parts.append(_deadlock_text(sh))
                raise DeadlockError("\n".join(parts))
            return stats

        if trace is not None:
            rec = {
                "E": list(E),
                "ran_to": list(ran_to),
                "bound": [None] * nshards,
                "limits": {},
                "deliveries": [],
                "barrier": release,
            }
        granted = []
        for s in range(nshards):
            o = min2 if s == argmin else min1
            bound = INF_TICKS if o is None else o + window_ticks
            limit = bound
            if barrier_pending and E[s] is not None:
                cap = E[s] + barrier_cost
                if cap < limit:
                    limit = cap
            if trace is not None:
                rec["bound"][s] = bound
            t = nxt[s]
            box = inbox[s]
            if not box and (t is None or limit <= t):
                # Nothing deliverable and nothing executable under the
                # bound: skip the shard entirely this round.
                stats.elisions += 1
                continue
            if limit < ran_to[s]:
                # Delivery-only grant: the shard already ran deeper than
                # today's bound allows (an earlier, wider grant).  Never
                # regress the bound below the high-water mark.
                limit = ran_to[s]
            if box:
                box.sort(key=lambda e: e[0])
                msgs = [m for _k, m in box]
                inbox[s] = []
            else:
                msgs = []
            if trace is not None:
                rec["limits"][s] = limit
                rec["deliveries"].extend(
                    (s, m[0], m[1], m[-1] if m[0] != "brel" else None)
                    for m in msgs
                )
            shard = shards[s]
            shard.router.deliver(msgs)
            shard.engine.run_window(limit)
            # An in-window clamp (parked fetch, fully parked barrier) may
            # stop the window below the granted limit, even below an
            # earlier deeper mark; the high-water mark is what "executed
            # below this" means, so it only ever rises.
            eff = shard.engine.window_ran_to
            if eff > ran_to[s]:
                ran_to[s] = eff
            granted.append(s)
        stats.grants += len(granted)
        stats.rounds += 1
        if trace is not None:
            trace.append(rec)
        if not granted:  # pragma: no cover - progress-proof guard
            raise SimulationError(
                "sharded exchange stalled: no shard eligible for a grant"
            )


# ======================================================================
# Context-level shard group
# ======================================================================
class ShardGroup:
    """N sharded ``ShmemCtx`` instances driven as one logical job.

    The ctx-level entry point: spawn generator processes on the shard
    that owns their PE, then :meth:`run` the lock-step window loop over
    all shards in-process.  Every shard constructs the *same* symmetric
    heap layout (construction is deterministic and identical), so
    ``(pe, region, offset)`` addressing agrees across shards; only the
    owning shard's rows are ever authoritative.
    """

    def __init__(self, npes: int, nshards: int, latency: LatencyModel,
                 **ctx_kwargs: Any) -> None:
        from ..shmem.api import ShmemCtx

        self.plan = ShardPlan(npes, nshards)
        self.latency = latency
        check_shardable(latency)
        self.ctxs = [
            ShmemCtx(npes, latency=latency,
                     shard=ShardBinding(self.plan, s), **ctx_kwargs)
            for s in range(nshards)
        ]
        #: ExchangeStats from the last :meth:`run`.
        self.exchange: ExchangeStats | None = None

    def ctx_of(self, rank: int):
        """The sharded context owning one PE."""
        return self.ctxs[self.plan.shard_of(rank)]

    def spawn(self, rank: int, gen, name: str | None = None) -> Process:
        """Spawn a generator process on the shard owning PE ``rank``."""
        return self.ctx_of(rank).engine.spawn(gen, name=name or f"pe{rank}")

    def run(self, trace: list | None = None) -> float:
        """Run the window loop to completion; returns final seconds.

        The coordinator counters land in :attr:`exchange`.
        """
        self.exchange = run_window_loop(
            self.ctxs,
            window_ticks=self.latency.shard_window_ticks(),
            npes=self.plan.npes,
            barrier_cost=barrier_cost_ticks(self.latency, self.plan.npes),
            trace=trace,
        )
        return max(ctx.engine.now for ctx in self.ctxs)
