"""One-sided RDMA operations over the simulated fabric.

The :class:`Nic` turns OpenSHMEM-style one-sided calls into discrete
events.  A simulated process performs an operation by yielding the request
object the corresponding method returns::

    old = yield nic.amo_fetch_add(me, victim, "stealval", qslot, 1)
    data = yield nic.get_bytes(me, victim, "tasks", off, nbytes)
    yield nic.amo_add_nb(me, victim, "comp", slot, ntasks)
    yield nic.quiet(me)

Timing model (see :mod:`repro.fabric.latency`):

* the initiator always pays ``alpha_sw`` of injection overhead;
* the message reaches the target after a one-way wire latency (payload
  bytes additionally stream at ``beta`` seconds/byte);
* **atomics and gets execute at the target at arrival time**, serialized
  through a per-target NIC unit (``amo_process`` / ``get_process`` of
  occupancy each).  The event queue's global time order therefore defines
  the serialization order of racing atomics — the same guarantee a real
  HCA's atomic unit provides;
* fetching ops resume the initiator one more one-way latency later (plus
  payload streaming for gets);
* non-blocking ops (``put_nb``, ``amo_add_nb``) resume the initiator after
  the injection overhead only; :meth:`quiet` blocks until every
  outstanding non-blocking op from that PE has been applied remotely.

All internal time arithmetic is in the engine's integer ticks: the latency
constants are converted once at construction, per-op completion times are
exact integer sums, and the per-target busy-until arrays hold ticks.  With
jitter enabled the jittered one-way latency is computed in float and
rounded to the nearest tick per hop.

Fault model (see :mod:`repro.fabric.faults`): when a
:class:`~repro.fabric.faults.FaultInjector` is attached, every op may be
dropped, delayed, or lost against a dead PE's memory.  Blocking calls
additionally honour ``op_timeout``: if the result has not returned within
that many virtual seconds the NIC *cancels the descriptor* — the op is
guaranteed never to be applied afterwards — and raises
:class:`~repro.fabric.errors.FabricTimeoutError` in the initiator, so a
retry can never double-apply.  An op that was already applied when its
timer fires simply completes late.  With no injector and no timeout the
scheduling paths below are exactly the fault-free ones — zero extra
events, bit-identical runs.

Every operation is tallied in :class:`~repro.fabric.metrics.FabricMetrics`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from .engine import TICKS_PER_SECOND, Call, Engine, Process
from .errors import FabricTimeoutError, SimulationError
from .latency import LatencyModel, TieredLatencyModel
from .memory import SymmetricHeap
from .metrics import FabricMetrics, OpRecord
from .topology import Topology, TieredTopology

if TYPE_CHECKING:
    from .faults import FaultInjector

WORD_BYTES = 8

_U64 = (1 << 64) - 1


class _QuietWait:
    """One parked quiet() caller (identity-compared for timeout cancel)."""

    __slots__ = ("proc", "timer")

    def __init__(self, proc: Process) -> None:
        self.proc = proc
        #: Timeout-timer handle, cancelled when the quiet resumes.
        self.timer: Any = None


#: Free-list cap per operation pool.  Generous versus the realistic
#: number of in-flight ops (bounded by live PEs), tiny in absolute terms.
_POOL_MAX = 1024


class _PooledOp(Call):
    """Pooled record for one fault-free blocking round trip.

    The fig7 hot path issues hundreds of thousands of fetch-amos and
    gets; the closure-based implementation allocated a handler closure,
    an at-target closure, a resume closure, a ``blocked_on`` description
    string and a Call object per op.  This record replaces all of them:
    it *is* the Call (handler pre-bound to :meth:`_start`), carries the
    op operands in ``__slots__``, renders its description lazily (only a
    deadlock report ever formats it), and returns to the owning NIC's
    free list at resume time.  Only the unguarded path (no fault
    injector, no op timeout) uses pooled records — the guarded path
    keeps the closure implementation and its descriptor-cancel
    semantics.

    Issue and resume are the same for every round trip and live here;
    a subclass is its operands plus :meth:`_at_target`, which reads the
    tick clock and serializes on the target's unit inline
    (:meth:`Nic._serialize` without the frame).
    """

    __slots__ = ("nic", "initiator", "target", "region", "offset", "kind",
                 "nbytes", "proc", "value", "back", "_pool", "_actors",
                 "_cb_at_target", "_cb_resume")

    def __init__(self, nic: "Nic", pool: list, actors: list[str]) -> None:
        self.nic = nic
        self.handler = self._start
        self.args = ()
        self._pool = pool
        self._actors = actors
        # Bound-method callbacks created once per record, not per op.
        self._cb_at_target = self._at_target
        self._cb_resume = self._resume
        self.proc = None
        self.value = None

    def _start(self, engine: Engine, proc: Process) -> None:
        nic = self.nic
        initiator = self.initiator
        target = self.target
        nbytes = self.nbytes
        # Metrics tally inlined (record() validates the kind and converts
        # the clock to float seconds — both wasted on pooled ops).
        metrics = nic.metrics
        metrics.ops_by_pe[initiator][self.kind] += 1
        metrics.bytes_by_pe[initiator] += nbytes
        if metrics.trace_enabled:
            metrics.trace.append(
                OpRecord(engine.now, initiator, target, self.kind, nbytes)
            )
        proc.blocked_on = self
        self.proc = proc
        if nic._ow_dynamic:
            ow = nic._one_way_ticks(initiator, target)
        else:
            # A pure function of the node pair, the same both ways: the
            # return leg reuses it.  Index 0 inter-node, 1 intra, 2 self.
            ppn = nic._ppn
            ow = self.back = nic._ow_ticks[
                (initiator == target) + (initiator // ppn == target // ppn)
            ]
        engine.at_ticks(
            engine._now + nic._alpha_ticks + ow,
            self._cb_at_target, actor=self._actors[target],
        )

    def _resume(self) -> None:
        proc = self.proc
        value = self.value
        self.proc = None
        self.value = None
        pool = self._pool
        if len(pool) < _POOL_MAX:
            pool.append(self)
        self.nic.engine._step(proc, value)


class _FetchAmoOp(_PooledOp):
    """One blocking fetching atomic (operands ``a1`` / ``a2``)."""

    __slots__ = ("a1", "a2")

    def __init__(self, nic: "Nic") -> None:
        super().__init__(nic, nic._amo_pool, nic._amo_actors)
        self.nbytes = WORD_BYTES

    def __repr__(self) -> str:
        return f"{self.kind} -> pe{self.target} {self.region}[{self.offset}]"

    def _at_target(self) -> None:
        nic = self.nic
        engine = nic.engine
        target = self.target
        busy = nic._amo_busy_until
        done = busy[target]
        if done < engine._now:
            done = engine._now
        busy[target] = done = done + nic._amo_ticks
        heap = nic.heap
        kind = self.kind
        if kind == "amo_fetch_add":
            value = heap.fetch_add(target, self.region, self.offset, self.a1)
        elif kind == "amo_swap":
            value = heap.swap(target, self.region, self.offset, self.a1)
        elif kind == "amo_cas":
            value = heap.compare_swap(
                target, self.region, self.offset, self.a1, self.a2
            )
        else:  # amo_fetch
            value = heap.load(target, self.region, self.offset)
        self.value = value
        back = (
            nic._one_way_ticks(target, self.initiator)
            if nic._ow_dynamic else self.back
        )
        engine.at_ticks(done + back, self._cb_resume, actor=self.proc.name)


#: _GetOp payload opcodes.
_GET_WORD, _GET_WORDS, _GET_BYTES = 0, 1, 2


class _GetOp(_PooledOp):
    """One blocking get (``count`` words or bytes, by ``opcode``)."""

    __slots__ = ("count", "opcode")

    def __init__(self, nic: "Nic") -> None:
        super().__init__(nic, nic._get_pool, nic._get_actors)
        self.kind = "get"

    def __repr__(self) -> str:
        if self.opcode == _GET_WORD:
            return f"get -> pe{self.target} {self.region}[{self.offset}]"
        suffix = "B" if self.opcode == _GET_BYTES else ""
        return (f"get -> pe{self.target} "
                f"{self.region}[{self.offset}:{self.offset + self.count}]{suffix}")

    def _at_target(self) -> None:
        nic = self.nic
        engine = nic.engine
        target = self.target
        busy = nic._get_busy_until
        done = busy[target]
        if done < engine._now:
            done = engine._now
        busy[target] = done = done + nic._get_ticks
        heap = nic.heap
        opcode = self.opcode
        if opcode == _GET_WORD:
            value = heap.load(target, self.region, self.offset)
        elif opcode == _GET_WORDS:
            value = heap.load_words(target, self.region, self.offset, self.count)
        else:
            value = heap.read_bytes(target, self.region, self.offset, self.count)
        self.value = value
        stream = round(self.nbytes * nic._beta_fs)
        back = (
            nic._one_way_ticks(target, self.initiator)
            if nic._ow_dynamic else self.back
        )
        if nic._link_serialize:
            # The response payload occupies the target's egress link;
            # concurrent bulk reads of one victim serialize.
            done = nic._serialize(nic._link_busy_until, target, done, stream)
        else:
            back += stream
        engine.at_ticks(done + back, self._cb_resume, actor=self.proc.name)


class Nic:
    """Simulated RDMA network interface shared by all PEs."""

    def __init__(
        self,
        engine: Engine,
        heap: SymmetricHeap,
        topology: Topology,
        latency: LatencyModel,
        metrics: FabricMetrics | None = None,
        jitter_seed: int = 0,
        faults: FaultInjector | None = None,
        op_timeout: float | None = None,
    ) -> None:
        if heap.npes != topology.npes:
            raise SimulationError(
                f"heap has {heap.npes} PEs but topology has {topology.npes}"
            )
        if op_timeout is not None and op_timeout <= 0:
            raise SimulationError(f"op_timeout must be positive, got {op_timeout}")
        self.engine = engine
        self.heap = heap
        self.topology = topology
        self.latency = latency
        self.metrics = metrics or FabricMetrics(heap.npes)
        #: Active fault injector, or None for a perfectly reliable fabric.
        self.faults = faults
        #: Per-op timeout for blocking calls and quiet(); None disables.
        self.op_timeout = op_timeout
        #: Timeouts fired so far (descriptors cancelled).
        self.timeouts = 0
        npes = heap.npes
        # Per-target serialization points for the NIC atomic and read
        # units, in integer ticks.
        self._amo_busy_until = [0] * npes
        self._get_busy_until = [0] * npes
        # Per-PE link (DMA engine) occupancy, used when link_serialize is on.
        self._link_busy_until = [0] * npes
        # Outstanding non-blocking ops per initiator, for quiet().
        self._outstanding = [0] * npes
        self._quiet_waiters: dict[int, list[_QuietWait]] = {}
        # Deterministic jitter stream: counter hashed with the seed, so a
        # given (seed, op sequence) always reproduces the same delays.
        self._jitter_seed = jitter_seed
        self._jitter_counter = 0
        # Latency constants in ticks, converted once: per-op arithmetic
        # is pure integer addition after this.
        lat = latency
        self._alpha_ticks = round(lat.alpha_sw * TICKS_PER_SECOND)
        self._amo_ticks = round(lat.amo_process * TICKS_PER_SECOND)
        self._get_ticks = round(lat.get_process * TICKS_PER_SECOND)
        # One-way latency by relation of the PE pair, indexed
        # ``(a == b) + (same node)``: 0 inter-node, 1 intra-node, 2 self.
        self._ow_ticks = [
            round(lat.one_way(False) * TICKS_PER_SECOND),
            round(lat.one_way(True) * TICKS_PER_SECOND),
            round(lat.half_rtt_intra * lat.local_penalty * TICKS_PER_SECOND),
        ]
        self._beta_fs = lat.beta * TICKS_PER_SECOND  # payload fs per byte
        self._jitter_on = bool(lat.jitter)
        # Tiered mode: a four-level one-way table indexed by the
        # topology's socket/node/rack tier.  Requires both a tiered
        # latency model and a tiered topology; otherwise the classic
        # two-level intra/inter table applies and nothing here changes.
        tiered = isinstance(lat, TieredLatencyModel) and isinstance(
            topology, TieredTopology
        )
        if tiered:
            self._tier_ticks: list[int] | None = [
                round(lat.one_way_tier(t) * TICKS_PER_SECOND) for t in range(4)
            ]
            self._tier_of = topology.tier
            self._ow_ticks[2] = round(
                lat.half_rtt_socket * lat.local_penalty * TICKS_PER_SECOND
            )
        else:
            self._tier_ticks = None
            self._tier_of = None
        # Pooled ops take the table-lookup fast path only when the
        # one-way latency is a pure function of the node pair; jitter and
        # tiering both route through _one_way_ticks instead.
        self._ow_dynamic = self._jitter_on or tiered
        self._link_serialize = lat.link_serialize
        self._timeout_ticks = (
            None if op_timeout is None
            else round(op_timeout * TICKS_PER_SECOND)
        )
        self._ppn = topology.pes_per_node
        # Pre-rendered actor names (schedule-exploration tags); building
        # these per op would be an f-string on every message.
        self._amo_actors = [f"nic.amo:pe{p}" for p in range(npes)]
        self._get_actors = [f"nic.get:pe{p}" for p in range(npes)]
        self._put_actors = [f"nic.put:pe{p}" for p in range(npes)]
        self._timer_actors = [f"timer:pe{p}" for p in range(npes)]
        # Free lists of pooled op records (fault-free blocking path only).
        self._amo_pool: list[_FetchAmoOp] = []
        self._get_pool: list[_GetOp] = []
        engine.diagnostics.append(self._deadlock_diagnostic)

    # ------------------------------------------------------------------
    # latency helpers
    # ------------------------------------------------------------------
    def _one_way_ticks(self, a: int, b: int) -> int:
        if not self._jitter_on:
            if self._tier_ticks is not None and a != b:
                return self._tier_ticks[self._tier_of(a, b)]
            ppn = self._ppn
            return self._ow_ticks[(a == b) + (a // ppn == b // ppn)]
        lat = self.latency
        if a == b:
            if self._tier_ticks is not None:
                base = lat.half_rtt_socket * lat.local_penalty
            else:
                base = lat.half_rtt_intra * lat.local_penalty
        elif self._tier_ticks is not None:
            base = lat.one_way_tier(self._tier_of(a, b))
        else:
            base = lat.one_way(a // self._ppn == b // self._ppn)
        # splitmix64-style hash of (seed, counter) -> u in [0, 1).
        self._jitter_counter += 1
        z = (self._jitter_seed * 0x9E3779B97F4A7C15 + self._jitter_counter
             * 0xBF58476D1CE4E5B9) & _U64
        z ^= z >> 31
        z = (z * 0x94D049BB133111EB) & _U64
        z ^= z >> 29
        u = z / float(1 << 64)
        base *= 1.0 + lat.jitter * u
        return round(base * TICKS_PER_SECOND)

    def _payload_ticks(self, nbytes: int) -> int:
        return round(nbytes * self._beta_fs)

    def _serialize(self, busy: list[int], target: int, arrival: int, cost: int) -> int:
        """Queue behind the target NIC unit; return completion tick there."""
        start = busy[target]
        if start < arrival:
            start = arrival
        done = start + cost
        busy[target] = done
        return done

    # ------------------------------------------------------------------
    # fault helpers
    # ------------------------------------------------------------------
    def _fault_route(self, target: int, kind: str, arrival: int) -> tuple[int, bool]:
        """Consult the injector for one op; returns (arrival_ticks, lost).

        A lost op never executes at the target: either the wire dropped
        it or the target PE is dead when it would arrive (the failure
        schedule is static, so arrival-time death is decided now).
        """
        faults = self.faults
        arrival += round(faults.extra_delay() * TICKS_PER_SECOND)
        if faults.should_drop(kind):
            return arrival, True
        if faults.is_dead(target, arrival / TICKS_PER_SECOND):
            faults.note_dead_target(kind)
            return arrival, True
        return arrival, False

    def _arm_timeout(
        self, engine: Engine, proc: Process, state: dict,
        initiator: int, target: int, kind: str,
    ) -> None:
        """Schedule the descriptor-cancel timer for one blocking op."""
        deadline = engine.now_ticks + self._timeout_ticks

        def fire() -> None:
            if proc.finished or state["applied"] or state["dead"]:
                return
            state["dead"] = True  # cancel: the op will never be applied
            self.timeouts += 1
            if self.faults is not None:
                self.faults.note_timeout(kind)
            engine.throw(
                proc,
                FabricTimeoutError(
                    f"{kind} from PE {initiator} to PE {target} timed out "
                    f"after {self.op_timeout:.3g}s",
                    initiator=initiator, target=target, kind=kind,
                ),
            )

        # The handle lets the completion path retire the timer instead of
        # letting it fire as a dead no-op event.
        state["timer"] = engine.at_ticks(
            deadline, fire, actor=self._timer_actors[initiator]
        )

    def _deadlock_diagnostic(self) -> str:
        """Extra context for DeadlockError: outstanding ops per PE."""
        lines = []
        for pe, n in enumerate(self._outstanding):
            waiting = len(self._quiet_waiters.get(pe, ()))
            if n or waiting:
                lines.append(
                    f"  nic: PE {pe} has {n} outstanding non-blocking op(s) "
                    f"and {waiting} quiet() waiter(s)"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # fetching atomics (blocking round trip)
    # ------------------------------------------------------------------
    def amo_fetch_add(self, initiator: int, target: int, region: str, offset: int, delta: int) -> Call:
        """Atomic fetch-and-add on a remote 64-bit word; yields the old value."""
        if self.faults is None and self._timeout_ticks is None:
            return self._pooled_amo(initiator, target, region, offset,
                                    "amo_fetch_add", delta, 0)
        return self._fetch_amo(initiator, target, region, offset, "amo_fetch_add",
                               lambda: self.heap.fetch_add(target, region, offset, delta))

    def amo_swap(self, initiator: int, target: int, region: str, offset: int, value: int) -> Call:
        """Atomic swap on a remote word; yields the old value."""
        if self.faults is None and self._timeout_ticks is None:
            return self._pooled_amo(initiator, target, region, offset,
                                    "amo_swap", value, 0)
        return self._fetch_amo(initiator, target, region, offset, "amo_swap",
                               lambda: self.heap.swap(target, region, offset, value))

    def amo_cas(self, initiator: int, target: int, region: str, offset: int,
                expected: int, desired: int) -> Call:
        """Atomic compare-and-swap; yields the old value."""
        if self.faults is None and self._timeout_ticks is None:
            return self._pooled_amo(initiator, target, region, offset,
                                    "amo_cas", expected, desired)
        return self._fetch_amo(initiator, target, region, offset, "amo_cas",
                               lambda: self.heap.compare_swap(target, region, offset, expected, desired))

    def amo_fetch(self, initiator: int, target: int, region: str, offset: int) -> Call:
        """Atomic read of a remote word (steal-damping probe); yields the value."""
        if self.faults is None and self._timeout_ticks is None:
            return self._pooled_amo(initiator, target, region, offset,
                                    "amo_fetch", 0, 0)
        return self._fetch_amo(initiator, target, region, offset, "amo_fetch",
                               lambda: self.heap.load(target, region, offset))

    def _pooled_amo(self, initiator: int, target: int, region: str, offset: int,
                    kind: str, a1: int, a2: int) -> "_FetchAmoOp":
        """Check a record out of the free list and load its operands."""
        pool = self._amo_pool
        rec = pool.pop() if pool else _FetchAmoOp(self)
        rec.initiator = initiator
        rec.target = target
        rec.region = region
        rec.offset = offset
        rec.kind = kind
        rec.a1 = a1
        rec.a2 = a2
        return rec

    def _fetch_amo(self, initiator: int, target: int, region: str, offset: int,
                   kind: str, apply: Callable[[], int]) -> Call:
        def handler(engine: Engine, proc: Process) -> None:
            self.metrics.record(engine.now, initiator, target, kind, WORD_BYTES)
            proc.blocked_on = f"{kind} -> pe{target} {region}[{offset}]"
            arrival = (engine.now_ticks + self._alpha_ticks
                       + self._one_way_ticks(initiator, target))
            guarded = self.faults is not None or self.op_timeout is not None
            state = {"applied": False, "dead": False} if guarded else None
            lost = False
            if self.faults is not None:
                arrival, lost = self._fault_route(target, kind, arrival)

            def at_target() -> None:
                if state is not None:
                    if state["dead"]:
                        return  # descriptor cancelled by the timeout
                    state["applied"] = True
                    timer = state.get("timer")
                    if timer is not None:
                        engine.cancel(timer)
                done = self._serialize(
                    self._amo_busy_until, target, engine.now_ticks, self._amo_ticks
                )
                value = apply()
                back = self._one_way_ticks(target, initiator)
                engine.at_ticks(done + back, lambda: engine._step(proc, value),
                                actor=proc.name)

            if not lost:
                engine.at_ticks(arrival, at_target, actor=self._amo_actors[target])
            if self.op_timeout is not None:
                self._arm_timeout(engine, proc, state, initiator, target, kind)

        return Call(handler)

    # ------------------------------------------------------------------
    # non-blocking atomic (completion signalling)
    # ------------------------------------------------------------------
    def amo_add_nb(self, initiator: int, target: int, region: str, offset: int, delta: int) -> Call:
        """Non-blocking atomic add; initiator resumes after injection only."""

        def handler(engine: Engine, proc: Process) -> None:
            self.metrics.record(engine.now, initiator, target, "amo_add_nb", WORD_BYTES)
            self._outstanding[initiator] += 1
            arrival = (engine.now_ticks + self._alpha_ticks
                       + self._one_way_ticks(initiator, target))
            lost = False
            if self.faults is not None:
                arrival, lost = self._fault_route(target, "amo_add_nb", arrival)

            def at_target() -> None:
                self._serialize(
                    self._amo_busy_until, target, engine.now_ticks, self._amo_ticks
                )
                self.heap.fetch_add(target, region, offset, delta)
                self._complete_nb(initiator)

            if lost:
                # The descriptor still retires locally (in error), so
                # quiet() completes; the remote word never changes.
                engine.at_ticks(arrival, lambda: self._complete_nb(initiator),
                                actor=self._amo_actors[target])
            else:
                engine.at_ticks(arrival, at_target, actor=self._amo_actors[target])
            engine.resume_ticks(proc, None, self._alpha_ticks)

        return Call(handler)

    # ------------------------------------------------------------------
    # gets (blocking)
    # ------------------------------------------------------------------
    def get_words(self, initiator: int, target: int, region: str, offset: int, count: int) -> Call:
        """Blocking read of consecutive remote words; yields list[int]."""
        if self.faults is None and self._timeout_ticks is None:
            return self._pooled_get(initiator, target, region, offset, count,
                                    count * WORD_BYTES, _GET_WORDS)
        return self._get(initiator, target, count * WORD_BYTES,
                         lambda: self.heap.load_words(target, region, offset, count),
                         f"get -> pe{target} {region}[{offset}:{offset + count}]")

    def get_word(self, initiator: int, target: int, region: str, offset: int) -> Call:
        """Blocking read of one remote word; yields int."""
        if self.faults is None and self._timeout_ticks is None:
            return self._pooled_get(initiator, target, region, offset, 1,
                                    WORD_BYTES, _GET_WORD)
        return self._get(initiator, target, WORD_BYTES,
                         lambda: self.heap.load(target, region, offset),
                         f"get -> pe{target} {region}[{offset}]")

    def get_bytes(self, initiator: int, target: int, region: str, offset: int, count: int) -> Call:
        """Blocking read of remote bytes; yields bytes."""
        if self.faults is None and self._timeout_ticks is None:
            return self._pooled_get(initiator, target, region, offset, count,
                                    count, _GET_BYTES)
        return self._get(initiator, target, count,
                         lambda: self.heap.read_bytes(target, region, offset, count),
                         f"get -> pe{target} {region}[{offset}:{offset + count}]B")

    def _pooled_get(self, initiator: int, target: int, region: str, offset: int,
                    count: int, nbytes: int, opcode: int) -> "_GetOp":
        """Check a get record out of the free list and load its operands."""
        pool = self._get_pool
        rec = pool.pop() if pool else _GetOp(self)
        rec.initiator = initiator
        rec.target = target
        rec.region = region
        rec.offset = offset
        rec.count = count
        rec.nbytes = nbytes
        rec.opcode = opcode
        return rec

    def _get(self, initiator: int, target: int, nbytes: int,
             read: Callable[[], Any], desc: str = "") -> Call:
        def handler(engine: Engine, proc: Process) -> None:
            self.metrics.record(engine.now, initiator, target, "get", nbytes)
            proc.blocked_on = desc or f"get -> pe{target} ({nbytes}B)"
            arrival = (engine.now_ticks + self._alpha_ticks
                       + self._one_way_ticks(initiator, target))
            guarded = self.faults is not None or self.op_timeout is not None
            state = {"applied": False, "dead": False} if guarded else None
            lost = False
            if self.faults is not None:
                arrival, lost = self._fault_route(target, "get", arrival)

            def at_target() -> None:
                if state is not None:
                    if state["dead"]:
                        return
                    state["applied"] = True
                    timer = state.get("timer")
                    if timer is not None:
                        engine.cancel(timer)
                done = self._serialize(
                    self._get_busy_until, target, engine.now_ticks, self._get_ticks
                )
                value = read()
                stream = self._payload_ticks(nbytes)
                if self._link_serialize:
                    # The response payload occupies the target's egress
                    # link; concurrent bulk reads of one victim serialize.
                    done = self._serialize(
                        self._link_busy_until, target, done, stream
                    )
                    back = self._one_way_ticks(target, initiator)
                else:
                    back = self._one_way_ticks(target, initiator) + stream
                engine.at_ticks(done + back, lambda: engine._step(proc, value),
                                actor=proc.name)

            if not lost:
                engine.at_ticks(arrival, at_target, actor=self._get_actors[target])
            if self.op_timeout is not None:
                self._arm_timeout(engine, proc, state, initiator, target, "get")

        return Call(handler)

    # ------------------------------------------------------------------
    # puts
    # ------------------------------------------------------------------
    def put_word(self, initiator: int, target: int, region: str, offset: int, value: int) -> Call:
        """Blocking write of one remote word (acked round trip)."""
        return self._put(initiator, target, WORD_BYTES, blocking=True,
                         write=lambda: self.heap.store(target, region, offset, value))

    def put_words(self, initiator: int, target: int, region: str, offset: int, values: list[int]) -> Call:
        """Blocking write of consecutive remote words."""
        return self._put(initiator, target, len(values) * WORD_BYTES, blocking=True,
                         write=lambda: self.heap.store_words(target, region, offset, values))

    def put_bytes_nb(self, initiator: int, target: int, region: str, offset: int, data: bytes) -> Call:
        """Non-blocking write of remote bytes (complete after quiet)."""
        return self._put(initiator, target, len(data), blocking=False,
                         write=lambda: self.heap.write_bytes(target, region, offset, data))

    def put_word_nb(self, initiator: int, target: int, region: str, offset: int, value: int) -> Call:
        """Non-blocking write of one remote word."""
        return self._put(initiator, target, WORD_BYTES, blocking=False,
                         write=lambda: self.heap.store(target, region, offset, value))

    def _put(self, initiator: int, target: int, nbytes: int, blocking: bool,
             write: Callable[[], None]) -> Call:
        kind = "put" if blocking else "put_nb"

        def handler(engine: Engine, proc: Process) -> None:
            self.metrics.record(engine.now, initiator, target, kind, nbytes)
            stream = self._payload_ticks(nbytes)
            inject = self._alpha_ticks + stream
            arrival = (engine.now_ticks + inject
                       + self._one_way_ticks(initiator, target))
            lost = False
            if self.faults is not None:
                arrival, lost = self._fault_route(target, kind, arrival)

            def apply_write() -> int:
                """Write at the target, honouring link occupancy."""
                now = engine.now_ticks
                if self._link_serialize and stream > 0:
                    done = self._serialize(
                        self._link_busy_until, target, now, stream
                    )
                else:
                    done = now
                if done > now:
                    engine.at_ticks(done, write, actor=self._put_actors[target])
                else:
                    write()
                return done

            if blocking:
                proc.blocked_on = f"put -> pe{target} ({nbytes}B)"
                guarded = self.faults is not None or self.op_timeout is not None
                state = {"applied": False, "dead": False} if guarded else None

                def at_target() -> None:
                    if state is not None:
                        if state["dead"]:
                            return
                        state["applied"] = True
                        timer = state.get("timer")
                        if timer is not None:
                            engine.cancel(timer)
                    done = apply_write()
                    back = self._one_way_ticks(target, initiator)
                    engine.at_ticks(done + back, proc._step0, actor=proc.name)

                if not lost:
                    engine.at_ticks(arrival, at_target,
                                    actor=self._put_actors[target])
                if self.op_timeout is not None:
                    self._arm_timeout(engine, proc, state, initiator, target, kind)
            else:
                self._outstanding[initiator] += 1

                def at_target_nb() -> None:
                    done = apply_write()
                    if done > engine.now_ticks:
                        engine.at_ticks(done, lambda: self._complete_nb(initiator),
                                        actor=self._put_actors[target])
                    else:
                        self._complete_nb(initiator)

                if lost:
                    engine.at_ticks(arrival, lambda: self._complete_nb(initiator),
                                    actor=self._put_actors[target])
                else:
                    engine.at_ticks(arrival, at_target_nb,
                                    actor=self._put_actors[target])
                engine.resume_ticks(proc, None, inject)

        return Call(handler)

    def put_signal_nb(
        self,
        initiator: int,
        target: int,
        region: str,
        offset: int,
        data: bytes,
        sig_region: str,
        sig_offset: int,
        sig_value: int,
    ) -> Call:
        """Non-blocking put-with-signal (OpenSHMEM 1.5 ``put_signal``).

        The payload and the signal word travel as one message: at arrival
        the payload lands through the target's link (occupying it when
        ``link_serialize`` is on, exactly like every other put) and the
        fused signal store then executes in the target's atomic unit
        (``amo_process`` of serialized occupancy, like every other
        atomic), strictly after the payload — so a consumer observing
        the signal is guaranteed to see the data.  Replaces a
        put + quiet + atomic triple with a single communication.
        """

        def handler(engine: Engine, proc: Process) -> None:
            nbytes = len(data) + WORD_BYTES
            self.metrics.record(engine.now, initiator, target, "put_signal", nbytes)
            self._outstanding[initiator] += 1
            inject = self._alpha_ticks + self._payload_ticks(nbytes)
            arrival = (engine.now_ticks + inject
                       + self._one_way_ticks(initiator, target))
            lost = False
            if self.faults is not None:
                arrival, lost = self._fault_route(target, "put_signal", arrival)

            stream = self._payload_ticks(len(data))

            def at_target() -> None:
                now = engine.now_ticks
                if self._link_serialize and stream > 0:
                    data_done = self._serialize(
                        self._link_busy_until, target, now, stream
                    )
                else:
                    data_done = now

                def apply_data() -> None:
                    self.heap.write_bytes(target, region, offset, data)

                if data_done > now:
                    engine.at_ticks(data_done, apply_data,
                                    actor=self._put_actors[target])
                else:
                    apply_data()
                # The signal queues behind the payload in the atomic unit;
                # _serialize guarantees sig_done >= data_done, and equal
                # times fire in insertion order — data always first.
                sig_done = self._serialize(
                    self._amo_busy_until, target, data_done, self._amo_ticks
                )

                def apply_signal() -> None:
                    self.heap.store(target, sig_region, sig_offset, sig_value)
                    self._complete_nb(initiator)

                if sig_done > engine.now_ticks:
                    engine.at_ticks(sig_done, apply_signal,
                                    actor=self._amo_actors[target])
                else:
                    apply_signal()

            if lost:
                engine.at_ticks(arrival, lambda: self._complete_nb(initiator),
                                actor=self._put_actors[target])
            else:
                engine.at_ticks(arrival, at_target,
                                actor=self._put_actors[target])
            engine.resume_ticks(proc, None, inject)

        return Call(handler)

    # ------------------------------------------------------------------
    # completion / ordering
    # ------------------------------------------------------------------
    def quiet(self, pe: int) -> Call:
        """Block until all outstanding non-blocking ops from ``pe`` applied.

        With ``op_timeout`` set, a quiet that has not drained within the
        timeout raises :class:`FabricTimeoutError` instead of blocking
        forever (outstanding descriptors keep draining in the background).
        """
        def handler(engine: Engine, proc: Process) -> None:
            if self._outstanding[pe] == 0:
                engine.resume(proc, None)
                return
            proc.blocked_on = f"quiet({self._outstanding[pe]} outstanding)"
            entry = _QuietWait(proc)
            self._quiet_waiters.setdefault(pe, []).append(entry)
            if self._timeout_ticks is not None:
                def fire() -> None:
                    waiters = self._quiet_waiters.get(pe)
                    if not waiters or entry not in waiters or proc.finished:
                        return
                    waiters.remove(entry)
                    if not waiters:
                        del self._quiet_waiters[pe]
                    self.timeouts += 1
                    if self.faults is not None:
                        self.faults.note_timeout("quiet")
                    engine.throw(
                        proc,
                        FabricTimeoutError(
                            f"quiet on PE {pe} timed out with "
                            f"{self._outstanding[pe]} op(s) outstanding",
                            initiator=pe, target=pe, kind="quiet",
                        ),
                    )

                entry.timer = engine.at_ticks(
                    engine.now_ticks + self._timeout_ticks, fire,
                    actor=self._timer_actors[pe]
                )

        return Call(handler)

    def _complete_nb(self, initiator: int) -> None:
        outstanding = self._outstanding
        outstanding[initiator] -= 1
        if outstanding[initiator] < 0:
            raise SimulationError("non-blocking completion underflow")
        if outstanding[initiator] == 0 and self._quiet_waiters:
            for entry in self._quiet_waiters.pop(initiator, []):
                if entry.timer is not None:
                    self.engine.cancel(entry.timer)
                self.engine.resume(entry.proc, None)

    def pending_ops(self, pe: int) -> int:
        """Outstanding non-blocking operations issued by ``pe``."""
        return self._outstanding[pe]
