"""Process-pool PE driver: end-to-end workloads across real processes.

Each PE is a real OS process owning one mp stealval queue in the shared
symmetric heap; idle PEs steal from victims with steal-half volumes and
(for SWS) the paper's §4.3 damping state machine, exactly as the
simulated runtime does — but here the interleavings come from the
kernel scheduler across address spaces, not from a discrete-event loop.

Workloads:

* ``synthetic`` — a flat bag of ``ntasks`` independent tasks seeded on
  PE 0; every other PE starts empty, so all load balance comes from
  stealing.
* ``uts`` — an Unbalanced Tree Search over a named SHA-1 tree
  (:mod:`repro.workloads.uts`); tasks are 20-byte node states packed
  into 4 shared words, children are enqueued locally and shared on
  demand.

Termination uses two global counters (``created`` / ``completed``) with
the monotone argument: ``completed <= created`` always, and reading
``completed`` *before* ``created`` makes an observed equality stable —
every created task has executed, nothing is in flight.  Both counters
are booked in batches, because the local store belongs to its owner
alone: a PE counts the children it spawns and books them with one
``fetch_add`` before any task leaves the store (a share-out) and before
it books its completions (when the store drains).  So every completion
on the books is of a task on the books, and a child not yet booked
descends from a task this PE ran since its last drain — booked, its
completion still pending — which keeps ``completed`` strictly below
``created`` while such a child exists.

Steal attempts are classified with the simulator's own
:class:`repro.core.results.StealStatus`, and per-PE stats aggregate into
:class:`MpRunResult` whose ``summary()`` feeds the sweep runner and the
``python -m repro mp`` subcommand.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import struct
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

from ..capabilities import check
from ..core.damping import DampingTracker
from ..core.results import StealStatus
from ..shmem.heap import SymmetricAllocator
from ..threads.protocol import Backoff
from ..workloads.uts.params import get_tree
from ..workloads.uts.sha1_rng import _TWO31
from ..workloads.uts.tree import TreeType, UtsParams, expand, geo_log1mp_table
from .errors import MpStallError, RingOverflowError
from .fleet import Fleet
from .queue import LAYOUTS

# The crash regime (``faults``, ``recovery``) is imported by the branch of
# ``run_mp`` that a plan switches on, and the serving inbox by
# ``run_mp_serve``: always in the parent, before the first PE is forked,
# so a plain run compiles neither and no PE loop ever imports.
if TYPE_CHECKING:
    from .faults import CrashPlan
    from .recovery import ShmInbox

_U64 = (1 << 64) - 1

#: Local-queue size below which a PE does not bother sharing.
RELEASE_MIN = 4

#: Hard deadline on a PE's idle wait with no global progress: pre-lease
#: deadlocks fail fast with a diagnostic instead of hanging the job.
MP_IDLE_STALL_S = 120.0

#: Completion-wait deadline in crash mode, after which the owner checks
#: for (and voids) claims held by dead thieves.
CRASH_SETTLE_S = 2.0

#: Consecutive stable supervisor sweeps required to declare quiescence.
STABLE_SWEEPS = 3


def _mix64(x: int) -> int:
    """Splitmix64 finalizer: an order-independent task fingerprint."""
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return (x ^ (x >> 31)) & _U64


# ----------------------------------------------------------------------
# Task codecs: workload payloads <-> tuples of 64-bit words
# ----------------------------------------------------------------------

#: A UTS node's 20-byte SHA-1 state as its first three task words; the
#: fourth is the depth, with the root flag at bit 32.
UTS_STATE = struct.Struct("<QQI")
_DEPTH_MASK = 0xFFFFFFFF


def encode_uts(state: bytes, depth: int, is_root: bool) -> tuple[int, int, int, int]:
    """Pack a UTS node (20-byte SHA-1 state + depth + root flag) into 4 words."""
    return UTS_STATE.unpack(state) + (depth | (int(is_root) << 32),)


def _fp_uts(words) -> int:
    return _mix64(words[0] ^ words[2])


def synthetic_expected(ntasks: int) -> tuple[int, int]:
    """(node count, xor-of-fingerprints) for the flat synthetic bag."""
    chk = 0
    for i in range(ntasks):
        chk ^= _mix64(i)
    return ntasks, chk


def uts_expected(params: UtsParams, max_nodes: int | None = 2_000_000) -> tuple[int, int]:
    """(node count, xor-of-fingerprints) via a sequential DFS oracle."""
    count = 0
    chk = 0
    stack: list[tuple[bytes, int, bool]] = [(params.root(), 0, True)]
    while stack:
        state, depth, is_root = stack.pop()
        count += 1
        if max_nodes is not None and count > max_nodes:
            raise RuntimeError(f"tree exceeded max_nodes={max_nodes}")
        chk ^= _fp_uts(encode_uts(state, depth, is_root))
        for c in expand(params, state, depth, is_root):
            stack.append((c, depth + 1, False))
    return count, chk


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------

@dataclass
class MpPeStats:
    """One PE process's accounting for a run."""

    rank: int
    executed: int = 0
    checksum: int = 0
    steals: dict = field(default_factory=dict)      # StealStatus.value -> count
    steal_volumes: list = field(default_factory=list)
    probes: int = 0
    probe_aborts: int = 0
    demotions: int = 0
    promotions: int = 0
    releases: int = 0
    acquires: int = 0

    @property
    def tasks_stolen(self) -> int:
        return sum(self.steal_volumes)


@dataclass
class MpRunResult:
    """Aggregate outcome of one multiprocess run."""

    workload: str
    impl: str
    npes: int
    seed: int
    created: int
    completed: int
    wall_s: float
    pes: list[MpPeStats] = field(default_factory=list)
    expected_executed: int | None = None
    expected_checksum: int | None = None
    # -- crash-mode (at-least-once) accounting -------------------------
    #: True when a CrashPlan was active: tasks may legitimately execute
    #: more than once, and the oracle becomes duplicate-aware.
    at_least_once: bool = False
    crashed_ranks: list[int] = field(default_factory=list)
    respawned_ranks: list[int] = field(default_factory=list)
    #: Tasks recovered from dead PEs, by source (queue/ring/inflight/...).
    scavenged: dict = field(default_factory=dict)
    #: Stripe lease breaks performed across the whole run.
    lease_breaks: int = 0
    #: Wall time spent detecting deaths, repairing and re-injecting.
    recovery_wall_s: float = 0.0
    #: Distinct tasks executed (xlog union) and their xor fingerprint.
    executed_unique: int | None = None
    unique_checksum: int | None = None
    #: multiplicity -> how many distinct tasks ran that many times.
    multiplicity: dict = field(default_factory=dict)

    @property
    def total_executed(self) -> int:
        return sum(p.executed for p in self.pes)

    @property
    def checksum(self) -> int:
        chk = 0
        for p in self.pes:
            chk ^= p.checksum
        return chk

    @property
    def total_steals(self) -> int:
        return sum(
            p.steals.get(StealStatus.STOLEN.value, 0) for p in self.pes
        )

    @property
    def conserved(self) -> bool:
        """No task lost, as far as the books can tell.

        Exactly-once runs require the full counter/checksum equalities.
        At-least-once (crash) runs require the *deduplicated* executed
        set to match the sequential oracle exactly — every task ran at
        least once (``executed >= expected`` follows), and the xor over
        distinct fingerprints reconciles; duplicates are legitimate.
        """
        if self.at_least_once:
            ok = True
            if self.expected_executed is not None:
                ok = (
                    self.executed_unique == self.expected_executed
                    and self.total_executed >= self.expected_executed
                )
            if self.expected_checksum is not None:
                ok = ok and self.unique_checksum == self.expected_checksum
            return ok
        ok = self.created == self.completed == self.total_executed
        if self.expected_executed is not None:
            ok = ok and self.total_executed == self.expected_executed
        if self.expected_checksum is not None:
            ok = ok and self.checksum == self.expected_checksum
        return ok

    def steal_volume_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for p in self.pes:
            for v in p.steal_volumes:
                hist[v] = hist.get(v, 0) + 1
        return dict(sorted(hist.items()))

    def summary(self) -> dict:
        """Flat JSON-ready record (sweep payload / CLI output)."""
        out = {
            "workload": self.workload,
            "impl": self.impl,
            "npes": self.npes,
            "seed": self.seed,
            "created": self.created,
            "completed": self.completed,
            "executed": self.total_executed,
            "conserved": self.conserved,
            "steals": self.total_steals,
            "tasks_stolen": sum(p.tasks_stolen for p in self.pes),
            "wall_s": round(self.wall_s, 4),
        }
        if self.at_least_once:
            out.update({
                "at_least_once": True,
                "crashed_ranks": list(self.crashed_ranks),
                "respawned_ranks": list(self.respawned_ranks),
                "executed_unique": self.executed_unique,
                "duplicates": (
                    None if self.executed_unique is None
                    else self.total_executed - self.executed_unique
                ),
                "multiplicity": dict(self.multiplicity),
                "scavenged": dict(self.scavenged),
                "lease_breaks": self.lease_breaks,
                "recovery_wall_s": round(self.recovery_wall_s, 4),
            })
        return out


# ----------------------------------------------------------------------
# The PE process body: one loop, three regimes
#
# Everything around the protocol — pop, execute, share, acquire, steal
# sweep, termination read — is written once in ``_pe_loop``.  A regime
# changes a handful of seams, bound *once* before the loop into a
# ``_Regime`` record (regime × seam table: docs/backends.md): plain runs
# keep a private deque and balance created/completed; crash runs keep a
# journaled shared-memory ring, log every execution and stop on the
# supervisor's word; serving runs drain an arrival inbox.
# ----------------------------------------------------------------------

class _Regime(NamedTuple):
    """The seams one regime binds into the PE loop."""

    #: Local task store: a ``deque`` or a crash-mode :class:`ShmRing`
    #: (truth-tested, ``len``-ed and ``extend``-ed by the loop directly).
    local: object
    pop: Callable            # () -> newest task (crash: journaled first)
    take_left: Callable      # n -> the n oldest tasks, to share out
    settle: Callable         # (batch, pushed): finish a share-out
    execute: Callable        # payload -> child payloads
    fingerprint: Callable    # payload -> 64-bit fingerprint
    finished: Callable       # () -> bool, asked only when starved
    inbox: Callable | None = None       # () -> tasks posted to this PE
    after_task: Callable | None = None  # (fingerprint): post-execute hook
    on_wake: Callable | None = None     # a starved PE found work
    victim_ok: Callable | None = None   # victim rank -> worth a steal?
    extras: Callable | None = None      # () -> extra report fields


def _uts_execute(params: UtsParams) -> Callable:
    """A UTS node's task body: its words in, its children's words out.

    GEO trees draw the child count through the per-depth table, exactly
    as :func:`~repro.workloads.uts.tree.num_children` does, and hash a
    child's state only when there is one; BIN trees run the reference
    :func:`~repro.workloads.uts.tree.expand`.
    """
    pack, unpack = UTS_STATE.pack, UTS_STATE.unpack
    if params.tree_type is not TreeType.GEO:
        def execute(payload):
            w0, w1, w2, w3 = payload
            depth = w3 & _DEPTH_MASK
            child = (depth + 1,)
            return [unpack(c) + child for c in
                    expand(params, pack(w0, w1, w2), depth, w3 >> 32)]

        return execute

    table = geo_log1mp_table(params)
    horizon = len(table)
    be32 = struct.Struct(">I")          # the draw, and a child's index
    draw, index = be32.unpack_from, be32.pack
    sha1, log = hashlib.sha1, math.log

    def execute(payload):
        w0, w1, w2, w3 = payload
        depth = w3 & _DEPTH_MASK
        if depth >= horizon:
            return ()
        log1mp = table[depth]
        if log1mp == 0.0:
            return ()
        state = pack(w0, w1, w2)
        n = int(log(1.0 - (draw(state)[0] & 0x7FFFFFFF) / _TWO31) / log1mp)
        if not n:
            return ()
        child = (depth + 1,)
        return [unpack(sha1(state + index(i)).digest()) + child
                for i in range(n)]

    return execute


def _bind_workload(kind, arg):
    """(rank-0 seed tasks, execute, fingerprint) for a workload spec."""
    if kind == "synthetic":
        return range(arg), (lambda payload: ()), _mix64
    if kind == "uts":
        return ([encode_uts(arg.root(), 0, True)], _uts_execute(arg),
                _fp_uts)
    raise ValueError(f"unknown workload {kind!r}")


def _deque_store(local: deque):
    """(local, pop, take_left, settle) over a private deque."""
    popleft, appendleft = local.popleft, local.appendleft

    def take_left(n):
        return [popleft() for _ in range(n)]

    def settle(batch, pushed):
        for payload in reversed(batch[pushed:]):
            appendleft(payload)              # buffer full: keep the rest

    return local, local.pop, take_left, settle


def _books_balanced(heap, ctl):
    """The monotone termination read: ``completed`` *before* ``created``."""
    created = heap.ref(ctl["created"])
    completed = heap.ref(ctl["completed"])

    def balanced() -> bool:
        done = completed.load_seq()
        return done == created.load_seq()

    return balanced


def _bind_plain(rank, heap, layouts, ctl, owner, thieves, wl):
    seed_tasks, execute, fingerprint = _bind_workload(*wl)
    local = deque(seed_tasks if rank == 0 else ())
    return _Regime(*_deque_store(local), execute, fingerprint,
                   _books_balanced(heap, ctl))


def _bind_crash(rank, heap, layouts, ctl, owner, thieves, wl,
                injector, regions, fresh):
    """Crash regime (CrashPlan active).

    The private deque moves into a shared-memory ring, every execution
    is journaled and fingerprint-logged, and termination is supervisor
    -led (stop word) because created/completed cannot be exactly
    reconciled once a crash has lost batched completions or double
    -created children.
    """
    owner.stall_s = CRASH_SETTLE_S
    pe = regions.bind(heap, rank)
    pe.pid.store(os.getpid())
    ring = pe.ring
    die_at_steal = [False]

    def _mk_intent(victim):
        def _intent(start, count):
            pe.intent_set(victim, start, count)
            if die_at_steal[0]:
                injector.die()       # mid-steal: claim won, loot not copied
        return _intent

    for v, thief in thieves.items():
        thief.arm_crash(_mk_intent(v))

    seed_tasks, execute, fingerprint = _bind_workload(*wl)
    if rank == 0 and fresh:
        ring.extend(seed_tasks)

    def pop():
        payload = ring.peek_right()
        pe.inflight_write(payload)    # journal before the pop: a
        ring.drop_right()             # crash here duplicates, at worst
        return payload

    # A respawn inherits the corpse's flag word; start from a known one.
    pe.idle.store(0)
    idle_state = [0]

    def set_idle(flag: int) -> None:
        if idle_state[0] != flag:
            idle_state[0] = flag
            pe.idle.store(flag)

    def bumper(word):
        count = [word.load()]      # a respawn carries on from the corpse

        def bump() -> None:
            count[0] += 1
            word.store(count[0])
        return bump

    bump_act, heartbeat = bumper(pe.act), bumper(pe.hb)
    lock_index = heap.index(layouts[rank].lock_word)

    def after_task(fp) -> None:
        heartbeat()
        pe.xlog.append(fp)
        bump_act()
        pe.inflight_clear()
        point = injector.maybe_die()
        if point == "steal":
            die_at_steal[0] = True    # next winning claim dies mid-copy
        elif point == "lock":
            heap.words.die_holding(lock_index)

    def on_wake() -> None:
        bump_act()
        set_idle(0)
        pe.intent_clear()        # loot (if any) durable: intent retired

    def finished() -> bool:
        heartbeat()
        set_idle(1)
        return bool(pe.stop.load_seq())

    return _Regime(
        ring, pop, ring.peek_left_block,
        # Only after the republish drop the shared-out records: a crash
        # before this point duplicates them (scavenger + steal queue),
        # never loses.
        lambda batch, pushed: ring.drop_left(pushed),
        execute, fingerprint, finished,
        inbox=pe.inbox.drain, after_task=after_task, on_wake=on_wake,
        victim_ok=lambda v: not pe.dead[v].load_seq(),
    )


def _bind_serve(rank, heap, layouts, ctl, owner, thieves,
                inbox_regions, slo_ns):
    """Serving regime: records are ``(seq, post_ns)``; executing one is
    sketching its post→execute latency."""
    from ..runtime.stats import QuantileSketch

    sketch = QuantileSketch()
    slo_attained = [0]

    def execute(payload):
        lat = time.monotonic_ns() - payload[1]
        sketch.add(lat)
        if slo_ns and lat <= slo_ns:
            slo_attained[0] += 1
        return ()

    closed = heap.ref(ctl["closed"])
    balanced = _books_balanced(heap, ctl)
    return _Regime(
        *_deque_store(deque()), execute, lambda payload: _mix64(payload[0]),
        lambda: bool(closed.load_seq()) and balanced(),
        inbox=_serve_inbox(heap, inbox_regions[rank]).drain,
        extras=lambda: {"serve_sketch": sketch.to_dict(),
                        "serve_slo_attained": slo_attained[0]},
    )


def _pe_loop(rank, heap, layouts, ctl, seed, damping, bind,
             *bind_args) -> dict:
    """One PE: execute local tasks, share on demand, steal when starved."""
    npes = len(layouts)
    created = heap.ref(ctl["created"])
    completed = heap.ref(ctl["completed"])
    owner = layouts[rank].owner(heap)
    thieves = {
        v: layouts[v].thief(heap) for v in range(npes) if v != rank
    }
    victims = sorted(thieves)
    rng = random.Random((seed * 1_000_003) ^ rank)
    # Only a protocol that damps ever consults the tracker.
    tracker = DampingTracker(npes, enabled=damping)
    stats = MpPeStats(rank=rank)
    (local, pop, take_left, settle, execute, fingerprint, finished, inbox,
     after_task, on_wake, victim_ok, extras) = bind(
        rank, heap, layouts, ctl, owner, thieves, *bind_args)
    extend = local.extend
    # Whatever release / acquire re-absorb lands straight in the store.
    owner.owner_kept = local
    # Owner-local metadata inspection runs after every executed task, off
    # the stripe locks the thieves' claims are hammering.
    shared_has_work = owner.has_work
    capacity = owner.capacity

    def share_out() -> None:
        batch = take_left(len(local) // 2)
        pushed = owner.push_all(batch)
        if pushed:
            owner.release(pushed)        # absorbs the previous remainder
            stats.releases += 1
        settle(batch, pushed)

    def try_steal_from(victim: int) -> bool:
        status, claimed = thieves[victim].try_steal(tracker, victim)
        if status is None:
            return False                     # probe said empty: no AMO spent
        stats.steals[status.value] = stats.steals.get(status.value, 0) + 1
        if claimed:
            stats.steal_volumes.append(len(claimed))
            extend(claimed)
            return True
        return False

    def _idle_stall() -> bool:
        # Repair any dead-holder stripes first; if nothing was stuck on
        # a corpse, this is a genuine livelock — name the rank and die.
        if heap.words.break_dead_leases():
            return True
        raise MpStallError("PE idle loop made no progress", rank=rank,
                           waited_s=MP_IDLE_STALL_S)

    # Both books are batched: ``born`` counts the children spawned and
    # ``done_pending`` the tasks run since the last flush.  ``born`` is
    # flushed first at both flush points — before a share-out publishes
    # anything, and before ``done_pending`` when the store drains — so
    # (i) no task reaches a thief, or completes on the books, before it
    # is on the books itself: ``completed <= created`` holds; and (ii) a
    # child not yet booked descends from a task this PE ran since its
    # last drain, which is booked and whose completion is still pending:
    # the books cannot balance while such a child exists.
    executed = checksum = born = done_pending = 0
    idle = Backoff(sleep_s=1e-5, max_sleep_s=1e-3,
                   deadline_s=MP_IDLE_STALL_S, on_deadline=_idle_stall)
    while True:
        if local:
            payload = pop()
            children = execute(payload)
            if children:
                born += len(children)
                extend(children)
            fp = fingerprint(payload)
            executed += 1
            checksum ^= fp
            done_pending += 1
            if after_task is not None:
                after_task(fp)
            if (len(local) >= RELEASE_MIN and owner.nfilled < capacity
                    and not shared_has_work()):
                if born:
                    created.fetch_add(born)
                    born = 0
                share_out()
            continue
        if born:
            created.fetch_add(born)
            born = 0
        if done_pending:
            completed.fetch_add(done_pending)
            done_pending = 0
        # Starved.  In turn, while still empty: tasks posted to our
        # inbox, our own shared remainder, a steal sweep over the
        # victims in a fresh random order.
        if inbox is not None:
            extend(inbox())
        if not local:
            owner.acquire()
            stats.acquires += 1
        if not local:
            order = rng.sample(victims, len(victims))
            if victim_ok is not None:
                order = [v for v in order if victim_ok(v)]
            for v in order:
                if try_steal_from(v):
                    break
        if local:
            if on_wake is not None:
                on_wake()
            idle.reset()
            continue
        # Nothing anywhere: has the run ended?
        if finished():
            break
        idle.wait()

    stats.executed = executed
    stats.checksum = checksum
    stats.probes = tracker.stats.probes
    stats.probe_aborts = tracker.stats.probe_aborts
    stats.demotions = tracker.stats.demotions
    stats.promotions = tracker.stats.promotions
    report = stats.__dict__
    if extras is not None:
        report.update(extras())
    return report


# ----------------------------------------------------------------------
# The parent-side runners
# ----------------------------------------------------------------------

def _pe_stats(reports, dead_pes=()) -> list[MpPeStats]:
    """Per-PE stats by rank; a dead incarnation sorts before its respawn."""
    return sorted(
        [*dead_pes, *(MpPeStats(**payload) for _, payload in reports)],
        key=lambda s: s.rank)


def run_mp(
    workload: str = "synthetic",
    impl: str = "sws",
    npes: int = 4,
    *,
    ntasks: int = 2000,
    tree: str | UtsParams = "test_tiny",
    seed: int = 0,
    damping: bool = True,
    capacity: int | None = None,
    verify: bool = False,
    join_timeout: float = 120.0,
    crash: CrashPlan | None = None,
) -> MpRunResult:
    """Run one workload end-to-end across ``npes`` real processes.

    With ``verify=True`` the expected node count and checksum are
    computed by a sequential oracle and attached to the result, making
    ``result.conserved`` a zero-lost / zero-duplicated proof.

    With an active ``crash`` plan the run switches to the crash-tolerant
    regime: shared-memory rings instead of private deques, a supervisor
    that scavenges and re-injects dead PEs' work, and duplicate-aware
    at-least-once accounting (the oracle is always computed).  Without a
    plan none of that machinery is allocated.
    """
    if workload not in ("synthetic", "uts"):
        raise ValueError(f"workload must be synthetic|uts, got {workload!r}")
    crashing = crash is not None and crash.active
    check(impl, "mp", ("run", "crash") if crashing else ("run",), npes)

    if workload == "synthetic":
        wl = ("synthetic", ntasks)
        wpt = 1
        capacity = capacity or max(256, 2 * ntasks)
        nseed = ntasks
    else:
        params = tree if isinstance(tree, UtsParams) else get_tree(tree)
        wl = ("uts", params)
        wpt = 4
        capacity = capacity or (1 << 14)
        nseed = 1

    # The crash regime runs the sequential oracle up front: duplicate
    # -aware accounting needs the expected set anyway, and its size
    # bounds the shared rings and fingerprint logs.
    expected = None
    if verify or crashing:
        expected = (synthetic_expected(ntasks) if workload == "synthetic"
                    else uts_expected(wl[1]))

    reserve = None
    if crashing:
        from .recovery import CrashRegions

        def reserve(heap):
            return CrashRegions.reserve(
                heap, npes, wpt,
                ring_cap=2 * expected[0] + 64,
                xlog_cap=2 * expected[0] + 64,
                inbox_cap=expected[0] + 64,
            )

    with Fleet("mp run", LAYOUTS[impl], npes, capacity, wpt,
               ctl=("created", "completed"), regions=reserve) as fleet:
        heap, ctl = fleet.heap, fleet.ctl
        heap.ref(ctl["created"]).store(nseed)
        if crashing:
            wall, dead_pes, books = _supervise_crash(
                fleet, wl, seed, damping, crash, join_timeout)
        else:
            for r in range(npes):
                fleet.spawn(r, _pe_loop, fleet.layouts, ctl, seed, damping,
                            _bind_plain, wl)
            wall, dead_pes, books = fleet.collect(join_timeout), [], {}
        result = MpRunResult(
            workload=workload,
            impl=impl,
            npes=npes,
            seed=seed,
            created=heap.ref(ctl["created"]).load(),
            completed=heap.ref(ctl["completed"]).load(),
            wall_s=wall,
            pes=_pe_stats(fleet.reports, dead_pes),
            **books,
        )
    if expected is not None:
        result.expected_executed, result.expected_checksum = expected
    return result


def _sweep_quiescent(heap, queues, regions, live_ranks):
    """One supervisor observation: is the system plausibly done?

    Quiescent iff every live PE flags idle, no inbox holds undelivered
    re-injections, no ring holds queued work, and no live shared queue
    exposes stealable tasks.  Returns ``(verdict, act vector)``; the
    caller additionally requires the act vector (per-PE activity
    counters) to hold still across ``STABLE_SWEEPS`` consecutive
    quiescent sweeps, which closes the claim-in-flight races a single
    observation cannot see.
    """
    idle_w = heap.slice(regions.idle)
    for r in live_ranks:
        if not idle_w[r].load_seq():
            return False, None
    acts = tuple(
        (r, heap.slice(regions.act)[r].load_seq()) for r in live_ranks
    )
    for r in live_ranks:
        pe = regions.bind(heap, r)
        if pe.inbox.pending() or len(pe.ring) or queues[r].has_work():
            return False, None
    return True, acts


def _supervise_crash(fleet, wl, seed, damping, crash, join_timeout):
    """Crash-tolerant mp run: workers + a scavenging supervisor.

    The supervisor watches process liveness (and heartbeat words for
    diagnostics); on a death it quarantines the rank, breaks its stripe
    leases, scavenges every shared structure the corpse owned, re-injects
    the orphans to a survivor's inbox, and optionally respawns the rank.
    Termination is a stop word raised once ``STABLE_SWEEPS`` consecutive
    sweeps observe global quiescence.  Returns ``(wall, stats of the dead
    incarnations, the at-least-once fields of MpRunResult)``.
    """
    from .faults import NO_CRASHES, CrashInjector
    from .recovery import scavenge_rank

    heap, layouts, regions = fleet.heap, fleet.layouts, fleet.regions
    npes = len(layouts)
    # The supervisor's view of every PE's shared queue.
    queues = [layout.thief(heap) for layout in layouts]

    def spawn(r, plan, fresh):
        fleet.spawn(r, _pe_loop, layouts, fleet.ctl, seed, damping,
                    _bind_crash, wl, CrashInjector(plan, r, npes), regions,
                    fresh)

    for r in range(npes):
        spawn(r, crash, True)

    dead_pes: list[MpPeStats] = []
    crashed: list[int] = []
    respawned: list[int] = []
    scavenged: Counter = Counter()
    recovery_wall = 0.0
    dead_flags = heap.slice(regions.dead)
    stable = 0
    prev_acts = None
    inject_rr = 0
    accounted: set[int] = set()
    deadline = time.monotonic() + join_timeout

    # -- supervision loop: until quiescence raises the stop word ------
    stop = heap.ref(regions.stop)
    while not stop.load():
        fleet.drain()
        for r, p in list(fleet.procs.items()):
            if p.is_alive() or r in accounted:
                continue
            accounted.add(r)
            if p.exitcode == 0:
                continue            # clean exit; stats via the report
            # Fail-stop detected: quarantine, repair, scavenge.
            t1 = time.perf_counter()
            crashed.append(r)
            dead_flags[r].store(1)
            heap.words.break_dead_leases()
            tasks, breakdown = scavenge_rank(heap, layouts, regions, r)
            scavenged.update(breakdown)
            # The dead incarnation's durable accounting: its
            # fingerprint log (a respawn appends after this point,
            # so the two incarnations never overlap).
            fps = regions.bind(heap, r).xlog.read_all()
            chk = 0
            for f in fps:
                chk ^= f
            dead_pes.append(MpPeStats(rank=r, executed=len(fps),
                                      checksum=chk))
            if tasks:
                live = fleet.alive()
                if not live:
                    raise MpStallError(
                        "every PE died; orphan work cannot be "
                        "re-injected"
                    )
                target = live[inject_rr % len(live)]
                inject_rr += 1
                regions.bind(heap, target).inbox.post(tasks)
            if crash.respawn:
                dead_flags[r].store(0)
                spawn(r, NO_CRASHES, False)
                accounted.discard(r)
                respawned.append(r)
            recovery_wall += time.perf_counter() - t1
            stable, prev_acts = 0, None
        live_ranks = fleet.alive()
        if not live_ranks:
            break                  # everyone exited (or crashed out)
        quiet, acts = _sweep_quiescent(heap, queues, regions, live_ranks)
        if quiet and acts == prev_acts:
            stable += 1
            if stable >= STABLE_SWEEPS:
                stop.store(1)
                continue
        else:
            stable = 0
        prev_acts = acts
        if time.monotonic() > deadline:
            raise MpStallError(
                "crash-mode supervisor saw no quiescence",
                waited_s=join_timeout,
            )
        time.sleep(0.02)

    # -- shutdown: collect the survivors --------------------------
    wall = fleet.collect(max(0.0, deadline - time.monotonic()),
                         lost_ok=True)

    # -- duplicate-aware accounting from the fingerprint logs ------
    all_fps: list[int] = []
    for r in range(npes):
        all_fps.extend(regions.bind(heap, r).xlog.read_all())
    counts = Counter(all_fps)
    unique_chk = 0
    for f in counts:
        unique_chk ^= f
    multiplicity = dict(sorted(Counter(counts.values()).items()))

    return wall, dead_pes, dict(
        at_least_once=True,
        crashed_ranks=crashed,
        respawned_ranks=respawned,
        scavenged=dict(scavenged),
        lease_breaks=heap.words.repairs_total(),
        recovery_wall_s=recovery_wall,
        executed_unique=len(counts),
        unique_checksum=unique_chk,
        multiplicity=multiplicity,
    )


# ----------------------------------------------------------------------
# Open-system serving mode (docs/serving.md)
#
# The parent process is the arrival feeder: it replays a seeded arrival
# trace (in arrival order) into per-rank SPSC inboxes, bumping the
# global ``created`` counter *before* each post so the created/completed
# books can never balance while an injection is still in flight.  PEs
# drain their inbox into the local deque and otherwise run the classic
# share/steal loop; each record carries ``(seq, post_ns)`` so completion
# latency survives steals.  Termination: the feeder sets ``closed`` after
# the last post, and a starved PE exits once ``closed`` is set and
# ``completed == created`` (completed read first, as ever).
# ----------------------------------------------------------------------

#: Serving records are (arrival seq, post timestamp ns) pairs.
_SERVE_WPT = 2


@dataclass
class MpServeResult:
    """Everything one mp serving run produced."""

    impl: str
    npes: int
    seed: int
    created: int
    completed: int
    wall_s: float
    pes: list["MpPeStats"] = field(default_factory=list)
    serving: "ServingStats | None" = None

    @property
    def checksum(self) -> int:
        chk = 0
        for s in self.pes:
            chk ^= s.checksum
        return chk

    def summary(self) -> dict:
        out = {
            "impl": self.impl,
            "npes": self.npes,
            "created": self.created,
            "completed": self.completed,
            "wall_s": round(self.wall_s, 4),
            "tasks_per_s": (
                round(self.completed / self.wall_s, 1) if self.wall_s > 0 else 0.0
            ),
            "checksum": self.checksum,
        }
        if self.serving is not None:
            pct = self.serving.latency.percentiles()
            out.update(
                {
                    "injected": self.serving.injected,
                    "p50_ns": round(pct["p50"], 1),
                    "p99_ns": round(pct["p99"], 1),
                    "p999_ns": round(pct["p999"], 1),
                    "slo_fraction": round(self.serving.slo_fraction, 4),
                }
            )
        return out


def _reserve_serve_inbox(heap, rank: int, capacity: int):
    """Symmetric rd/wr/buf words for one PE's arrival inbox."""
    alloc = SymmetricAllocator(heap, f"serve{rank}")
    rd = alloc.word("rd")
    wr = alloc.word("wr")
    buf = alloc.array("buf", capacity * _SERVE_WPT)
    alloc.commit()
    return (rd, wr, buf, capacity)


def _serve_inbox(heap, region) -> ShmInbox:
    from .recovery import ShmInbox

    rd, wr, buf, capacity = region
    return ShmInbox(heap, rd, wr, buf, capacity, _SERVE_WPT)


def _try_post(inbox: ShmInbox, records) -> bool:
    try:
        inbox.post(records)
    except RingOverflowError:
        return False
    return True


def run_mp_serve(
    arrival="poisson:50000",
    duration_s: float = 2e-3,
    impl: str = "sws",
    npes: int = 4,
    *,
    seed: int = 0,
    slo_s: float = 0.0,
    damping: bool = True,
    capacity: int | None = None,
    inbox_cap: int | None = None,
    nbatches: int = 16,
    pace_s: float = 2e-4,
    join_timeout: float = 120.0,
) -> MpServeResult:
    """Serve one arrival trace across ``npes`` real processes.

    The trace's *order* is replayed (the mp substrate has no virtual
    clock): the parent feeds batches round-robin into per-rank inboxes
    with ``pace_s`` gaps, and latency is wall-clock nanoseconds from post
    to execution, surviving steals because the stamp travels inside the
    2-word task record.  No shedding on this substrate — every emitted
    arrival is injected, so ``checksum`` must equal the fabric/threads
    serving checksum for the same trace length.
    """
    from ..runtime.arrivals import parse_arrival_spec
    from ..runtime.stats import QuantileSketch, ServingStats

    check(impl, "mp", ("serving",), npes)
    if isinstance(arrival, str):
        process = parse_arrival_spec(arrival, duration_s, seed)
    else:
        process = arrival
    n = process.emitted
    capacity = capacity or max(256, 2 * n)
    inbox_cap = inbox_cap or max(64, capacity)
    slo_ns = int(slo_s * 1e9)

    def reserve(heap):
        return [_reserve_serve_inbox(heap, r, inbox_cap) for r in range(npes)]

    with Fleet("mp serve run", LAYOUTS[impl], npes, capacity, _SERVE_WPT,
               ctl=("created", "completed", "closed"),
               regions=reserve) as fleet:
        heap, ctl = fleet.heap, fleet.ctl
        created = heap.ref(ctl["created"])
        # Bound before the first fork: the PEs inherit the inbox module.
        inboxes = [_serve_inbox(heap, reg) for reg in fleet.regions]
        for r in range(npes):
            fleet.spawn(r, _pe_loop, fleet.layouts, ctl, seed, damping,
                        _bind_serve, fleet.regions, slo_ns)

        # -- the feeder: replay the trace in batches, round-robin ------
        deadline = time.monotonic() + join_timeout
        batch = max(1, (n + nbatches - 1) // nbatches) if n else 0
        injected = 0
        while injected < n:
            seqs = range(injected, min(n, injected + batch))
            by_rank: dict[int, list[int]] = {}
            for s in seqs:
                by_rank.setdefault(s % npes, []).append(s)
            for r in sorted(by_rank):
                group = by_rank[r]
                # Count first: the books cannot balance while the post
                # is still in flight, so no PE exits early.
                created.fetch_add(len(group))
                stamp = time.monotonic_ns()
                records = [(s, stamp) for s in group]
                while not _try_post(inboxes[r], records):
                    # Inbox full: only rank r can drain it.
                    fleet.drain()
                    if (not fleet.procs[r].is_alive()
                            or time.monotonic() > deadline):
                        raise MpStallError(
                            f"mp serve run: arrival inbox of "
                            f"{fleet.describe(r)} never drained", rank=r)
                    time.sleep(1e-4)
            injected += len(seqs)
            time.sleep(pace_s)
        heap.ref(ctl["closed"]).store(1)

        wall = fleet.collect(max(0.0, deadline - time.monotonic()))
        sketch = QuantileSketch()
        slo_attained = 0
        for _, payload in fleet.reports:
            sketch.merge(QuantileSketch.from_dict(payload.pop("serve_sketch")))
            slo_attained += payload.pop("serve_slo_attained")
        result = MpServeResult(
            impl=impl,
            npes=npes,
            seed=seed,
            created=created.load(),
            completed=heap.ref(ctl["completed"]).load(),
            wall_s=wall,
            pes=_pe_stats(fleet.reports),
        )
    result.serving = ServingStats(
        emitted=n,
        injected=injected,
        shed=0,
        completed=result.completed,
        slo_ticks=slo_ns,
        slo_attained=slo_attained,
        checksum=result.checksum,
        latency=sketch,
    )
    return result
