"""Differential test: the incremental oracle against a full rescan.

:class:`~repro.runtime.oracle.PoolOracle` re-checks only the PEs an
event changed, and only the completion words it wrote.  That is sound
only if every change reaches it through one of its witnesses (the heap's
write journal, the resume proxy, a declared external writer, or a
queue's every-event declaration) — a skipped PE whose state *did* change
is a silently missed violation.

:class:`RescanOracle` below is the reference model: every PE, every
completion word, sums from scratch, after every event.  The harness runs
both on the same pool, records each side's first violation without
stopping the run, and demands the same ``(event index, check, detail)``
and the same ``checks_passed`` — on clean runs, on planted protocol
bugs, under serving arrivals (whose injections change a PE's books from
outside its process) and fail-stopped PEs.

Verdicts alone say nothing on a clean run, so after every event the
harness also asserts the two facts the skipping rests on: the oracle's
running conservation sums equal the sums recomputed from the workers,
and every PE the oracle did *not* check still holds exactly the state
(:func:`observable`) it held when last checked.  The last section turns
each witness off in turn and shows the harness notices.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.explore import build_pool, unfused_steal
from repro.core.config import QueueConfig
from repro.core.ffmult_queue import FfMultQueue
from repro.core.sdc_queue import SdcQueue
from repro.core.sws_queue import STEALVAL, SwsQueue
from repro.core.sws_v1_queue import SwsV1Queue
from repro.fabric.errors import (
    DeadlockError,
    OracleViolation,
    ProtocolError,
    SimulationError,
)
from repro.fabric.faults import FaultPlan, PEFailure
from repro.fabric.memory import SymmetricHeap
from repro.fabric.scheduler import make_scheduler
from repro.runtime.oracle import PoolOracle
from repro.runtime.pool import TaskPool
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.serving import ServingController, run_serve
from repro.runtime.task import Task

pytestmark = pytest.mark.timeout(300)

IMPLS = ("sws", "sws-v1", "sdc", "localized", "ff-mult")


class RescanOracle:
    """Reference model: the whole pool re-read after every event."""

    def __init__(self, pool: TaskPool) -> None:
        self.pool = pool
        ranks = range(pool.npes)
        self.workers = pool.workers
        self.exactly_once = pool.protocol.semantics.exactly_once
        self.conserve = pool.ctx.faults is None and self.exactly_once
        self.checks_passed = 0
        self.books = [0, 0, 0]  # as of the last check
        self.prev_comp = {r: None for r in ranks}
        self.prev_sv = {r: None for r in ranks}

    def sums(self) -> list[int]:
        ws = self.workers
        return [
            sum(w.stats.tasks_spawned for w in ws),
            sum(w.stats.tasks_executed for w in ws),
            sum(w.queue.local_count + w.queue.stealable
                for w in ws),
        ]

    def check(self) -> None:
        ctx = self.pool.ctx
        for w in self.workers:
            q = w.queue
            if ctx.faults is not None and ctx.faults.is_dead(
                    q.rank, ctx.engine.now):
                continue
            q.oracle_check()
            self.comp_transitions(q)
            sv = self.stealval_key(q)
            if sv is not None:
                prev = self.prev_sv[q.rank]
                if prev is not None and prev[0] == sv[0] and sv[1] < prev[1]:
                    raise OracleViolation(
                        "asteals-monotone",
                        f"attempted-steal counter shrank {prev[1]} -> "
                        f"{sv[1]} within publication {sv[0]}", pe=q.rank)
                self.prev_sv[q.rank] = sv
        if self.conserve:
            spawned, executed, resident = self.books = self.sums()
            if resident > spawned - executed:
                raise OracleViolation(
                    "conservation",
                    f"{resident} tasks resident in queues but only "
                    f"{spawned - executed} unexecuted exist "
                    f"(spawned={spawned}, executed={executed}): work was "
                    f"duplicated")
        self.checks_passed += 1

    @staticmethod
    def stealval_key(q) -> tuple[int, int] | None:
        """``(publication, asteals)`` of a live stealval, decoded here
        through the codec's view rather than the hook's return value."""
        if q.codec is None:
            return None
        view = q.codec.unpack(q._meta[STEALVAL])
        return None if view.locked else (q.publications, view.asteals)

    def comp_transitions(self, q) -> None:
        region = q.oracle_comp_region
        if region is None:
            return
        heap = self.pool.ctx.heap
        words = heap.load_words(q.rank, region, 0, heap.spec(region).length)
        prev = self.prev_comp[q.rank] or [0] * len(words)
        if words == prev:
            return  # what the loop below would conclude, at C speed
        expected = q.oracle_comp_expected()
        for off, (old, val) in enumerate(zip(prev, words)):
            if val == old or val == 0:
                continue
            if old != 0:
                raise OracleViolation(
                    "double-claim",
                    f"completion word {off} jumped {old} -> {val}: two "
                    f"thieves notified the same steal slot", pe=q.rank)
            if expected is None:
                if not 1 <= val <= q.cfg.qsize:
                    raise OracleViolation(
                        "comp-volume-range",
                        f"completion word {off} holds {val}, outside "
                        f"[1, {q.cfg.qsize}]", pe=q.rank)
            elif expected.get(off) != val:
                raise OracleViolation(
                    "comp-volume",
                    f"completion word {off} holds {val}; the steal-half "
                    f"schedule allows {expected.get(off, 'nothing')}",
                    pe=q.rank)
        self.prev_comp[q.rank] = words


def queue_rows(q) -> list[list[int]]:
    """Live views of the metadata and completion words of ``q``'s PE."""
    heap = q.system.ctx.heap
    meta = sys.modules[type(q).__module__].META_REGION
    return [heap.word_view(q.rank, region)
            for region in (meta, q.oracle_comp_region) if region is not None]


def observable(worker, rows: list[list[int]]) -> tuple:
    """Everything the per-PE checks read about one PE, frozen: its queue's
    heap words (``rows``), the handle's owner-local fields (the allotment
    records by value), the in-flight steal snapshots pinning its reclaim
    floor (ff-mult), its worker's books."""
    q = worker.queue
    words = [tuple(view) for view in rows]
    # Heap views and the payload buffer stay live objects in here (equal
    # to themselves whatever they hold): ``words`` covers what matters.
    fields = tuple(vars(q).values())
    records = [tuple(vars(r).values()) for r in getattr(q, "records", ())]
    inflight = getattr(q.system, "_inflight", None)
    pinned = sorted(inflight[q.rank].items()) if inflight else ()
    stats = worker.stats
    return (words, fields, records, pinned,
            stats.tasks_spawned, stats.tasks_executed)


class _Enough(Exception):
    """Both oracles have their first violation, or a planted bug lost a
    task and the run will circulate its termination token for ever."""


EVENT_CAP = 50_000  # the longest clean run here takes under 10k events


class Differential:
    """Runs the real oracle and the reference side by side on one pool."""

    def __init__(self, pool: TaskPool, event_cap: int = EVENT_CAP) -> None:
        self.pool = pool
        self.event_cap = event_cap
        self.real = pool.oracle
        self.ref = RescanOracle(pool)
        observers = pool.ctx.engine.observers
        observers[observers.index(self.real.check)] = self.step
        self.events = 0
        self.first = {"real": None, "ref": None}
        self.wreck: Exception | None = None  # what cut the run short
        #: PEs whose ``oracle_check`` ran since the set was last cleared.
        self.checked: set[int] = set()
        self.last_seen: dict[int, tuple] = {}
        self.rows = {}
        for w in self.ref.workers:
            q = w.queue
            q.oracle_check = self._noting(q.rank, q.oracle_check)
            self.rows[q.rank] = queue_rows(q)

    def _noting(self, rank, oracle_check):
        def noted():
            self.checked.add(rank)
            return oracle_check()
        return noted

    def step(self) -> None:
        self.events += 1
        self.checked.clear()
        self._check("real", self.real)
        checked = set(self.checked)
        self._check("ref", self.ref)
        if self.first["real"] is self.first["ref"] is None:
            self._assert_skips_were_sound(checked)
        if None not in self.first.values() or self.events >= self.event_cap:
            raise _Enough

    def _check(self, side, oracle) -> None:
        if self.first[side] is None:
            try:
                oracle.check()
            except OracleViolation as exc:
                self.first[side] = (self.events, exc.check, str(exc))

    def _assert_skips_were_sound(self, checked: set[int]) -> None:
        if self.ref.conserve:
            assert self.real.books == self.ref.books, (
                f"stale running books after event {self.events}"
            )
        ctx = self.pool.ctx
        for w in self.ref.workers:
            if ctx.faults is not None and ctx.faults.is_dead(
                    w.rank, ctx.engine.now):
                continue
            state = observable(w, self.rows[w.rank])
            if w.rank in checked:
                self.last_seen[w.rank] = state
            else:
                assert state == self.last_seen[w.rank], (
                    f"event {self.events} changed PE {w.rank} but the "
                    f"oracle skipped it"
                )

    def run(self, run) -> "Differential":
        """Call ``run()`` to the end (or to the wreck a planted bug makes
        of the protocol), then compare what the two oracles saw."""
        try:
            run()
        except (_Enough, OracleViolation, ProtocolError, DeadlockError,
                SimulationError) as exc:
            self.wreck = exc
        self.assert_agree()
        return self

    def assert_agree(self) -> None:
        assert self.events > 0
        assert self.first["real"] == self.first["ref"]
        assert self.real.checks_passed == self.ref.checks_passed


SMALL = QueueConfig(qsize=256)  # the reference is O(npes x qsize) per event


def explore_pool(workload, impl, policy, seed, npes=4, cfg=SMALL) -> TaskPool:
    """The explorer's workloads; ``flat`` / ``tree`` on a small queue,
    with the seed also driving victim selection (``fixed`` ignores it as
    a scheduler seed)."""
    scheduler = make_scheduler(policy, seed=seed)
    if workload == "churn":  # qsize 32 already
        return build_pool("churn", impl, npes=npes, scheduler=scheduler)
    reg = TaskRegistry()
    if workload == "flat":
        leaf = reg.register("leaf", lambda p, tc: TaskOutcome(duration=2e-6))
        seeds = [Task(leaf)] * 96
    else:
        def node(payload, tc):
            kids = [Task(fn, bytes([payload[0] - 1]))] * 2 if payload[0] else []
            return TaskOutcome(duration=1e-6, children=kids)

        fn = reg.register("node", node)
        seeds = [Task(fn, bytes([6]))]
    pool = TaskPool(npes, reg, impl=impl, queue_config=cfg, seed=seed,
                    scheduler=scheduler, oracle=True)
    pool.seed(0, seeds)
    return pool


def assert_clean(d: Differential) -> None:
    assert d.wreck is None and d.first["real"] is None, (d.wreck, d.first)
    assert d.real.checks_passed == d.events


# ----------------------------------------------------------------------
# clean runs: protocols x workloads x policies x seeds
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy", ["fixed", "random", "pct"])
@pytest.mark.parametrize("workload", ["flat", "tree"])
@pytest.mark.parametrize("impl", IMPLS)
def test_clean_runs_agree(impl, workload, policy):
    for seed in range(10):
        pool = explore_pool(workload, impl, policy, seed)
        assert_clean(Differential(pool).run(pool.run))


@pytest.mark.parametrize("impl", IMPLS)
def test_ring_wraparound_agrees(impl):
    """Tiny queue, deep spawn chain: slot reuse and epoch turnover."""
    pool = explore_pool("churn", impl, "random", 3)
    assert_clean(Differential(pool).run(pool.run))


# ----------------------------------------------------------------------
# planted bugs: same violation, same event, same words
# ----------------------------------------------------------------------

def _doubled(original):
    def doubled(self, victim, offset, ntasks):
        yield from original(self, victim, offset, ntasks)
        yield from original(self, victim, offset, ntasks)
    return doubled


def test_unfused_claim_same_first_violation(monkeypatch):
    monkeypatch.setattr(SwsQueue, "steal", unfused_steal)
    caught = 0
    for seed in range(10):
        pool = explore_pool("flat", "sws", "random", seed)
        d = Differential(pool, event_cap=2_000).run(pool.run)
        caught += d.first["real"] is not None
    assert caught, "the planted claim race never fired"


@pytest.mark.parametrize("cls,impl", [(SwsQueue, "sws"), (SdcQueue, "sdc")])
def test_doubled_completion_same_first_violation(monkeypatch, cls, impl):
    monkeypatch.setattr(
        cls, "_notify_completion", _doubled(cls._notify_completion))
    for policy, seed in [("fixed", 0), ("random", 1), ("pct", 2)]:
        pool = explore_pool("flat", impl, policy, seed)
        d = Differential(pool).run(pool.run)
        assert d.first["real"] is not None
        assert d.first["real"][1] == "double-claim"


def _lowers_asteals(original):
    """An owner step that first takes one back from a live stealval's
    attempted-steal counter, in the same publication: a lost increment."""
    def progress(self):
        word = self._meta[STEALVAL]
        view = self.codec.unpack(word)
        if not view.locked and view.asteals:
            self.pe.local_store(
                self.meta_region, STEALVAL, word - self.codec.ASTEAL_UNIT)
        return original(self)
    return progress


@pytest.mark.parametrize("cls,impl", [(SwsQueue, "sws"), (SwsV1Queue, "sws-v1")])
def test_lowered_asteals_same_first_violation(monkeypatch, cls, impl):
    """The rule reads the key the queue's hook returns; the reference
    decodes the word itself.  Both must see the shrink at its event."""
    monkeypatch.setattr(cls, "progress", _lowers_asteals(cls.progress))
    for policy, seed in [("fixed", 0), ("random", 1), ("pct", 2)]:
        pool = explore_pool("flat", impl, policy, seed)
        d = Differential(pool).run(pool.run)
        assert d.first["real"] is not None
        assert d.first["real"][1] == "asteals-monotone"


def test_first_check_covers_words_older_than_the_journal():
    """An oracle attached late still checks every word once: what was
    already nonzero when the journal started is due at the first check."""
    reg = TaskRegistry()
    leaf = reg.register("leaf", lambda p, tc: TaskOutcome(duration=2e-6))
    pool = TaskPool(4, reg, queue_config=SMALL)  # no oracle yet
    pool.seed(0, [Task(leaf)] * 96)
    pool.ctx.heap.store(2, SwsQueue.oracle_comp_region, 5, 9)
    pool.oracle = PoolOracle(pool)
    pool.oracle.attach()
    d = Differential(pool).run(pool.run)
    assert d.first["real"][:2] == (1, "comp-volume")


@pytest.mark.parametrize("impl", [i for i in IMPLS if i != "ff-mult"])
def test_attach_names_what_a_full_scan_names(impl):
    """The first check's offsets, found at attach without a Python pass
    over every word, are the ones a full generator scan names: on pools
    stopped mid-run (claims in flight, reclaimed slots, settled epoch
    rows) and with one word planted behind the queue's back."""
    reg = TaskRegistry()
    leaf = reg.register("leaf", lambda p, tc: TaskOutcome(duration=2e-6))
    live = 0
    for until in (5e-6, 2e-5, 5e-5, 1e-4):
        pool = TaskPool(4, reg, impl=impl, queue_config=SMALL)
        pool.seed(0, [Task(leaf)] * 96)
        pool.start_workers()
        pool.ctx.run(until=until)
        region = pool.workers[0].queue.oracle_comp_region
        heap = pool.ctx.heap
        nonzero = [{i for i, v in enumerate(heap.word_view(r, region)) if v}
                   for r in range(pool.npes)]
        live += sum(map(len, nonzero))
        planted = next(i for i in range(4) if i not in nonzero[3])
        heap.store(3, region, planted, 7)
        nonzero[3].add(planted)
        oracle = PoolOracle(pool)
        oracle.attach()
        assert [oracle._written[r] for r in range(pool.npes)] == nonzero
    assert live > 0  # some word predated the journal without a plant


@pytest.mark.parametrize("impl", [i for i in IMPLS if i != "ff-mult"])
def test_an_oracle_attached_mid_run_stays_clean(impl):
    """A clean run judged from the middle: a settled epoch's row keeps its
    claims' words until the epoch reopens, and a live record the owner
    folds away before the first check explained its words at attach."""
    reg = TaskRegistry()
    leaf = reg.register("leaf", lambda p, tc: TaskOutcome(duration=2e-6))
    pools = []
    for until in (5e-5, 1e-4):
        pool = TaskPool(4, reg, impl=impl, queue_config=SMALL)
        pool.seed(0, [Task(leaf)] * 96)
        pools.append((pool, until))
    for k in range(1, 40):
        pools.append((build_pool("tree", impl, oracle=False), k * 5e-6))
    judged = 0
    for pool, until in pools:
        pool.start_workers()
        pool.ctx.run(until=until)
        if not pool.ctx.engine.live:
            continue  # the run ended before the oracle came
        pool.oracle = PoolOracle(pool)
        pool.oracle.attach()
        pool.finish(pool.ctx.run())
        judged += pool.oracle.checks_passed > 0
    assert judged >= 10


# ----------------------------------------------------------------------
# serving: injections write a PE's books from an engine event
# ----------------------------------------------------------------------

def serve(controller=ServingController, **kwargs) -> Differential:
    made = []

    def factory(pool, *args, **kw):
        made.append(Differential(pool))
        return controller(pool, *args, **kw)

    run_serve(arrival="poisson:2000000", duration_s=2e-4, seed=7,
              controller_factory=factory, queue_config=SMALL, **kwargs)
    (d,) = made
    d.assert_agree()
    return d


@pytest.mark.parametrize("impl", ["sws", "sdc", "sws-v1"])
def test_serving_books_never_stale(impl):
    assert_clean(serve(npes=4, impl=impl))


def test_serving_shed_threshold():
    assert_clean(serve(npes=2, shed_threshold=4))


# ----------------------------------------------------------------------
# faults
# ----------------------------------------------------------------------

@pytest.mark.parametrize("impl,lease", [("sws", None), ("sdc", 100e-6)])
def test_fail_stopped_pe_stays_skipped(impl, lease):
    reg = TaskRegistry()
    leaf = reg.register("leaf", lambda payload, tc: TaskOutcome(duration=2e-6))
    plan = FaultPlan(seed=3, drop_rate=0.01,
                     pe_failures=(PEFailure(pe=2, time=40e-6),))
    pool = TaskPool(
        4, reg, impl=impl, fault_plan=plan, seed=1, oracle=True,
        queue_config=QueueConfig(qsize=256, sdc_lock_lease=lease))
    pool.seed(0, [Task(leaf)] * 200)
    assert_clean(Differential(pool).run(pool.run))
    assert pool.ctx.faults.is_dead(2, pool.ctx.engine.now)


# ----------------------------------------------------------------------
# property: any (impl, workload, policy, seed, npes), full-size queues
# ----------------------------------------------------------------------

@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    impl=st.sampled_from(IMPLS),
    workload=st.sampled_from(["flat", "tree", "churn"]),
    policy=st.sampled_from(["fixed", "random", "pct"]),
    seed=st.integers(0, 2**16),
    npes=st.sampled_from([2, 4, 8]),
)
def test_property_agrees_with_rescan(impl, workload, policy, seed, npes):
    pool = explore_pool(workload, impl, policy, seed, npes=npes,
                        cfg=QueueConfig())
    assert_clean(Differential(pool).run(pool.run))


# ----------------------------------------------------------------------
# controls: turn each witness off and the harness must notice
# ----------------------------------------------------------------------

def test_without_the_journal_a_remote_write_is_missed(monkeypatch):
    monkeypatch.setattr(SymmetricHeap, "attach_journal", lambda self: [])
    pool = explore_pool("flat", "sws", "fixed", 0)
    with pytest.raises(AssertionError, match="oracle skipped it"):
        Differential(pool).run(pool.run)


def test_without_the_resume_proxy_an_owner_step_is_missed(monkeypatch):
    monkeypatch.setattr(PoolOracle, "watch", lambda self, rank, gen: gen)
    pool = explore_pool("flat", "sws", "fixed", 0)
    with pytest.raises(AssertionError, match="stale running books"):
        Differential(pool).run(pool.run)


def test_without_the_inject_declaration_books_go_stale():
    """The hazard ``PoolOracle.touched`` exists for: an arrival enqueues
    on, and bumps ``tasks_spawned`` of, a PE whose process did not run."""
    class Undeclared(ServingController):
        def _inject(self, seq):
            oracle, self.pool.oracle = self.pool.oracle, None
            try:
                super()._inject(seq)
            finally:
                self.pool.oracle = oracle

    with pytest.raises(AssertionError, match="stale running books"):
        serve(controller=Undeclared, npes=4)


def test_without_its_declaration_ffmult_floor_moves_unseen(monkeypatch):
    """A thief's in-flight registration moves the *victim's* reclaim
    floor from the thief's process: only the every-event declaration
    covers it."""
    monkeypatch.setattr(FfMultQueue, "oracle_owner_local", True)
    pool = explore_pool("flat", "ff-mult", "fixed", 0)
    with pytest.raises(AssertionError, match="oracle skipped it"):
        Differential(pool).run(pool.run)
