"""Fault-injection fabric and steal-path recovery tests.

Covers the injector itself (plans, determinism, scheduling), the NIC's
timeout/drop semantics (the "timed out implies never applied" guarantee
that makes retries duplicate-free), engine fail-stop, the richer
deadlock diagnostics, victim quarantine, and SDC lock-lease recovery.
"""

import pytest

from repro.core.config import QueueConfig
from repro.core.results import StealStatus
from repro.core.sdc_queue import (
    LOCK,
    META_REGION,
    SdcQueueSystem,
    _lease_word,
)
from repro.fabric.engine import Delay
from repro.fabric.errors import DeadlockError, FabricTimeoutError
from repro.fabric.faults import NO_FAULTS, FaultInjector, FaultPlan, PEFailure
from repro.fabric.latency import LatencyModel
from repro.runtime.task import Task
from repro.runtime.victim import QuarantineSelector, RoundRobinVictim
from repro.shmem.api import ShmemCtx

from .conftest import collect

LAT = LatencyModel(
    alpha_sw=1e-6,
    half_rtt_inter=10e-6,
    half_rtt_intra=2e-6,
    beta=1e-9,
    amo_process=0.5e-6,
    get_process=0.25e-6,
    local_penalty=0.5,
)


def make_ctx(npes=2, fault_plan=None, op_timeout=None):
    ctx = ShmemCtx(
        npes, latency=LAT, pes_per_node=1,
        fault_plan=fault_plan, op_timeout=op_timeout,
    )
    ctx.heap.alloc_words("m", 8)
    return ctx


def run_proc(ctx, gen, name="p"):
    out = {}

    def wrapper():
        out["result"] = yield from gen
        out["t"] = ctx.now

    ctx.engine.spawn(wrapper(), name)
    ctx.run()
    return out.get("result"), out.get("t")


class TestFaultPlan:
    def test_default_plan_is_inactive(self):
        assert not FaultPlan().active
        assert not NO_FAULTS.active

    def test_any_hazard_activates(self):
        assert FaultPlan(drop_rate=0.01).active
        assert FaultPlan(delay_rate=0.1, delay_spike=1e-4).active
        assert FaultPlan(pe_failures=(PEFailure(pe=1, time=1e-3),)).active

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(delay_rate=2.0)
        with pytest.raises(ValueError):
            FaultPlan(delay_rate=0.5, delay_spike=-1e-6)

    def test_rejects_bad_failures(self):
        with pytest.raises(ValueError):
            PEFailure(pe=-1, time=1e-3)
        with pytest.raises(ValueError):
            PEFailure(pe=0, time=0.0)

    def test_inactive_plan_installs_no_injector(self):
        ctx = make_ctx(fault_plan=FaultPlan())
        assert ctx.faults is None
        assert ctx.nic.faults is None


class TestInjectorDeterminism:
    def test_same_seed_same_stream(self):
        a = FaultInjector(FaultPlan(seed=42, drop_rate=0.3), npes=4)
        b = FaultInjector(FaultPlan(seed=42, drop_rate=0.3), npes=4)
        seq_a = [a.should_drop("put") for _ in range(200)]
        seq_b = [b.should_drop("put") for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_different_seed_different_stream(self):
        a = FaultInjector(FaultPlan(seed=1, drop_rate=0.3), npes=4)
        b = FaultInjector(FaultPlan(seed=2, drop_rate=0.3), npes=4)
        assert [a.should_drop("put") for _ in range(200)] != [
            b.should_drop("put") for _ in range(200)
        ]

    def test_death_schedule(self):
        inj = FaultInjector(
            FaultPlan(pe_failures=(PEFailure(pe=2, time=5e-3),)), npes=4
        )
        assert inj.fail_time(2) == 5e-3
        assert inj.fail_time(1) is None
        assert not inj.is_dead(2, 4e-3)
        assert inj.is_dead(2, 5e-3)
        assert not inj.is_dead(1, 1.0)


class TestNicTimeouts:
    def test_dropped_blocking_amo_times_out_and_never_applies(self):
        plan = FaultPlan(seed=0, drop_rate=0.999)
        ctx = make_ctx(fault_plan=plan, op_timeout=100e-6)
        pe = ctx.pe(0)

        def body():
            with pytest.raises(FabricTimeoutError) as ei:
                yield pe.atomic_fetch_add(1, "m", 0, 7)
            assert ei.value.kind == "amo_fetch_add"
            assert ei.value.initiator == 0 and ei.value.target == 1
            return True

        ok, t = run_proc(ctx, body())
        assert ok
        # The cancelled descriptor must never have mutated the target.
        assert ctx.heap.load(1, "m", 0) == 0
        assert t == pytest.approx(100e-6)
        assert ctx.nic.timeouts == 1
        assert ctx.faults.snapshot()["op_timeouts"] == 1

    def test_dropped_nb_put_retires_without_applying(self):
        plan = FaultPlan(seed=0, drop_rate=0.999)
        ctx = make_ctx(fault_plan=plan, op_timeout=1.0)
        pe = ctx.pe(0)

        def body():
            yield pe.put_word_nb(1, "m", 3, 99)
            yield pe.quiet()  # must still drain: the drop retires locally
            return True

        ok, _ = run_proc(ctx, body())
        assert ok
        assert ctx.heap.load(1, "m", 3) == 0
        assert ctx.nic.pending_ops(0) == 0
        assert ctx.faults.snapshot()["dropped_ops"] >= 1

    def test_op_to_dead_target_times_out(self):
        plan = FaultPlan(pe_failures=(PEFailure(pe=1, time=1e-9),))
        ctx = make_ctx(fault_plan=plan, op_timeout=100e-6)
        pe = ctx.pe(0)

        def body():
            # Past the failure time: the request arrives at a dead PE.
            yield Delay(1e-6)
            with pytest.raises(FabricTimeoutError):
                yield pe.get_word(1, "m", 0)
            return True

        ok, _ = run_proc(ctx, body())
        assert ok
        assert ctx.faults.snapshot()["dead_target_drops"] == 1

    def test_quiet_timeout_on_delayed_op(self):
        # Every op takes a spike far beyond the timeout: quiet must raise
        # rather than wedge, and the op keeps draining in the background.
        plan = FaultPlan(seed=0, delay_rate=0.999, delay_spike=5e-3)
        ctx = make_ctx(fault_plan=plan, op_timeout=200e-6)
        pe = ctx.pe(0)

        def body():
            yield pe.put_word_nb(1, "m", 0, 5)
            with pytest.raises(FabricTimeoutError) as ei:
                yield pe.quiet()
            assert ei.value.kind == "quiet"
            return True

        ok, _ = run_proc(ctx, body())
        assert ok
        ctx.run()  # let the delayed descriptor finish draining
        assert ctx.nic.pending_ops(0) == 0

    def test_no_timeout_when_op_completes_in_time(self):
        ctx = make_ctx(op_timeout=1.0)  # timeout armed, fabric reliable
        pe = ctx.pe(0)

        def body():
            old = yield pe.atomic_fetch_add(1, "m", 0, 3)
            yield pe.put_word_nb(1, "m", 1, 8)
            yield pe.quiet()
            return old

        old, _ = run_proc(ctx, body())
        assert old == 0
        assert ctx.heap.load(1, "m", 0) == 3
        assert ctx.heap.load(1, "m", 1) == 8
        assert ctx.nic.timeouts == 0

    def test_delay_spike_slows_but_applies(self):
        plan = FaultPlan(seed=0, delay_rate=0.999, delay_spike=1e-3)
        ctx = make_ctx(fault_plan=plan)
        pe = ctx.pe(0)

        def body():
            yield pe.atomic_fetch_add(1, "m", 0, 1)

        _, t = run_proc(ctx, body())
        assert ctx.heap.load(1, "m", 0) == 1
        # Baseline round trip is ~21.5us; two spiked legs dominate.
        assert t > 21.5e-6
        assert ctx.faults.snapshot()["delay_spikes"] >= 1


class TestEngineKill:
    def test_killed_process_stops_and_ignores_wakeups(self):
        ctx = make_ctx()
        pe = ctx.pe(0)
        steps = []

        def victim():
            steps.append("a")
            yield Delay(10e-6)
            steps.append("b")
            yield pe.atomic_fetch_add(1, "m", 0, 1)
            steps.append("never")

        proc = ctx.engine.spawn(victim(), "victim")
        ctx.engine.at(15e-6, lambda: ctx.engine.kill(proc))
        ctx.run()
        assert steps == ["a", "b"]
        assert proc.killed and proc.finished

    def test_injector_schedules_kills(self):
        plan = FaultPlan(pe_failures=(PEFailure(pe=0, time=5e-6),))
        ctx = make_ctx(fault_plan=plan)
        steps = []

        def victim():
            steps.append("start")
            yield Delay(10e-6)
            steps.append("never")

        proc = ctx.engine.spawn(victim(), "pe0")
        ctx.faults.schedule_failures(ctx.engine, {0: proc})
        ctx.run()
        assert steps == ["start"]
        assert proc.killed
        assert ctx.faults.snapshot()["pes_killed"] == 1


class TestDeadlockDiagnostics:
    def test_report_names_blocked_processes(self):
        ctx = make_ctx()
        pe = ctx.pe(0)

        def stuck():
            yield pe.wait_until("m", 0, lambda v: v == 42)  # never written

        ctx.engine.spawn(stuck(), "stuck-worker")
        with pytest.raises(DeadlockError) as ei:
            ctx.run()
        msg = str(ei.value)
        assert "stuck-worker" in msg
        assert "blocked on" in msg

    def test_report_includes_quiet_state(self):
        ctx = make_ctx()
        pe = ctx.pe(0)

        def stuck():
            yield pe.put_word_nb(1, "m", 0, 1)
            yield pe.quiet()
            yield pe.wait_until("m", 7, lambda v: v == 1)

        ctx.engine.spawn(stuck(), "quieter")
        with pytest.raises(DeadlockError) as ei:
            ctx.run()
        assert "quieter" in str(ei.value)

    def test_nic_diagnostic_reports_outstanding(self):
        ctx = make_ctx()
        ctx.nic._outstanding[1] = 2
        text = ctx.nic._deadlock_diagnostic()
        assert "PE 1" in text and "2 outstanding" in text


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestQuarantineSelector:
    def make(self, **kw):
        clock = FakeClock()
        inner = RoundRobinVictim(npes=4, rank=0)
        sel = QuarantineSelector(
            inner, clock=clock,
            quarantine_after=kw.pop("quarantine_after", 2),
            quarantine_time=kw.pop("quarantine_time", 100e-6),
        )
        return sel, clock

    def test_quarantines_after_consecutive_timeouts(self):
        sel, _ = self.make()
        sel.note_timeout(2)
        assert not sel.is_quarantined(2)
        sel.note_timeout(2)
        assert sel.is_quarantined(2)
        assert sel.quarantines == 1

    def test_quarantined_victim_not_drawn(self):
        sel, _ = self.make()
        sel.note_timeout(2)
        sel.note_timeout(2)
        for _ in range(20):
            assert sel.next_victim() != 2

    def test_quarantine_decays_then_escalates(self):
        sel, clock = self.make()
        sel.note_timeout(2)
        sel.note_timeout(2)
        assert sel.is_quarantined(2)
        clock.t = 150e-6  # past the first 100us episode
        assert not sel.is_quarantined(2)
        # Second episode doubles.
        sel.note_timeout(2)
        sel.note_timeout(2)
        clock.t += 150e-6
        assert sel.is_quarantined(2)
        clock.t += 100e-6
        assert not sel.is_quarantined(2)

    def test_success_clears_strikes(self):
        sel, _ = self.make()
        sel.note_timeout(2)
        sel.note_steal(2, True)
        sel.note_timeout(2)
        assert not sel.is_quarantined(2)

    def test_all_quarantined_still_returns_a_victim(self):
        sel, _ = self.make()
        for v in (1, 2, 3):
            sel.note_timeout(v)
            sel.note_timeout(v)
        assert sel.next_victim() in (1, 2, 3)  # degraded, not deadlocked


class TestSdcLeaseRecovery:
    # A record the queue can parse: the local portion holds tasks.
    TASK = Task(0x100, bytes(range(4, 64))).serialize(64)

    def make_system(self, lease=200e-6):
        ctx = ShmemCtx(2, latency=LAT, pes_per_node=1)
        cfg = QueueConfig(task_size=64, sdc_lock_lease=lease)
        system = SdcQueueSystem(ctx, cfg)
        victim = system.handle(0)
        thief = system.handle(1)
        victim.enqueue_many([self.TASK] * 8)
        collect(victim.release())
        return ctx, victim, thief

    def test_stale_lease_is_broken(self):
        ctx, victim, thief = self.make_system(lease=200e-6)
        # A thief (rank 1, i.e. word-rank 2) locked at t=0 and died.
        ctx.heap.store(0, META_REGION, LOCK, _lease_word(2, 0.0))

        def body():
            yield Delay(300e-6)  # let the lease expire
            result = yield from thief.steal(0)
            return result

        result, _ = run_proc(ctx, body())
        assert result.status is StealStatus.STOLEN
        assert result.ntasks >= 1
        assert thief.locks_recovered == 1

    def test_fresh_lease_is_respected(self):
        ctx, victim, thief = self.make_system(lease=10.0)
        ctx.heap.store(0, META_REGION, LOCK, _lease_word(2, 0.0))

        def body():
            result = yield from thief.steal(0, max_lock_polls=2)
            return result

        result, _ = run_proc(ctx, body())
        assert result.status is StealStatus.LOCKED_ABORT
        assert thief.locks_recovered == 0

    def test_owner_acquire_breaks_stale_lease(self):
        ctx, victim, thief = self.make_system(lease=200e-6)
        ctx.heap.store(0, META_REGION, LOCK, _lease_word(2, 0.0))

        def body():
            yield Delay(300e-6)
            n = yield from victim.acquire()
            return n

        n, _ = run_proc(ctx, body())
        assert n >= 1
        assert victim.locks_recovered == 1
        assert ctx.heap.load(0, META_REGION, LOCK) == 0  # released

    def test_classic_mode_untouched_by_default(self):
        ctx = ShmemCtx(2, latency=LAT, pes_per_node=1)
        cfg = QueueConfig(task_size=64)
        assert cfg.sdc_lock_lease is None
        system = SdcQueueSystem(ctx, cfg)
        victim, thief = system.handle(0), system.handle(1)
        victim.enqueue_many([self.TASK] * 8)
        collect(victim.release())

        def body():
            result = yield from thief.steal(0)
            return result

        result, _ = run_proc(ctx, body())
        assert result.status is StealStatus.STOLEN
        assert thief.locks_recovered == 0


class TestSdcUnderFaultsByDefault:
    """``TaskPool(impl="sdc", fault_plan=<active>)`` with the default
    ``QueueConfig``: a dropped unlock used to leave the classic swap-lock
    held with nothing to break it, and the run never terminated."""

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_config_terminates_exactly_once(self, seed):
        from repro.runtime.pool import TaskPool
        from repro.runtime.registry import TaskRegistry
        from repro.workloads.uts import TEST_SMALL, UtsWorkload, enumerate_tree

        reg = TaskRegistry()
        wl = UtsWorkload(reg, TEST_SMALL)
        pool = TaskPool(
            6, reg, impl="sdc", fault_plan=FaultPlan(seed=seed, drop_rate=0.03)
        )
        # Derived like op_timeout, because the caller left it None ...
        assert pool.queue_config.sdc_lock_lease == 4.0 * pool.op_timeout
        pool.seed(0, [wl.seed_task()])
        stats = pool.run()
        assert stats.total_tasks == enumerate_tree(TEST_SMALL).nodes
        assert stats.runtime < 10e-3
        assert stats.faults["dropped_ops"] > 0

    def test_an_explicit_lease_is_an_override(self):
        from repro.runtime.pool import TaskPool
        from repro.runtime.registry import TaskRegistry

        qc = QueueConfig(sdc_lock_lease=50e-6)
        pool = TaskPool(
            4, TaskRegistry(), impl="sdc", queue_config=qc,
            fault_plan=FaultPlan(seed=0, drop_rate=0.03),
        )
        assert pool.queue_config is qc
        # ... and never derived on a reliable fabric.
        assert TaskPool(4, TaskRegistry(), impl="sdc").queue_config.sdc_lock_lease is None


class TestPutSignalSerialization:
    """The put_signal fix: payload and signal go through the target's
    link and atomic serialization units like every other put/atomic."""

    # Latency tuned so serialization effects dominate injection gaps.
    SLAT = LatencyModel(
        alpha_sw=0.1e-6,
        half_rtt_inter=10e-6,
        half_rtt_intra=2e-6,
        beta=1e-9,
        amo_process=5e-6,
        get_process=0.25e-6,
        local_penalty=0.5,
    )

    def make_ctx(self):
        ctx = ShmemCtx(3, latency=self.SLAT, pes_per_node=1)
        ctx.heap.alloc_words("sig", 8)
        ctx.heap.alloc_bytes("buf", 4096)
        return ctx

    def record_store_time(self, ctx, offset, times):
        def waiter(value):
            times.append(ctx.now)
            return True

        ctx.heap.add_waiter(2, "sig", offset, waiter)

    def test_back_to_back_signals_serialize_in_amo_unit(self):
        ctx = self.make_ctx()
        pe = ctx.pe(0)
        t_sig = []
        self.record_store_time(ctx, 0, t_sig)
        self.record_store_time(ctx, 1, t_sig)

        def body():
            yield pe.put_signal_nb(2, "buf", 0, b"x" * 8, "sig", 0, 1)
            yield pe.put_signal_nb(2, "buf", 8, b"y" * 8, "sig", 1, 1)
            yield pe.quiet()

        run_proc(ctx, body())
        assert len(t_sig) == 2
        # Arrivals are closer than amo_process, so the second signal must
        # queue behind the first in the target's atomic unit.
        assert t_sig[1] - t_sig[0] == pytest.approx(self.SLAT.amo_process)

    def test_signal_contends_with_amo(self):
        ctx = self.make_ctx()
        t_sig = []
        self.record_store_time(ctx, 0, t_sig)
        t_amo = {}

        def signaler():
            yield ctx.pe(0).put_signal_nb(2, "buf", 0, b"x" * 8, "sig", 0, 1)
            yield ctx.pe(0).quiet()

        def atomiker():
            yield ctx.pe(1).atomic_fetch_add(2, "m2", 0, 1)
            t_amo["t"] = ctx.now

        ctx.heap.alloc_words("m2", 1)
        ctx.engine.spawn(signaler(), "s")
        ctx.engine.spawn(atomiker(), "a")
        ctx.run()
        # Both land at the same unit; their processing windows cannot
        # overlap (signal store and amo application >= amo_process apart).
        sig_t = t_sig[0]
        amo_apply = t_amo["t"] - self.SLAT.half_rtt_inter  # minus return leg
        assert abs(sig_t - amo_apply) >= self.SLAT.amo_process * 0.999

    def test_signal_ordered_after_payload(self):
        ctx = self.make_ctx()
        pe = ctx.pe(0)
        seen = {}

        def waiter(value):
            seen["payload"] = ctx.heap.read_bytes(2, "buf", 0, 4)
            return True

        ctx.heap.add_waiter(2, "sig", 0, waiter)

        def body():
            yield pe.put_signal_nb(2, "buf", 0, b"DATA", "sig", 0, 7)
            yield pe.quiet()

        run_proc(ctx, body())
        # A consumer woken by the signal always observes the payload.
        assert seen["payload"] == b"DATA"
