"""The pluggable steal-protocol registry: API, contracts, pool wiring."""

import pytest

from repro.core.config import QueueConfig
from repro.core.ffmult_queue import FfMultQueueSystem
from repro.core.sdc_queue import SdcQueueSystem
from repro.core.sws_queue import SwsQueueSystem
from repro.core.sws_v1_queue import SwsV1QueueSystem
from repro.fabric.topology import TieredTopology
from repro.runtime.pool import IMPLEMENTATIONS, TaskPool, run_pool
from repro.runtime.protocols import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    Protocol,
    all_protocols,
    get_protocol,
    protocol_names,
    register_protocol,
)
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.task import Task
from repro.runtime.victim import QuarantineSelector, TieredVictim


def leaf_registry():
    reg = TaskRegistry()
    reg.register("leaf", lambda payload, tc: TaskOutcome(duration=1e-4))
    return reg


class TestRegistryApi:
    def test_registered_names(self):
        assert protocol_names() == ("sws", "sws-v1", "sdc", "ff-mult", "localized")

    def test_all_protocols_matches_names(self):
        assert tuple(p.name for p in all_protocols()) == protocol_names()

    def test_historical_implementations_subset(self):
        """The paper's three impls stay registered under their old names."""
        assert set(IMPLEMENTATIONS) <= set(protocol_names())

    def test_unknown_protocol_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            get_protocol("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_protocol(
                Protocol(
                    name="sws",
                    title="imposter",
                    semantics=EXACTLY_ONCE,
                    queue_system=SwsQueueSystem,
                )
            )

    def test_protocols_are_frozen(self):
        with pytest.raises(AttributeError):
            get_protocol("sws").comms_total = 99


class TestDeclaredContracts:
    def test_semantics(self):
        exactly = {"sws", "sws-v1", "sdc", "localized"}
        for p in all_protocols():
            want = EXACTLY_ONCE if p.name in exactly else AT_LEAST_ONCE
            assert p.semantics is want, p.name
        assert EXACTLY_ONCE.exactly_once
        assert not AT_LEAST_ONCE.exactly_once

    def test_comm_budgets(self):
        budgets = {
            p.name: (p.comms_total, p.comms_blocking) for p in all_protocols()
        }
        assert budgets == {
            "sws": (3, 2),
            "sws-v1": (3, 2),
            "sdc": (6, 5),
            "ff-mult": (3, 3),
            "localized": (3, 2),
        }

    def test_queue_system_factories(self):
        from repro.fabric.latency import ZERO_LATENCY
        from repro.shmem.api import ShmemCtx

        config = QueueConfig(qsize=64, task_size=16)
        systems = {
            p.name: type(p.queue_system(ShmemCtx(2, latency=ZERO_LATENCY), config))
            for p in all_protocols()
        }
        assert systems == {
            "sws": SwsQueueSystem,
            "sws-v1": SwsV1QueueSystem,
            "sdc": SdcQueueSystem,
            "ff-mult": FfMultQueueSystem,
            "localized": SwsQueueSystem,
        }

    def test_handles_are_split_queues(self):
        """Every fabric queue is the one split queue — no family tag to
        dispatch on — and offers ``probe`` exactly when the record says
        steal damping applies."""
        from repro.core.split_queue import SplitQueue
        from repro.fabric.latency import ZERO_LATENCY
        from repro.shmem.api import ShmemCtx

        for p in all_protocols():
            ctx = ShmemCtx(2, latency=ZERO_LATENCY)
            system = p.queue_system(ctx, QueueConfig(qsize=64, task_size=16))
            queue = system.handle(0)
            assert isinstance(queue, SplitQueue), p.name
            assert hasattr(queue, "probe") == p.supports_damping, p.name

    def test_thread_factories_build_matching_shims(self, shim_queue):
        """``mp_impl`` names the one layout both real-time substrates
        run; its owner is the protocol's, and so is its contract."""
        from repro.mp.queue import LAYOUTS, MpFfMultQueue, MpSdcQueue, MpSwsQueue

        expected = {
            "sws": MpSwsQueue,
            "sdc": MpSdcQueue,
            "ff-mult": MpFfMultQueue,
            "localized": MpSwsQueue,
        }
        for name, cls in expected.items():
            protocol = get_protocol(name)
            queue = shim_queue(protocol.mp_impl, range(8))
            assert isinstance(queue, cls), name
            assert (LAYOUTS[protocol.mp_impl].exactly_once
                    == protocol.semantics.exactly_once), name
        assert get_protocol("sws-v1").mp_impl is None

    def test_localized_defaults(self):
        p = get_protocol("localized")
        assert p.tiered
        assert p.default_victim == "tiered"
        assert p.supports_damping

    def test_fault_support_gating(self):
        support = {p.name: p.supports_faults for p in all_protocols()}
        assert support == {
            "sws": True,
            "sws-v1": False,
            "sdc": True,
            "ff-mult": False,
            "localized": True,
        }


class TestPoolWiring:
    def test_unregistered_impl_raises(self):
        with pytest.raises(ValueError, match="registered protocol"):
            TaskPool(2, leaf_registry(), impl="nope")

    def test_pool_binds_protocol(self):
        pool = TaskPool(2, leaf_registry(), impl="ff-mult")
        assert pool.protocol is get_protocol("ff-mult")
        assert isinstance(pool.queue_system, FfMultQueueSystem)

    def test_localized_builds_tiered_topology_and_victims(self):
        pool = TaskPool(4, leaf_registry(), impl="localized")
        assert isinstance(pool.ctx.topology, TieredTopology)
        selectors = [
            w.selector
            for w in pool.workers
            if w.selector is not None
        ]
        assert selectors
        assert all(isinstance(s, TieredVictim) for s in selectors)

    def test_localized_quarantine_wraps_tiered(self):
        from repro.fabric.faults import FaultPlan

        plan = FaultPlan(pe_failures=((2, 1e-3),))
        pool = TaskPool(4, leaf_registry(), impl="localized", fault_plan=plan)
        selectors = [
            w.selector
            for w in pool.workers
            if w.selector is not None
        ]
        assert selectors
        for s in selectors:
            assert isinstance(s, QuarantineSelector)
            assert isinstance(s.inner, TieredVictim)

    def test_fault_plan_rejected_without_recovery_path(self):
        from repro.fabric.faults import FaultPlan

        plan = FaultPlan(pe_failures=((1, 1e-3),))
        with pytest.raises(ValueError, match="fault injection"):
            TaskPool(4, leaf_registry(), impl="ff-mult", fault_plan=plan)

    @pytest.mark.parametrize("impl", ("ff-mult", "localized"))
    def test_run_pool_executes_all_seeds(self, impl):
        stats = run_pool(
            4,
            leaf_registry(),
            [Task(0)] * 40,
            impl=impl,
            oracle=True,
            seed=7,
        )
        assert stats.total_tasks >= 40
        if get_protocol(impl).semantics.exactly_once:
            assert stats.total_tasks == 40
