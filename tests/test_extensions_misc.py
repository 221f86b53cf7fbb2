"""Tests for HierarchicalVictim and the crossover finder."""

import pytest

from repro.analysis.series import crossover_point
from repro.fabric.topology import Topology
from repro.runtime.victim import HierarchicalVictim, make_selector


class TestHierarchicalVictim:
    def topo(self):
        return Topology(16, pes_per_node=4)

    def test_starts_local(self):
        sel = HierarchicalVictim(self.topo(), rank=1, seed=3)
        assert not sel.remote_mode
        for _ in range(20):
            v = sel.next_victim()
            assert self.topo().same_node(v, 1)

    def test_escalates_after_failures(self):
        sel = HierarchicalVictim(self.topo(), rank=1, seed=3, escalate_after=2)
        sel.note(False)
        assert not sel.remote_mode
        sel.note(False)
        assert sel.remote_mode
        for _ in range(20):
            assert not self.topo().same_node(sel.next_victim(), 1)

    def test_success_resets_to_local(self):
        sel = HierarchicalVictim(self.topo(), rank=1, seed=3, escalate_after=1)
        sel.note(False)
        assert sel.remote_mode
        sel.note(True)
        assert not sel.remote_mode

    def test_lone_pe_always_remote(self):
        topo = Topology(5, pes_per_node=4)
        sel = HierarchicalVictim(topo, rank=4, seed=0)
        assert sel.remote_mode
        for _ in range(10):
            assert sel.next_victim() != 4

    def test_single_node_never_escalates(self):
        topo = Topology(4, pes_per_node=8)  # everyone on node 0
        sel = HierarchicalVictim(topo, rank=0, seed=0, escalate_after=1)
        for _ in range(5):
            sel.note(False)
        assert not sel.remote_mode
        assert sel.next_victim() != 0

    def test_factory(self):
        topo = self.topo()
        sel = make_selector("hierarchical", 16, 2, topology=topo)
        assert isinstance(sel, HierarchicalVictim)
        with pytest.raises(ValueError):
            make_selector("hierarchical", 16, 2)

    def test_bad_escalate(self):
        with pytest.raises(ValueError):
            HierarchicalVictim(self.topo(), 0, escalate_after=0)

    def test_end_to_end_pool(self):
        from repro.runtime.pool import run_pool
        from repro.runtime.registry import TaskOutcome, TaskRegistry
        from repro.runtime.task import Task

        reg = TaskRegistry()
        reg.register(
            "root", lambda p, tc: TaskOutcome(1e-5, [Task(1)] * 200)
        )
        reg.register("leaf", lambda p, tc: TaskOutcome(2e-4))
        stats = run_pool(
            8, reg, [Task(0)], impl="sws",
            victim="hierarchical", pes_per_node=4,
        )
        assert stats.total_tasks == 201


class TestCrossover:
    def test_simple_crossing(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ratio = [2.0, 1.5, 0.5, 0.2]
        x = crossover_point(xs, ratio, threshold=1.0)
        assert x == pytest.approx(2.5)

    def test_no_crossing(self):
        assert crossover_point([1, 2], [2.0, 1.5], threshold=1.0) is None

    def test_exact_hit(self):
        x = crossover_point([1, 2, 3], [2.0, 1.0, 0.5], threshold=1.0)
        assert x == pytest.approx(2.0)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            crossover_point([1, 2], [1.0])

    def test_fig6_ratio_series_has_no_parity_crossing_yet(self):
        """The measured Fig-6 ratios shrink toward but stay above 1."""
        from repro.workloads.synthetic import measure_single_steal

        volumes = [2, 64, 1024]
        ratio = []
        for v in volumes:
            sdc = measure_single_steal("sdc", v, 192).steal_seconds
            sws = measure_single_steal("sws", v, 192).steal_seconds
            ratio.append(sdc / sws)
        assert crossover_point([float(v) for v in volumes], ratio, 1.0) is None
        assert ratio[-1] < ratio[0]
