"""Tests for self-targeted fabric operations and CLI --list."""

import pytest

from repro.shmem.api import ShmemCtx

from .conftest import TEST_LAT, run_procs


class TestSelfTarget:
    def make(self):
        ctx = ShmemCtx(2, latency=TEST_LAT)
        ctx.heap.alloc_words("w", 4)
        return ctx

    def test_self_amo_works_and_is_cheaper(self):
        ctx = self.make()
        pe = ctx.pe(0)
        times = {}

        def p():
            old = yield pe.atomic_fetch_add(0, "w", 0, 5)  # self-target
            times["self"] = ctx.now
            return old

        (old,) = run_procs(ctx, p())
        assert old == 0
        assert ctx.heap.load(0, "w", 0) == 5

        ctx2 = self.make()
        pe2 = ctx2.pe(0)

        def q():
            yield pe2.atomic_fetch_add(1, "w", 0, 5)  # same-node remote
            times["remote"] = ctx2.now

        run_procs(ctx2, q())
        assert times["self"] < times["remote"]

    def test_self_get_and_put(self):
        ctx = self.make()
        pe = ctx.pe(1)
        ctx.heap.store(1, "w", 2, 77)

        def p():
            v = yield pe.get_word(1, "w", 2)
            yield pe.put_word(1, "w", 3, v + 1)
            return v

        (v,) = run_procs(ctx, p())
        assert v == 77
        assert ctx.heap.load(1, "w", 3) == 78

    def test_self_ops_counted_in_metrics(self):
        ctx = self.make()
        pe = ctx.pe(0)

        def p():
            yield pe.atomic_fetch_add(0, "w", 0, 1)

        run_procs(ctx, p())
        assert ctx.metrics.ops_of_pe(0)["amo_fetch_add"] == 1


class TestCliList:
    def test_list_prints_registry(self, capsys):
        """An unknown id is answered with the registry's ids."""
        from repro.__main__ import main
        from repro.analysis.experiments import EXPERIMENTS

        rc = main(["sweep", "--scenarios", "list", "--no-cache"])
        assert rc == 2
        err = capsys.readouterr().err
        for exp_id in EXPERIMENTS:
            assert exp_id in err
