"""Tests for victim selection policies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.topology import Topology
from repro.runtime.victim import (
    LocalityVictim,
    RoundRobinVictim,
    UniformVictim,
    make_selector,
)


class TestUniform:
    @given(st.integers(2, 64), st.integers(0, 63), st.integers(0, 100))
    @settings(max_examples=100)
    def test_never_self_always_in_range(self, npes, rank, seed):
        rank = rank % npes
        sel = UniformVictim(npes, rank, seed)
        for _ in range(50):
            v = sel.next_victim()
            assert 0 <= v < npes
            assert v != rank

    def test_covers_all_victims(self):
        sel = UniformVictim(8, 3, seed=1)
        seen = {sel.next_victim() for _ in range(500)}
        assert seen == {0, 1, 2, 4, 5, 6, 7}

    def test_deterministic_per_seed(self):
        a = [UniformVictim(16, 2, seed=9).next_victim() for _ in range(20)]
        b = [UniformVictim(16, 2, seed=9).next_victim() for _ in range(20)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [UniformVictim(16, 2, seed=1).next_victim() for _ in range(20)]
        b = [UniformVictim(16, 2, seed=2).next_victim() for _ in range(20)]
        assert a != b

    def test_needs_two_pes(self):
        with pytest.raises(ValueError):
            UniformVictim(1, 0)

    @pytest.mark.parametrize("npes", range(2, 65))
    def test_draw_is_cpython_randrange(self, npes):
        """``next_victim`` inlines ``randrange(npes - 1)``: the same stream
        of victims, mapped past the own rank.  Every simulated run draws
        through it, so a CPython whose ``randrange`` draws differently
        fails here rather than moving every pinned run."""
        seed, rank = 7 + npes, (7 * npes) // 11
        sel = UniformVictim(npes, rank, seed)
        ref = random.Random((seed << 20) ^ (rank * 0x9E3779B1))
        want = [ref.randrange(npes - 1) for _ in range(10_000)]
        want = [v if v < rank else v + 1 for v in want]
        assert [sel.next_victim() for _ in range(10_000)] == want


class TestRoundRobin:
    def test_cycles_through_all(self):
        sel = RoundRobinVictim(4, 1)
        got = [sel.next_victim() for _ in range(6)]
        assert got == [2, 3, 0, 2, 3, 0]

    def test_never_self(self):
        sel = RoundRobinVictim(3, 0)
        assert 0 not in [sel.next_victim() for _ in range(20)]


class TestLocality:
    def test_prefers_local_peers(self):
        topo = Topology(16, pes_per_node=4)
        sel = LocalityVictim(topo, rank=1, seed=3, local_bias=1.0)
        for _ in range(50):
            v = sel.next_victim()
            assert topo.same_node(v, 1)
            assert v != 1

    def test_zero_bias_goes_remote(self):
        topo = Topology(16, pes_per_node=4)
        sel = LocalityVictim(topo, rank=1, seed=3, local_bias=0.0)
        for _ in range(50):
            assert not topo.same_node(sel.next_victim(), 1)

    def test_lone_pe_on_node_goes_remote(self):
        topo = Topology(5, pes_per_node=4)  # PE 4 alone on node 1
        sel = LocalityVictim(topo, rank=4, seed=0, local_bias=1.0)
        for _ in range(20):
            assert sel.next_victim() != 4

    def test_bias_bounds(self):
        topo = Topology(8, pes_per_node=4)
        with pytest.raises(ValueError):
            LocalityVictim(topo, 0, local_bias=1.5)


class TestFactory:
    def test_known_kinds(self):
        topo = Topology(8)
        assert isinstance(make_selector("uniform", 8, 0), UniformVictim)
        assert isinstance(make_selector("roundrobin", 8, 0), RoundRobinVictim)
        assert isinstance(
            make_selector("locality", 8, 0, topology=topo), LocalityVictim
        )

    def test_locality_requires_topology(self):
        with pytest.raises(ValueError):
            make_selector("locality", 8, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_selector("psychic", 8, 0)
