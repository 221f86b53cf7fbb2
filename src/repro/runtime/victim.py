"""Victim selection policies.

The paper follows Cilk-style randomized stealing: "available work is
discovered by selecting a target at random".  The uniform selector is the
default; round-robin and locality-biased selectors are provided for
ablations (hierarchical victim selection is the optimization several
related works layer on top — the paper notes SWS composes with them).
"""

from __future__ import annotations

import random
from typing import Protocol

from ..fabric.topology import Topology


class VictimSelector(Protocol):
    """Strategy interface: yields the next victim to try."""

    def next_victim(self) -> int:
        """Return a PE index to target (never the selector's own rank)."""
        ...


class UniformVictim:
    """Uniformly random victim, excluding self (Cilk's strategy)."""

    def __init__(self, npes: int, rank: int, seed: int = 0) -> None:
        if npes < 2:
            raise ValueError("uniform victim selection needs at least 2 PEs")
        self.npes = npes
        self.rank = rank
        self._rng = random.Random((seed << 20) ^ (rank * 0x9E3779B1))
        self._bits = self._rng.getrandbits
        self._k = (npes - 1).bit_length()

    def next_victim(self) -> int:
        """A uniformly random PE other than self: ``randrange(npes - 1)``
        drawn the way CPython draws it (``_randbelow_with_getrandbits``:
        ``k``-bit draws until one is in range), minus its two frames."""
        n = self.npes - 1
        v = self._bits(self._k)
        while v >= n:
            v = self._bits(self._k)
        return v if v < self.rank else v + 1


class RoundRobinVictim:
    """Deterministic cyclic sweep starting after own rank."""

    def __init__(self, npes: int, rank: int) -> None:
        if npes < 2:
            raise ValueError("round-robin victim selection needs at least 2 PEs")
        self.npes = npes
        self.rank = rank
        self._next = (rank + 1) % npes

    def next_victim(self) -> int:
        """The next PE in cyclic order, skipping self."""
        v = self._next
        self._next = (self._next + 1) % self.npes
        if v == self.rank:
            v = self._next
            self._next = (self._next + 1) % self.npes
        return v


class LocalityVictim:
    """Prefer same-node victims with probability ``local_bias``.

    Models the hierarchical/locality-aware strategies of SLAW/HotSLAW as
    an ablation: intra-node steals are cheaper on the fabric's latency
    model, so biasing toward them trades discovery breadth for latency.
    """

    def __init__(
        self,
        topology: Topology,
        rank: int,
        seed: int = 0,
        local_bias: float = 0.75,
    ) -> None:
        if not 0.0 <= local_bias <= 1.0:
            raise ValueError(f"local_bias must be in [0,1], got {local_bias}")
        self.topology = topology
        self.rank = rank
        self.local_bias = local_bias
        self._rng = random.Random((seed << 20) ^ (rank * 0x9E3779B1) ^ 0x5F5F)
        self._peers = topology.local_peers(rank)
        self._remote = [
            p for p in range(topology.npes)
            if p != rank and not topology.same_node(p, rank)
        ]

    def next_victim(self) -> int:
        """A biased draw: same-node peer with probability ``local_bias``."""
        if self._peers and (not self._remote or self._rng.random() < self.local_bias):
            return self._rng.choice(self._peers)
        if not self._remote:
            return self._rng.choice(self._peers)
        return self._rng.choice(self._remote)


class HierarchicalVictim:
    """Two-level adaptive selection (Habanero/CHARM++-style hierarchy).

    Steals target same-node peers first — intra-node hops are several
    times cheaper on the fabric — and escalate to remote nodes only after
    ``escalate_after`` consecutive local failures.  Any success resets to
    the local level.  The caller reports outcomes via :meth:`note`.
    """

    def __init__(
        self,
        topology: Topology,
        rank: int,
        seed: int = 0,
        escalate_after: int = 2,
    ) -> None:
        if escalate_after < 1:
            raise ValueError("escalate_after must be >= 1")
        self.topology = topology
        self.rank = rank
        self.escalate_after = escalate_after
        self._rng = random.Random((seed << 20) ^ (rank * 0x9E3779B1) ^ 0xA5A5)
        self._peers = topology.local_peers(rank)
        self._remote = [
            p for p in range(topology.npes)
            if p != rank and not topology.same_node(p, rank)
        ]
        self._local_failures = 0

    @property
    def remote_mode(self) -> bool:
        """Currently escalated to inter-node stealing?"""
        return (
            not self._peers
            or (self._remote and self._local_failures >= self.escalate_after)
        )

    def next_victim(self) -> int:
        """A same-node peer, or a remote PE once escalated."""
        if self.remote_mode and self._remote:
            return self._rng.choice(self._remote)
        return self._rng.choice(self._peers)

    def note(self, success: bool) -> None:
        """Report the last attempt's outcome (drives escalation)."""
        if success:
            self._local_failures = 0
        else:
            self._local_failures += 1


class TieredVictim:
    """Tier-biased draw over a socket/node/rack hierarchy.

    The localized work-stealing policy (Suksompong, Leiserson & Schardl):
    each steal attempt first picks a hierarchy tier by weight, then a
    uniform victim within that tier.  With a
    :class:`~repro.fabric.topology.TieredTopology` the four tiers are
    same-socket / same-node / same-rack / cross-rack; a plain
    :class:`Topology` degrades to two populated tiers (same-node at
    tier 1, remote at tier 2).  Weights of *empty* tiers are
    redistributed proportionally over the populated ones, so the
    selector is well defined for any job shape; the effective
    distribution is exposed via :meth:`tier_weights` for the property
    suite.
    """

    #: Default draw probability per tier 0..3, nearest first.
    DEFAULT_WEIGHTS = (0.50, 0.25, 0.15, 0.10)

    def __init__(
        self,
        topology: Topology,
        rank: int,
        seed: int = 0,
        weights: tuple[float, float, float, float] | None = None,
    ) -> None:
        if topology.npes < 2:
            raise ValueError("tiered victim selection needs at least 2 PEs")
        weights = tuple(weights) if weights is not None else self.DEFAULT_WEIGHTS
        if len(weights) != 4 or any(w < 0 for w in weights):
            raise ValueError(f"weights must be 4 non-negative values, got {weights}")
        self.topology = topology
        self.rank = rank
        self._rng = random.Random((seed << 20) ^ (rank * 0x9E3779B1) ^ 0x71E7)
        tier_of = getattr(topology, "tier", None)
        buckets: list[list[int]] = [[], [], [], []]
        self._tier_by_pe: dict[int, int] = {}
        for p in range(topology.npes):
            if p == rank:
                continue
            if tier_of is not None:
                t = tier_of(rank, p)
            else:
                t = 1 if topology.same_node(rank, p) else 2
            buckets[t].append(p)
            self._tier_by_pe[p] = t
        self._buckets = buckets
        total = sum(w for w, b in zip(weights, buckets) if b)
        if total <= 0:
            raise ValueError(
                f"every populated tier has zero weight: weights={weights}"
            )
        self._weights = tuple(
            (w / total if b else 0.0) for w, b in zip(weights, buckets)
        )

    def tier_weights(self) -> tuple[float, float, float, float]:
        """Effective per-tier draw probabilities (zero for empty tiers)."""
        return self._weights

    def tier_of(self, victim: int) -> int:
        """The hierarchy tier ``victim`` occupies relative to this rank."""
        return self._tier_by_pe[victim]

    def next_victim(self) -> int:
        """Pick a tier by weight, then a uniform victim within it."""
        u = self._rng.random()
        acc = 0.0
        for t in range(4):
            w = self._weights[t]
            if not w:
                continue
            acc += w
            if u < acc:
                return self._rng.choice(self._buckets[t])
        # Float round-off landed past the last band: farthest populated tier.
        for t in (3, 2, 1, 0):
            if self._weights[t]:
                return self._rng.choice(self._buckets[t])
        raise AssertionError("unreachable: no populated tier")


class QuarantineSelector:
    """Fault-aware wrapper: quarantine victims that keep timing out.

    Wraps any :class:`VictimSelector`.  The worker reports steal timeouts
    via :meth:`note_timeout`; after ``quarantine_after`` consecutive
    timeouts against one victim, that victim is excluded from selection
    for ``quarantine_time`` virtual seconds, doubling on each repeat
    offence (a fail-stopped PE ends up effectively removed, while a
    transiently slow one gets re-probed after the quarantine decays).
    A successful steal clears the victim's record entirely.

    Selection redraws from the inner selector up to ``max_redraws`` times
    to dodge quarantined victims; if every draw is quarantined the last
    draw is returned anyway — a forced re-probe, so a worker can never
    livelock with the whole job quarantined.
    """

    def __init__(
        self,
        inner: VictimSelector,
        clock,
        quarantine_after: int = 2,
        quarantine_time: float = 200e-6,
        max_redraws: int = 8,
    ) -> None:
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if quarantine_time <= 0:
            raise ValueError("quarantine_time must be positive")
        self.inner = inner
        self.clock = clock
        self.quarantine_after = quarantine_after
        self.quarantine_time = quarantine_time
        self.max_redraws = max_redraws
        self._strikes: dict[int, int] = {}
        self._until: dict[int, float] = {}
        self._episodes: dict[int, int] = {}
        self._dead: set[int] = set()
        #: Total quarantine events (reported into WorkerStats).
        self.quarantines = 0
        #: Outcome notes are an adaptive inner selector's own ``note``,
        #: resolved once; ``None`` when it takes none.
        self.note = getattr(inner, "note", None)

    def mark_dead(self, victim: int) -> None:
        """Permanently quarantine ``victim``: a supervisor confirmed the
        fail-stop, so no decay timer should ever re-probe it."""
        self._dead.add(victim)
        self._strikes.pop(victim, None)
        self._until.pop(victim, None)

    @property
    def dead(self) -> frozenset[int]:
        """Victims currently under permanent quarantine."""
        return frozenset(self._dead)

    def is_quarantined(self, victim: int) -> bool:
        """Is ``victim`` currently excluded (decays automatically)?"""
        if victim in self._dead:
            return True
        until = self._until.get(victim)
        if until is None:
            return False
        if self.clock() >= until:
            # Quarantine expired: re-probe, but keep the episode history
            # so a still-dead victim re-quarantines for longer.
            del self._until[victim]
            return False
        return True

    def next_victim(self) -> int:
        """A victim from the inner policy, dodging quarantined PEs."""
        victim = self.inner.next_victim()
        for _ in range(self.max_redraws):
            if not self.is_quarantined(victim):
                return victim
            victim = self.inner.next_victim()
        return victim  # everyone looks dead: force a re-probe

    def note_timeout(self, victim: int) -> None:
        """One steal against ``victim`` exhausted its retries."""
        strikes = self._strikes.get(victim, 0) + 1
        if strikes < self.quarantine_after:
            self._strikes[victim] = strikes
            return
        self._strikes[victim] = 0
        episode = self._episodes.get(victim, 0)
        self._episodes[victim] = episode + 1
        self._until[victim] = self.clock() + self.quarantine_time * (2 ** episode)
        self.quarantines += 1

    def note_steal(self, victim: int, success: bool) -> None:
        """A steal attempt actually completed (no timeout)."""
        if success:
            self._strikes.pop(victim, None)
            self._until.pop(victim, None)
            self._episodes.pop(victim, None)
        else:
            # Any response at all proves the victim is alive.
            self._strikes.pop(victim, None)


def make_selector(
    kind: str, npes: int, rank: int, seed: int = 0, topology: Topology | None = None
) -> VictimSelector:
    """Factory: ``uniform`` (default), ``roundrobin``, ``locality``,
    ``hierarchical``, or ``tiered``."""
    if kind == "uniform":
        return UniformVictim(npes, rank, seed)
    if kind == "roundrobin":
        return RoundRobinVictim(npes, rank)
    if kind == "locality":
        if topology is None:
            raise ValueError("locality selector needs a topology")
        return LocalityVictim(topology, rank, seed)
    if kind == "hierarchical":
        if topology is None:
            raise ValueError("hierarchical selector needs a topology")
        return HierarchicalVictim(topology, rank, seed)
    if kind == "tiered":
        if topology is None:
            raise ValueError("tiered selector needs a topology")
        return TieredVictim(topology, rank, seed)
    raise ValueError(f"unknown victim selector {kind!r}")
