"""Distributed termination detection (paper §2.1).

The pool "is processed until there are no more tasks remaining"; detecting
that moment without a coordinator is the classic termination-detection
problem.  Two four-counter (Mattern) detectors are provided:

* **ring** (default) — a token circulates the ring accumulating every
  PE's monotone ``(tasks_created, tasks_executed)`` counters; PE 0
  declares termination after two consecutive complete rounds with
  identical, balanced totals.  An in-flight steal always leaves a
  created task unexecuted, so the sums cannot balance early.  O(P)
  messages and hops per round.
* **tree** — the same four-counter test evaluated over a binary
  reduction tree (Scioto's approach): children push their subtree sums
  up; the root broadcasts round-advance or terminate back down.  O(P)
  messages but O(log P) latency per round — noticeably faster detection
  at scale.

Both ride the same fabric as everything else (counted puts applied
atomically at arrival), so detection cost is part of measured runtime,
as in the paper.

Fault mode (ring only): when the system is built with a
:class:`~repro.fabric.faults.FaultInjector`, the ring routes the token
around fail-stopped PEs (the injector's static schedule acts as a perfect
failure detector — an idealization, documented in ``docs/simulator.md``),
token puts are retried on timeout and re-routed if the successor died,
PE 0 regenerates a token lost with a dead holder after ``token_timeout``,
and the declare broadcast uses acked puts with bounded retry.  Because a
dead PE's counter contributions are lost (and abandoned steals lose
tasks), the exact ``created == executed`` test can never fire; instead the
token additionally accumulates an all-quiescent bit (packed into the round
word, so the token stays 4 words) and PE 0 declares once two consecutive
complete rounds carry identical sums *and* the all-quiescent bit — no PE
held or could still receive live work across both rounds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..fabric.errors import FabricTimeoutError
from ..shmem.api import ShmemCtx

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fabric.faults import FaultInjector

REGION = "term"
TOKEN_FLAG = 0
TOKEN_ROUND = 1
TOKEN_CREATED = 2
TOKEN_EXECUTED = 3
TERM_FLAG = 4
WORDS = 5

#: Per-hop put retries before giving up on a token (PE 0 regenerates).
_TOKEN_PUT_RETRIES = 5
#: Per-target retries of the termination broadcast.
_DECLARE_RETRIES = 3


class TerminationSystem:
    """Allocates the symmetric token/flag words for the job.

    ``faults`` switches every detector into fault-aware mode;
    ``token_timeout`` is how long PE 0 waits for a missing token before
    regenerating it (only meaningful in fault mode).
    """

    def __init__(
        self,
        ctx: ShmemCtx,
        faults: "FaultInjector | None" = None,
        token_timeout: float = 1e-3,
    ) -> None:
        self.ctx = ctx
        self.faults = faults
        self.token_timeout = token_timeout
        #: Open-system arrival source (``pending() -> int``, and the
        #: ``serving_stats()`` the pool's record takes).  While it still
        #: has future injections scheduled, ``created == executed`` is a
        #: transient coincidence, not quiescence — the detectors refuse
        #: to declare until the source is exhausted.
        self.arrival_source = None
        ctx.heap.alloc_words(REGION, WORDS)

    @property
    def fault_aware(self) -> bool:
        """Is the ring running the fault-tolerant protocol variant?"""
        return self.faults is not None

    def handle(self, rank: int) -> "TerminationDetector":
        """Detector bound to PE ``rank``."""
        return TerminationDetector(self, rank)


class _Detector:
    """What the ring and the tree participant share.

    ``_term`` is a read-only view of this PE's own ``term`` words: the
    worker loop polls them every iteration (``terminated``, the
    ``needs_service`` predicates).  Every write stays on ``local_store``.
    """

    def __init__(self, system, rank: int) -> None:
        self.system = system
        self.pe = system.ctx.pe(rank)
        self.rank = rank
        self.npes = system.ctx.npes
        self._term = system.ctx.heap.word_view(rank, REGION)

    @property
    def terminated(self) -> bool:
        """Has global termination been declared?"""
        return self._term[TERM_FLAG] == 1

    def _arrivals_pending(self) -> bool:
        """Does an attached open-system source still owe injections?

        Pending counts are monotone non-increasing, so a ``False`` here
        is stable: once the source is drained it stays drained, and the
        classic drain-only declare logic applies unchanged.
        """
        src = self.system.arrival_source
        return src is not None and src.pending() > 0

    def _service_alone(self, created: int, executed: int, idle: bool) -> bool:
        """``npes == 1``: an idle PE with balanced books declares by itself."""
        if idle and created == executed and not self._arrivals_pending():
            self.pe.local_store(REGION, TERM_FLAG, 1)
            return True
        return False


class TerminationDetector(_Detector):
    """Per-PE participant in the token ring."""

    def __init__(self, system: TerminationSystem, rank: int) -> None:
        super().__init__(system, rank)
        # The fault-aware token timeout is time-driven and a lone PE
        # declares by itself: both are serviced on every iteration.
        self._poll = system.fault_aware or self.npes == 1
        # PE 0 starts holding the (conceptual) token.
        self._holding = rank == 0
        self._round = 0
        self._prev: tuple[int, int] | None = None
        # Was the arrival source drained when PE 0 launched this round?
        # An arrival fired mid-round into a PE the token already passed
        # is in neither count, so only a round that starts drained may
        # declare (``pending()`` is monotone).
        self._drained = False
        # Fault-mode state: previous round's all-quiescent bit, the last
        # time PE 0 saw token activity, and how many tokens it regrew.
        self._prev_q = False
        self._last_token = 0.0
        self.regenerations = 0

    def needs_service(self, idle: bool) -> bool:
        """Would :meth:`service` do anything now?

        What :meth:`wake_conditions` says for a blocked PE, asked by a
        polling one: the flag or the token is here, or PE 0 (the only
        rank that ever holds) may start a round.  May say yes when
        ``service`` then finds nothing, never no when it would act.
        """
        term = self._term
        return (
            term[TOKEN_FLAG] != 0
            or term[TERM_FLAG] != 0
            or (self._holding and idle)
            or self._poll
        )

    def wake_conditions(self) -> list[tuple[int, str, int]]:
        """Local words whose mutation requires servicing this detector.

        Returned as ``(region, offset, predicate)`` triples for
        ``wait_until_any``: a blocked-idle PE must wake when the token
        arrives or termination is declared.
        """
        nonzero = lambda v: v != 0  # noqa: E731 - tiny local predicate
        return [
            (REGION, TERM_FLAG, nonzero),
            (REGION, TOKEN_FLAG, nonzero),
        ]

    def service(
        self,
        created: int,
        executed: int,
        idle: bool,
        quiescent: bool | None = None,
    ) -> Generator:
        """Advance the protocol; call on every worker-loop iteration.

        ``created``/``executed`` are this PE's cumulative counters;
        ``idle`` signals the caller found no local work (PE 0 only starts
        rounds while idle, so detection traffic appears exactly when work
        is scarce).  ``quiescent`` (fault mode only) asserts the PE holds
        no live work at all — no local tasks, nothing stealable, inbox
        drained; it defaults to ``idle``.  Returns True once termination
        has been declared.
        """
        if self.terminated:
            return True
        if self.system.fault_aware and self.npes > 1:
            done = yield from self._service_fault(
                created, executed, idle, idle if quiescent is None else quiescent
            )
            return done
        if self.npes == 1:
            return self._service_alone(created, executed, idle)

        if self.rank == 0:
            if self._holding and idle:
                self._round += 1
                self._holding = False
                self._drained = not self._arrivals_pending()
                yield from self._forward(self._round, created, executed)
            elif self.pe.local_load(REGION, TOKEN_FLAG) == 1:
                # A round completed: totals exclude PE 0's share only if
                # counters moved since launch; PE 0's counts were folded
                # in at round start, so re-reading here is unnecessary.
                c = self.pe.local_load(REGION, TOKEN_CREATED)
                e = self.pe.local_load(REGION, TOKEN_EXECUTED)
                self.pe.local_store(REGION, TOKEN_FLAG, 0)
                self._holding = True
                if c == e and self._prev == (c, e) and self._drained:
                    yield from self._declare()
                    return True
                self._prev = (c, e)
            return False

        # Non-zero ranks forward immediately, busy or not, adding counts.
        if self.pe.local_load(REGION, TOKEN_FLAG) == 1:
            rnd = self.pe.local_load(REGION, TOKEN_ROUND)
            c = self.pe.local_load(REGION, TOKEN_CREATED) + created
            e = self.pe.local_load(REGION, TOKEN_EXECUTED) + executed
            self.pe.local_store(REGION, TOKEN_FLAG, 0)
            yield from self._forward(rnd, c, e)
        return False

    def _forward(self, rnd: int, created: int, executed: int) -> Generator:
        """One token hop: a single 4-word put to the ring successor."""
        nxt = (self.rank + 1) % self.npes
        yield self.pe.put_words(
            nxt, REGION, TOKEN_FLAG, [1, rnd, created, executed]
        )

    def _declare(self) -> Generator:
        """PE 0 broadcasts the termination flag to every PE."""
        for p in range(1, self.npes):
            yield self.pe.put_word_nb(p, REGION, TERM_FLAG, 1)
        self.pe.local_store(REGION, TERM_FLAG, 1)
        yield self.pe.quiet()

    # ------------------------------------------------------------------
    # fault-aware ring variant
    # ------------------------------------------------------------------
    def _dead(self, pe: int) -> bool:
        return self.system.faults.is_dead(pe, self.system.ctx.now)

    def _next_live(self) -> int:
        """Ring successor, skipping fail-stopped PEs (self if sole survivor)."""
        for k in range(1, self.npes):
            cand = (self.rank + k) % self.npes
            if not self._dead(cand):
                return cand
        return self.rank

    def _service_fault(
        self, created: int, executed: int, idle: bool, quiescent: bool
    ) -> Generator:
        """One fault-mode protocol step (see module docstring)."""
        pe = self.pe
        now = self.system.ctx.now
        if self.rank == 0:
            if pe.local_load(REGION, TOKEN_FLAG) == 1:
                word = pe.local_load(REGION, TOKEN_ROUND)
                rnd, qbit = word >> 1, bool(word & 1)
                c = pe.local_load(REGION, TOKEN_CREATED)
                e = pe.local_load(REGION, TOKEN_EXECUTED)
                pe.local_store(REGION, TOKEN_FLAG, 0)
                self._last_token = now
                if rnd == self._round:
                    # Stale rounds (duplicates of a regenerated token)
                    # are dropped; only the expected round counts.
                    self._holding = True
                    if (
                        self._prev == (c, e)
                        and (c == e or (qbit and self._prev_q))
                        and self._drained
                    ):
                        yield from self._declare_fault()
                        return True
                    self._prev = (c, e)
                    self._prev_q = qbit
            elif not self._holding and (
                now - self._last_token > self.system.token_timeout
            ):
                # The token vanished with a dead holder: regrow it.
                self._holding = True
                self.regenerations += 1
            if self._holding and idle:
                self._round += 1
                self._holding = False
                self._last_token = now
                self._drained = not self._arrivals_pending()
                yield from self._forward_fault(self._round, created, executed, quiescent)
            return False

        if pe.local_load(REGION, TOKEN_FLAG) == 1:
            word = pe.local_load(REGION, TOKEN_ROUND)
            rnd, qbit = word >> 1, bool(word & 1)
            c = pe.local_load(REGION, TOKEN_CREATED) + created
            e = pe.local_load(REGION, TOKEN_EXECUTED) + executed
            pe.local_store(REGION, TOKEN_FLAG, 0)
            yield from self._forward_fault(rnd, c, e, qbit and quiescent)
        return False

    def _forward_fault(
        self, rnd: int, created: int, executed: int, qbit: bool
    ) -> Generator:
        """Reliable token hop: retry timed-out puts, re-route around the
        dead, deliver to self when sole survivor."""
        word = (rnd << 1) | int(qbit)
        nxt = self._next_live()
        tried = 0
        while True:
            if nxt == self.rank:
                # Everyone else is dead; the round completes in place.
                pe = self.pe
                pe.local_store(REGION, TOKEN_ROUND, word)
                pe.local_store(REGION, TOKEN_CREATED, created)
                pe.local_store(REGION, TOKEN_EXECUTED, executed)
                pe.local_store(REGION, TOKEN_FLAG, 1)
                return
            try:
                yield self.pe.put_words(
                    nxt, REGION, TOKEN_FLAG, [1, word, created, executed]
                )
                return
            except FabricTimeoutError:
                tried += 1
                cand = self._next_live()
                if cand != nxt:
                    nxt, tried = cand, 0  # successor died: re-route
                elif tried >= _TOKEN_PUT_RETRIES:
                    return  # drop the token; PE 0 regenerates it

    def _declare_fault(self) -> Generator:
        """Reliable termination broadcast: acked puts, retried, dead skipped."""
        for p in range(1, self.npes):
            if self._dead(p):
                continue
            for _attempt in range(_DECLARE_RETRIES + 1):
                try:
                    yield self.pe.put_word(p, REGION, TERM_FLAG, 1)
                    break
                except FabricTimeoutError:
                    if self._dead(p):
                        break
        self.pe.local_store(REGION, TERM_FLAG, 1)


# ----------------------------------------------------------------------
# tree variant
# ----------------------------------------------------------------------
TREE_REGION = "term.tree"
# Per-PE words: child reports (round, created, executed) x 2 + down word.
T_CHILD0 = 0   # round of child 0's report
T_CHILD0_C = 1
T_CHILD0_E = 2
T_CHILD1 = 3
T_CHILD1_C = 4
T_CHILD1_E = 5
T_DOWN = 6     # (round << 1) | terminate, broadcast down the tree
T_WORDS = 7

_CHILD_BASE = {0: T_CHILD0, 1: T_CHILD1}


class TreeTerminationSystem:
    """Allocates the symmetric tree-reduction words for the job."""

    def __init__(self, ctx: ShmemCtx) -> None:
        self.ctx = ctx
        #: Open-system arrival source; see :class:`TerminationSystem`.
        self.arrival_source = None
        ctx.heap.alloc_words(TREE_REGION, T_WORDS)
        # TERM flag shares the ring detector's region layout.
        ctx.heap.alloc_words(REGION, WORDS)

    def handle(self, rank: int) -> "TreeTerminationDetector":
        """Detector bound to PE ``rank``."""
        return TreeTerminationDetector(self, rank)


class TreeTerminationDetector(_Detector):
    """Per-PE participant in the binary-tree four-counter protocol."""

    def __init__(self, system: TreeTerminationSystem, rank: int) -> None:
        super().__init__(system, rank)
        self._tree = system.ctx.heap.word_view(rank, TREE_REGION)  # read-only
        self.children = [
            c for c in (2 * rank + 1, 2 * rank + 2) if c < self.npes
        ]
        self.parent = (rank - 1) // 2 if rank > 0 else None
        self._round = 1       # round currently being collected
        self._reported = 0    # highest round this PE pushed up
        self._prev: tuple[int, int] | None = None
        # The root's gate, read when it starts a round: see the ring's.
        self._drained = False

    def needs_service(self, idle: bool) -> bool:
        """Would :meth:`service` do anything now?  The polling form of
        :meth:`wake_conditions`; see ``TerminationDetector.needs_service``."""
        return (
            self._term[TERM_FLAG] != 0
            or self._down_pending(self._tree[T_DOWN])
            or self._push_pending()
            or self.npes == 1
        )

    def _down_pending(self, word: int) -> bool:
        """Is there an unserviced down-wave word?"""
        return word != 0 and ((word & 1) == 1 or (word >> 1) > self._round)

    def _push_pending(self) -> bool:
        """Do we owe the parent a report we can now assemble?"""
        return self._reported < self._round and self._children_ready() is not None

    def wake_conditions(self) -> list[tuple[int, str, int]]:
        """Local words whose mutation requires servicing this detector:
        the termination flag, round advances from the parent, and child
        reports (interior nodes must forward subtree sums).

        Tree words are not cleared after servicing, so the predicates
        consult the detector's *live* state: they are true exactly while
        an unserviced event exists — no lost wakeups (an event landing
        just before blocking fires at registration) and no zero-time spin
        (after servicing, the predicates go false).
        """
        conds = [(REGION, TERM_FLAG, lambda v: v != 0)]
        conds.append((TREE_REGION, T_DOWN, lambda v: self._down_pending(v)))
        for idx in range(len(self.children)):
            conds.append(
                (TREE_REGION, _CHILD_BASE[idx], lambda v: self._push_pending())
            )
        return conds

    def _children_ready(self) -> tuple[int, int] | None:
        """Sum of children's reports for the current round, if complete."""
        tree = self._tree
        c_sum = e_sum = 0
        for idx, _child in enumerate(self.children):
            base = _CHILD_BASE[idx]
            if tree[base] != self._round:
                return None
            c_sum += tree[base + 1]
            e_sum += tree[base + 2]
        return c_sum, e_sum

    def service(self, created: int, executed: int, idle: bool) -> Generator:
        """Advance the protocol; call on every worker-loop iteration."""
        if self.terminated:
            return True
        if self.npes == 1:
            return self._service_alone(created, executed, idle)

        # Down-wave: adopt round advances from the parent.
        down = self.pe.local_load(TREE_REGION, T_DOWN)
        if down:
            rnd, term = down >> 1, down & 1
            if term:
                yield from self._broadcast_down(rnd, True)
                self.pe.local_store(REGION, TERM_FLAG, 1)
                return True
            if rnd > self._round:
                self._round = rnd
                yield from self._broadcast_down(rnd, False)

        # Up-wave: once all children reported this round, push our sums.
        if self._reported >= self._round:
            return False
        sums = self._children_ready()
        if sums is None:
            return False
        c_sum, e_sum = sums[0] + created, sums[1] + executed

        if self.parent is not None:
            base = _CHILD_BASE[(self.rank - 1) % 2]
            yield self.pe.put_words(
                self.parent, TREE_REGION, base, [self._round, c_sum, e_sum]
            )
            self._reported = self._round
            return False

        # Root: evaluate the four-counter test (only start rounds while
        # idle so detection traffic appears when work is scarce).
        if not idle:
            return False
        self._reported = self._round
        if c_sum == e_sum and self._prev == (c_sum, e_sum) and self._drained:
            yield from self._broadcast_down(self._round, True)
            self.pe.local_store(REGION, TERM_FLAG, 1)
            return True
        self._prev = (c_sum, e_sum)
        self._round += 1
        self._drained = not self._arrivals_pending()
        yield from self._broadcast_down(self._round, False)
        return False

    def _broadcast_down(self, rnd: int, terminate: bool) -> Generator:
        word = (rnd << 1) | int(terminate)
        for child in self.children:
            yield self.pe.put_word_nb(child, TREE_REGION, T_DOWN, word)
        yield self.pe.quiet()
