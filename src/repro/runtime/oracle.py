"""Cross-PE invariant oracles for schedule exploration.

A :class:`PoolOracle` attaches to a :class:`~repro.runtime.pool.TaskPool`
as an engine *observer*: after **every** discrete event it checks the
protocol invariants whose violation would mean the steal protocol lost,
duplicated, or corrupted work — exactly the failure modes a racy
interleaving of the paper's fused fetch-add window would produce:

* **per-PE structural sanity** — each queue's ``oracle_check`` hook:
  index ordering, capacity, stealval field ranges, stealval/record
  agreement, epoch accounting (``folded <= claims <= schedule length``);
* **completion-array discipline** — every completion word may only make
  the transitions ``0 -> volume`` (one thief's notification, where the
  steal-half schedule fixes the legal volume), ``volume -> 0`` (owner
  reclaim/turnover) or stay put.  Two thieves claiming the same block
  both add into the same slot, so a **double-claim** surfaces as a
  nonzero-to-different-nonzero transition the instant the second
  notification lands;
* **attempted-steal monotonicity** — within one stealval publication the
  asteals counter may only grow (a shrink means a lost increment);
* **task conservation** — parameterized on the protocol's declared
  semantics contract (:mod:`repro.runtime.protocols`).  Exactly-once
  protocols: tasks resident in queues never exceed ``spawned - executed``
  globally (each event), and at termination the books balance exactly —
  every spawned task executed exactly once and every queue drained.
  At-least-once protocols (the fence-free multiplicity deque): a stale
  tail store may legally re-expose consumed tasks mid-run, so the
  per-event resident bound would false-positive; instead every duplicate
  handout is tallied by the queue *at handout time* and the final books
  must close as ``spawned + dup_handouts == executed`` — a genuinely
  lost task still fails (the sum cannot balance), while a legal
  duplicate cannot.

**What is checked when.**  Every per-PE check is a function of that PE's
own heap rows and owner-local fields, so it is re-run only for a PE some
*witnessed* fact says an event changed: a word of it in the heap's write
journal, a resume of its process (:meth:`PoolOracle.watch`), a declared
outside writer (:meth:`PoolOracle.touched`) — or always, for a queue
whose check reads more than that (``oracle_owner_local = False``).  The
first check covers every PE.  docs/testing.md has the full table.

All checks are read-only; the oracle never perturbs the simulation, so a
clean run under the oracle is bit-identical to the same run without it.
Violations raise :class:`~repro.fabric.errors.OracleViolation`, which the
exploration driver (:mod:`repro.analysis.explore`) pairs with the
scheduler's recorded choice sequence into a replayable failure trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..fabric.errors import OracleViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pool import TaskPool

_UNBUILT = object()  # oracle_comp_expected() not asked for yet


class _Resumed:
    """Generator proxy: whatever the engine calls on a PE's process
    (``send`` / ``throw`` / ``close``, and nothing else) first marks the
    PE dirty, so the oracle sees every step of the PE's own code while
    the engine loop stays untouched."""

    def __init__(self, gen, mark, rank: int) -> None:
        self._gen, self._mark, self._rank = gen, mark, rank

    def __getattr__(self, name: str):
        self._mark(self._rank)
        return getattr(self._gen, name)


class PoolOracle:
    """Invariant oracle over every PE of one task pool.

    Construct with the pool, then :meth:`attach` it
    (``TaskPool(oracle=True)`` does both).
    """

    def __init__(self, pool: "TaskPool") -> None:
        self.pool = pool
        #: rank -> worker, for every PE of the pool.
        self._worker = dict(enumerate(pool.workers))
        # Semantics contract: pools built outside the protocol registry
        # (or bare test harnesses) default to strict exactly-once.
        protocol = getattr(pool, "protocol", None)
        self.exactly_once = (
            protocol.semantics.exactly_once if protocol is not None else True
        )
        #: Violations would raise before incrementing, so this counts
        #: clean sweeps — a cheap "the oracle really ran" signal.
        self.checks_passed = 0
        self._faults = pool.ctx.faults
        self._conserve = self._faults is None and self.exactly_once
        # Cross-event tracking state, per watched PE.
        self._dirty = set(self._worker)  # the first check covers every PE
        self._journal: list[tuple[int, str, int]] | None = None
        self._comp: dict[int, list[int]] = {}  # live completion-word views
        self._written = {r: set() for r in self._worker}  # offsets to compare
        self._shadow = {r: {} for r in self._worker}  # their nonzero values
        self._prev_sv: dict[int, tuple] = {}
        #: Pool-wide [spawned, executed, resident] and each PE's share of
        #: it, kept current from the dirty PEs' deltas.
        self.books = [0, 0, 0]
        self._pe_books = dict.fromkeys(self._worker, (0, 0, 0))
        # One queue that is not owner-local: every PE, every event.
        self._sweep = not all(
            w.queue.oracle_owner_local for w in self._worker.values()
        )

    def attach(self) -> None:
        """Start observing: journal the heap's word writes and register
        :meth:`check` as an engine observer."""
        ctx = self.pool.ctx
        self._journal = ctx.heap.attach_journal()
        for rank, w in self._worker.items():
            region = w.queue.oracle_comp_region
            if region is not None:
                view = self._comp[rank] = ctx.heap.word_view(rank, region)
                # Whatever predates the journal is due at the first check.
                self._written[rank].update(i for i, v in enumerate(view) if v)
        ctx.engine.observers.append(self.check)

    def watch(self, rank: int, gen):
        """Wrap PE ``rank``'s process generator so its resumes are seen."""
        return _Resumed(gen, self._dirty.add, rank)

    def touched(self, rank: int) -> None:
        """Declare a write to ``rank``'s queue or worker statistics made
        from outside that PE's process (an engine event acting on it)."""
        self._dirty.add(rank)

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Run after one engine event; raises :class:`OracleViolation`."""
        dirty = self._dirty
        journal = self._journal
        if journal is None:
            raise RuntimeError("PoolOracle.check() before attach()")
        for pe, region, offset in journal:
            dirty.add(pe)
            if region == self._worker[pe].queue.oracle_comp_region:
                self._written[pe].add(offset)
        journal.clear()
        if self._sweep:
            dirty.update(self._worker)
        if dirty:
            faults = self._faults
            now = self.pool.ctx.engine.now
            for rank in sorted(dirty):
                if faults is not None and faults.is_dead(rank, now):
                    continue  # a fail-stopped PE's memory is moot
                w = self._worker[rank]
                q = w.queue
                q.oracle_check()
                if self._written[rank]:
                    self._check_comp_transitions(q)
                self._check_asteals_monotone(q)
                if self._conserve:
                    new = (w.stats.tasks_spawned, w.stats.tasks_executed,
                           q.local_count + q.stealable)
                    for i, was in enumerate(self._pe_books[rank]):
                        self.books[i] += new[i] - was
                    self._pe_books[rank] = new
            dirty.clear()
            if self._conserve:
                self._check_conservation()
        self.checks_passed += 1

    def check_final(self) -> None:
        """End-of-run books: conservation per the semantics contract,
        drained queues."""
        if self._faults is not None:
            return  # abandoned steals legitimately break conservation
        workers = self._worker.values()
        spawned = sum(w.stats.tasks_spawned for w in workers)
        executed = sum(w.stats.tasks_executed for w in workers)
        dups = sum(w.queue.dup_handouts for w in workers)
        if self.exactly_once:
            if spawned != executed:
                raise OracleViolation(
                    "conservation-final",
                    f"{spawned} tasks spawned but {executed} executed "
                    f"({spawned - executed} lost or duplicated)",
                )
        elif spawned + dups != executed:
            raise OracleViolation(
                "conservation-final",
                f"{spawned} tasks spawned + {dups} duplicate handouts "
                f"but {executed} executed "
                f"({spawned + dups - executed} lost or unaccounted)",
            )
        for w in workers:
            q = w.queue
            if q.local_count or q.stealable:
                raise OracleViolation(
                    "drain-final",
                    f"queue not empty at termination: local={q.local_count} "
                    f"stealable={q.stealable}",
                    pe=w.rank,
                )

    # ------------------------------------------------------------------
    def _check_comp_transitions(self, q) -> None:
        """Completion words: written once per steal, with the legal volume.

        Compares each written word's value now against its value at the
        last check — the net transition, however often the event wrote it.
        """
        comp, shadow = self._comp[q.rank], self._shadow[q.rank]
        written = self._written[q.rank]
        expected = _UNBUILT
        for off in sorted(written):
            val = comp[off]
            old = shadow.get(off, 0)
            if val == old:
                continue
            if val == 0:
                del shadow[off]  # owner reclaim / epoch turnover
                continue
            if old != 0:
                raise OracleViolation(
                    "double-claim",
                    f"completion word {off} jumped {old} -> {val}: two "
                    f"thieves notified the same steal slot",
                    pe=q.rank,
                )
            if expected is _UNBUILT:
                expected = q.oracle_comp_expected()
            if expected is None:
                if not 1 <= val <= q.cfg.qsize:
                    raise OracleViolation(
                        "comp-volume-range",
                        f"completion word {off} holds {val}, outside "
                        f"[1, {q.cfg.qsize}]",
                        pe=q.rank,
                    )
            elif expected.get(off) != val:
                raise OracleViolation(
                    "comp-volume",
                    f"completion word {off} holds {val}; the steal-half "
                    f"schedule allows {expected.get(off, 'nothing')}",
                    pe=q.rank,
                )
            shadow[off] = val
        written.clear()

    def _check_asteals_monotone(self, q) -> None:
        """asteals only grows within one stealval publication."""
        sv = self._stealval_view(q)
        if sv is None:
            return
        key, asteals = sv
        prev = self._prev_sv.get(q.rank)
        if prev is not None and prev[0] == key and asteals < prev[1]:
            raise OracleViolation(
                "asteals-monotone",
                f"attempted-steal counter shrank {prev[1]} -> {asteals} "
                f"within publication {key}",
                pe=q.rank,
            )
        self._prev_sv[q.rank] = sv

    @staticmethod
    def _stealval_view(q) -> tuple | None:
        """(publication key, asteals) for a stealval queue; None otherwise.

        The key is the owner's monotone publication counter, so two
        different allotments that happen to advertise identical
        (epoch, itasks, tail) fields are never conflated — without it, an
        asteals reset across such a re-publication would look like a lost
        increment.
        """
        if q.codec is None:
            return None
        v = q.codec.unpack(q._load_stealval())
        if v.locked:
            return None
        return q.publications, v.asteals

    def _check_conservation(self) -> None:
        """Resident tasks can never exceed spawned - executed."""
        spawned, executed, resident = self.books
        if resident > spawned - executed:
            raise OracleViolation(
                "conservation",
                f"{resident} tasks resident in queues but only "
                f"{spawned - executed} unexecuted exist "
                f"(spawned={spawned}, executed={executed}): work was "
                f"duplicated",
            )


def check_serving_conservation(books: dict) -> None:
    """Open-system conservation at the end of a serving run.

    ``books`` carries the serving frontend's ledger (``emitted`` from the
    arrival process's own trace, ``injected``/``shed`` counted by the
    injection path) and the pool's closed-system sums (``spawned``
    includes injections, ``executed``, ``resident``).  Two identities
    must hold:

    * every emitted arrival was either injected or shed —
      ``emitted == injected + shed``.  A silently dropped arrival is
      neither, so it is caught here;
    * the generalized four-counter books balance —
      ``(spawned - injected) + emitted == executed + resident + shed``,
      i.e. internal spawns plus the full arrival stream are accounted
      for by executions, queue residue, and shedding.
    """
    emitted = books["emitted"]
    injected = books["injected"]
    shed = books["shed"]
    spawned = books["spawned"]
    executed = books["executed"]
    resident = books["resident"]
    if emitted != injected + shed:
        raise OracleViolation(
            "conservation-open",
            f"{emitted} arrivals emitted but only {injected} injected + "
            f"{shed} shed ({emitted - injected - shed} arrival(s) silently "
            f"dropped)",
        )
    internal = spawned - injected
    if internal + emitted != executed + resident + shed:
        raise OracleViolation(
            "conservation-open",
            f"open-system books unbalanced: {internal} internal spawns + "
            f"{emitted} arrivals != {executed} executed + {resident} "
            f"resident + {shed} shed",
        )
