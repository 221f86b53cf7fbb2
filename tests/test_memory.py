"""Tests for the symmetric heap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.errors import AddressError, PEIndexError, RegionError
from repro.fabric.memory import SymmetricHeap

U64 = (1 << 64) - 1


@pytest.fixture
def heap():
    h = SymmetricHeap(4)
    h.alloc_words("w", 16)
    h.alloc_bytes("b", 64)
    return h


class TestAllocation:
    def test_regions_independent_per_pe(self, heap):
        heap.store(0, "w", 3, 111)
        heap.store(1, "w", 3, 222)
        assert heap.load(0, "w", 3) == 111
        assert heap.load(1, "w", 3) == 222
        assert heap.load(2, "w", 3) == 0

    def test_fill_value(self):
        h = SymmetricHeap(2)
        h.alloc_words("f", 4, fill=7)
        assert h.load(0, "f", 0) == 7
        assert h.load(1, "f", 3) == 7

    def test_duplicate_region_rejected(self, heap):
        with pytest.raises(RegionError, match="already allocated"):
            heap.alloc_words("w", 8)

    def test_missing_region(self, heap):
        with pytest.raises(RegionError, match="no word region"):
            heap.load(0, "nope", 0)
        with pytest.raises(RegionError, match="no byte region"):
            heap.read_bytes(0, "nope", 0, 1)

    def test_spec_lookup(self, heap):
        assert heap.spec("w").length == 16
        assert heap.spec("b").kind == "bytes"
        with pytest.raises(RegionError):
            heap.spec("missing")

    def test_bad_sizes_rejected(self):
        h = SymmetricHeap(1)
        with pytest.raises(RegionError):
            h.alloc_words("z", 0)
        with pytest.raises(PEIndexError):
            SymmetricHeap(0)


class TestBounds:
    def test_word_offset_bounds(self, heap):
        with pytest.raises(AddressError):
            heap.load(0, "w", 16)
        with pytest.raises(AddressError):
            heap.load(0, "w", -1)
        with pytest.raises(AddressError):
            heap.load_words(0, "w", 14, 3)

    def test_byte_bounds(self, heap):
        with pytest.raises(AddressError):
            heap.read_bytes(0, "b", 60, 5)
        with pytest.raises(AddressError):
            heap.write_bytes(0, "b", 63, b"ab")

    def test_pe_bounds(self, heap):
        with pytest.raises(PEIndexError):
            heap.load(4, "w", 0)
        with pytest.raises(PEIndexError):
            heap.load(-1, "w", 0)


class TestAtomics:
    def test_fetch_add_returns_old(self, heap):
        assert heap.fetch_add(0, "w", 0, 5) == 0
        assert heap.fetch_add(0, "w", 0, 3) == 5
        assert heap.load(0, "w", 0) == 8

    def test_fetch_add_wraps_u64(self, heap):
        heap.store(0, "w", 0, U64)
        old = heap.fetch_add(0, "w", 0, 1)
        assert old == U64
        assert heap.load(0, "w", 0) == 0

    def test_fetch_add_high_field_no_corruption(self, heap):
        """A fetch-add on a high-order field never touches lower bits —
        the property the SWS stealval layout depends on."""
        low = 0xDEAD
        heap.store(0, "w", 0, ((1 << 24) - 1) << 40 | low)
        heap.fetch_add(0, "w", 0, 1 << 40)  # overflows the 24-bit field
        assert heap.load(0, "w", 0) & ((1 << 40) - 1) == low

    def test_swap(self, heap):
        heap.store(0, "w", 1, 10)
        assert heap.swap(0, "w", 1, 99) == 10
        assert heap.load(0, "w", 1) == 99

    def test_compare_swap_success(self, heap):
        heap.store(0, "w", 2, 7)
        assert heap.compare_swap(0, "w", 2, 7, 42) == 7
        assert heap.load(0, "w", 2) == 42

    def test_compare_swap_failure_leaves_value(self, heap):
        heap.store(0, "w", 2, 7)
        assert heap.compare_swap(0, "w", 2, 8, 42) == 7
        assert heap.load(0, "w", 2) == 7

    def test_store_masks_to_64_bits(self, heap):
        heap.store(0, "w", 0, (1 << 70) | 5)
        assert heap.load(0, "w", 0) == 5


class TestBulk:
    def test_words_round_trip(self, heap):
        heap.store_words(1, "w", 4, [1, 2, 3])
        assert heap.load_words(1, "w", 4, 3) == [1, 2, 3]

    def test_bytes_round_trip(self, heap):
        heap.write_bytes(2, "b", 10, b"hello world")
        assert heap.read_bytes(2, "b", 10, 11) == b"hello world"

    def test_empty_byte_read(self, heap):
        assert heap.read_bytes(0, "b", 0, 0) == b""

    @given(st.lists(st.integers(min_value=0, max_value=U64), min_size=1, max_size=16))
    @settings(max_examples=50)
    def test_word_values_round_trip(self, values):
        h = SymmetricHeap(1)
        h.alloc_words("r", len(values))
        h.store_words(0, "r", 0, values)
        assert h.load_words(0, "r", 0, len(values)) == values

    @given(st.binary(min_size=0, max_size=128))
    @settings(max_examples=50)
    def test_byte_values_round_trip(self, data):
        h = SymmetricHeap(1)
        h.alloc_bytes("r", max(1, len(data)))
        h.write_bytes(0, "r", 0, data)
        assert h.read_bytes(0, "r", 0, len(data)) == data


class TestWriteJournal:
    """The oracle's view of the heap: every word written, nothing else."""

    def test_each_mutator_journals_exactly_what_it_wrote(self, heap):
        journal = heap.attach_journal()
        heap.store(0, "w", 1, 5)
        heap.fetch_add(1, "w", 2, 3)
        heap.swap(2, "w", 3, 9)
        heap.compare_swap(3, "w", 4, 0, 7)       # matches: stores
        heap.compare_swap(3, "w", 4, 0, 8)       # fails: writes nothing
        heap.store_words(0, "w", 10, [1, 2, 3])  # one entry per word
        assert journal == [
            (0, "w", 1), (1, "w", 2), (2, "w", 3), (3, "w", 4),
            (0, "w", 10), (0, "w", 11), (0, "w", 12),
        ]
        assert heap.load(3, "w", 4) == 7

    def test_reads_and_byte_writes_are_not_journaled(self, heap):
        journal = heap.attach_journal()
        heap.load(0, "w", 0)
        heap.load_words(0, "w", 0, 4)
        heap.write_bytes(0, "b", 0, b"abc")
        heap.read_bytes(0, "b", 0, 3)
        assert journal == []

    def test_rejected_write_is_not_journaled(self, heap):
        journal = heap.attach_journal()
        with pytest.raises(AddressError):
            heap.store(0, "w", 16, 1)
        assert journal == []

    def test_consumer_drains_in_place(self, heap):
        journal = heap.attach_journal()
        heap.store(0, "w", 0, 1)
        journal.clear()
        heap.store(0, "w", 1, 1)
        assert journal == [(0, "w", 1)]

    def test_waiters_fire_with_a_journal_attached(self, heap):
        seen = []
        heap.add_waiter(1, "w", 5, lambda v: seen.append(v) or v >= 2)
        journal = heap.attach_journal()
        heap.fetch_add(1, "w", 5, 1)
        heap.fetch_add(1, "w", 5, 1)
        heap.fetch_add(1, "w", 5, 1)  # waiter satisfied and gone by now
        assert seen == [1, 2]
        assert len(journal) == 3

    def test_journal_fills_with_waiters_attached_afterwards(self, heap):
        journal = heap.attach_journal()
        seen = []
        heap.add_waiter(0, "w", 0, lambda v: seen.append(v) or True)
        heap.store(0, "w", 0, 4)
        heap.store(2, "w", 7, 4)
        assert seen == [4]
        assert journal == [(0, "w", 0), (2, "w", 7)]

    def test_detach_restores_the_unhooked_gate(self, heap):
        journal = heap.attach_journal()
        heap.detach_journal()
        heap.store(0, "w", 0, 1)
        assert journal == []
        # Exactly the pre-attach state: the gate is the (empty, false)
        # waiter table again, so the bare path skips ``_notify``.
        assert heap._watched is heap._waiters and not heap._watched
        assert heap._journal is None
        seen = []
        heap.add_waiter(0, "w", 1, lambda v: seen.append(v) or True)
        heap.store(0, "w", 1, 6)
        assert seen == [6] and not heap._watched
        heap.detach_journal()  # idempotent

    def test_one_journal_at_a_time(self, heap):
        heap.attach_journal()
        with pytest.raises(RuntimeError, match="already attached"):
            heap.attach_journal()

    def test_unattached_oracle_leaves_no_journal(self):
        from repro.runtime.oracle import PoolOracle
        from repro.runtime.pool import TaskPool
        from repro.runtime.registry import TaskRegistry

        pool = TaskPool(2, TaskRegistry())
        PoolOracle(pool)  # constructed, never attached
        assert pool.ctx.heap._journal is None
        assert not pool.ctx.heap._watched


def test_no_simulator_code_writes_words_behind_the_heaps_back():
    """The journal (and ``shmem_wait_until``) see a word write only if it
    goes through a :class:`SymmetricHeap` mutator.  Pin that: under
    ``src/repro/{core,runtime,shmem,fabric}`` nothing outside
    ``fabric/memory.py`` assigns through, deletes from, or calls a
    mutating list method on a name bound to a ``word_view``, and nothing
    reaches into the heap's ``_words`` table."""
    import ast
    from pathlib import Path

    import repro

    mutators = {"append", "extend", "insert", "pop", "remove", "clear",
                "sort", "reverse", "__setitem__", "__delitem__"}

    def ident(node):
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.id if isinstance(node, ast.Name) else None

    root = Path(repro.__file__).parent
    offenders = []
    files = [p for d in ("core", "runtime", "shmem", "fabric")
             for p in sorted((root / d).rglob("*.py"))
             if p != root / "fabric" / "memory.py"]
    assert len(files) > 30
    for path in files:
        tree = ast.parse(path.read_text())
        views = {
            ident(t)
            for n in ast.walk(tree) if isinstance(n, ast.Assign)
            and isinstance(n.value, ast.Call)
            and ident(n.value.func) == "word_view"
            for t in n.targets
        }
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and n.attr == "_words":
                offenders.append(f"{path.name}:{n.lineno} touches _words")
            if isinstance(n, (ast.Assign, ast.Delete)):
                targets = n.targets
            elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
                targets = [n.target]
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in mutators):
                targets = [ast.Subscript(value=n.func.value)]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Subscript) and ident(t.value) in views:
                    offenders.append(
                        f"{path.name}:{n.lineno} writes through the "
                        f"word view {ident(t.value)!r}")
    assert not offenders, offenders
