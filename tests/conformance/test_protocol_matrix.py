"""Protocol × backend conformance matrix.

Every registered protocol with a shared-memory layout runs the
golden §4 scenario — a 150-task allotment of 300 enqueued tasks drained
by a single thief — on all three substrates.  The contract checked
depends on the protocol's declared semantics:

* ``EXACTLY_ONCE`` (sws, sdc, localized): the three backends must agree
  on the *exact* stolen/kept partition (and its checksum), conserve the
  full task set with no duplicates, and — because steal-half volume
  arithmetic is substrate-independent — claim the golden volume schedule
  {75, 37, 19, 9, 5, 2, 1, 1, 1}.

* ``AT_LEAST_ONCE`` (ff-mult): counts may legally inflate under races,
  so equality is checked on *deduplicated sets* against the sequential
  oracle (every enqueued task appears somewhere, nothing fabricated).
  The single-task steal discipline still pins the volume schedule:
  every claim moves exactly one task.
"""

from __future__ import annotations

import pytest

from .backends import (
    GOLDEN_150,
    MATRIX_PROTOCOLS,
    NTOTAL,
    PROTOCOL_BACKENDS,
    partition_checksum,
)

pytestmark = [pytest.mark.conformance, pytest.mark.timeout(120)]

EXACTLY_ONCE_PROTOCOLS = ("sws", "sdc", "localized")
AT_LEAST_ONCE_PROTOCOLS = ("ff-mult",)
SEQUENTIAL_ORACLE = frozenset(range(NTOTAL))


@pytest.fixture(scope="module")
def matrix():
    """Observables for every (protocol, backend) cell, computed once."""
    return {
        (proto, backend): runner(proto)
        for proto in MATRIX_PROTOCOLS
        for backend, runner in PROTOCOL_BACKENDS.items()
    }


def test_matrix_protocols_match_registry():
    """The matrix rows cover exactly the multi-substrate protocols."""
    from repro.runtime.protocols import all_protocols

    expected = {p.name for p in all_protocols() if p.mp_impl is not None}
    assert set(MATRIX_PROTOCOLS) == expected


@pytest.mark.parametrize("proto", EXACTLY_ONCE_PROTOCOLS)
def test_exactly_once_partitions_identical(matrix, proto):
    """fabric ≡ threads ≡ mp on the stolen/kept partition."""
    partitions = {
        backend: (
            frozenset(matrix[proto, backend]["stolen"]),
            frozenset(matrix[proto, backend]["kept"]),
        )
        for backend in PROTOCOL_BACKENDS
    }
    reference = partitions["fabric"]
    for backend, partition in partitions.items():
        assert partition == reference, (proto, backend)


@pytest.mark.parametrize("proto", EXACTLY_ONCE_PROTOCOLS)
@pytest.mark.parametrize("backend", tuple(PROTOCOL_BACKENDS))
def test_exactly_once_conserves_tasks(matrix, proto, backend):
    """Every task appears exactly once across stolen ∪ kept."""
    obs = matrix[proto, backend]
    assert sorted(obs["stolen"] + obs["kept"]) == list(range(NTOTAL))


@pytest.mark.parametrize("proto", EXACTLY_ONCE_PROTOCOLS)
def test_exactly_once_checksums_agree(matrix, proto):
    """Order-independent partition checksums match across backends."""
    sums = {
        backend: (
            partition_checksum(matrix[proto, backend]["stolen"]),
            partition_checksum(matrix[proto, backend]["kept"]),
        )
        for backend in PROTOCOL_BACKENDS
    }
    assert len(set(sums.values())) == 1, (proto, sums)


@pytest.mark.parametrize("proto", EXACTLY_ONCE_PROTOCOLS)
@pytest.mark.parametrize("backend", tuple(PROTOCOL_BACKENDS))
def test_exactly_once_golden_volumes(matrix, proto, backend):
    """Steal-half arithmetic yields the §4 schedule on every substrate.

    This holds for SDC too: a lone thief halving a 150-task shared
    portion walks exactly the same {75, 37, 19, …} series as SWS's
    precomputed schedule — the arithmetic is protocol-independent.
    """
    assert matrix[proto, backend]["volumes"] == GOLDEN_150


@pytest.mark.parametrize("proto", AT_LEAST_ONCE_PROTOCOLS)
@pytest.mark.parametrize("backend", tuple(PROTOCOL_BACKENDS))
def test_at_least_once_covers_oracle(matrix, proto, backend):
    """Dedup-set equality against the sequential oracle.

    At-least-once semantics permit duplicates but never loss or
    fabrication: the union of stolen and kept ids, deduplicated, must
    equal the sequential task set exactly.
    """
    obs = matrix[proto, backend]
    seen = set(obs["stolen"]) | set(obs["kept"])
    assert seen == SEQUENTIAL_ORACLE


@pytest.mark.parametrize("proto", AT_LEAST_ONCE_PROTOCOLS)
@pytest.mark.parametrize("backend", tuple(PROTOCOL_BACKENDS))
def test_at_least_once_single_task_volumes(matrix, proto, backend):
    """The fence-free deque moves exactly one task per successful steal."""
    obs = matrix[proto, backend]
    assert obs["volumes"], (proto, backend)
    assert set(obs["volumes"]) == {1}


@pytest.mark.parametrize("proto", AT_LEAST_ONCE_PROTOCOLS)
def test_at_least_once_dedup_checksums_agree(matrix, proto):
    """Checksums over the deduplicated coverage agree across backends."""
    sums = {
        backend: partition_checksum(
            set(matrix[proto, backend]["stolen"])
            | set(matrix[proto, backend]["kept"])
        )
        for backend in PROTOCOL_BACKENDS
    }
    assert len(set(sums.values())) == 1, (proto, sums)
