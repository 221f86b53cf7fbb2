"""Pluggable steal-protocol registry.

The paper compares exactly two protocols — Scioto's lock-based SDC
baseline and the fused-atomic SWS design — but the surrounding machinery
(fabric simulator, thread shim, multiprocess substrate, conformance
suite, invariant oracles, schedule explorers) is protocol-agnostic.  This
module gives every steal protocol one registered description so
``--protocol`` composes with every backend, workload, scheduler, and
oracle:

* **queue layout + owner/thief cores** — a lazy factory for the fabric
  queue system, plus the shared-memory layout the two real-time
  substrates (threads, processes) run it on;
* **semantics contract** — *exactly-once* (every spawned task executes
  exactly once; checksums and partitions must match bit-for-bit across
  backends) or *at-least-once-with-multiplicity* (duplicates are legal
  and accounted; conservation holds over the deduplicated set with
  ``executed == spawned + dup_handouts``);
* **composition hints** — the default victim selector, whether SWS-style
  steal damping applies, whether the fault-injection fabric is
  supported, and whether the protocol wants the tiered
  (socket/node/rack) topology and latency model;
* **comm counts** — the one-sided operation budget of a successful
  steal, extending the paper's Figure-2 comparison across the zoo.

Registered protocols:

``sws``
    The paper's Figure-4 epoch design: fused discover+claim via a single
    fetch-add on the packed stealval (3 comms, 2 blocking).
``sws-v1``
    The Figure-3 valid-bit variant (§4.1), kept for ablations.
``sdc``
    The Scioto split-queue/deferred-copy baseline (6 comms, 5 blocking).
``ff-mult``
    Fence-free work-stealing deque with multiplicity (Castañeda & Piña):
    plain reads + a plain tail store, no atomics on the steal path, so a
    task may be handed out more than once — at-least-once semantics with
    duplicate-aware accounting (3 comms, all blocking).
``localized``
    Localized work stealing (Suksompong, Leiserson & Schardl): the SWS
    steal core unchanged, but victims drawn tier-by-tier from a
    socket/node/rack hierarchy over the tiered latency model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable


@dataclass(frozen=True)
class SemanticsContract:
    """The correctness contract a protocol declares and oracles enforce.

    ``exactly_once`` protocols promise every spawned task executes exactly
    once; the oracles check strict conservation and the conformance suite
    demands bit-identical stolen/kept partitions across backends.
    At-least-once protocols may duplicate a task (never lose one); they
    must report every duplicate handout through the queue's
    ``dup_handouts`` counter *before* the duplicate can execute, and the
    books close as ``executed == spawned + dup_handouts``.
    """

    name: str
    exactly_once: bool
    description: str = ""


EXACTLY_ONCE = SemanticsContract(
    "exactly-once",
    True,
    "every spawned task executes exactly once; strict conservation",
)

AT_LEAST_ONCE = SemanticsContract(
    "at-least-once",
    False,
    "tasks may duplicate (multiplicity >= 1), never vanish; "
    "executed == spawned + dup_handouts",
)


@dataclass(frozen=True)
class Protocol:
    """One registered steal protocol.

    Attributes
    ----------
    name:
        CLI identity (``--protocol NAME``).
    title:
        One-line human description for tables and ``--help``.
    semantics:
        The :class:`SemanticsContract` the oracles enforce.
    queue_system:
        Lazy factory ``(ctx, queue_config) -> queue system`` for the
        fabric simulator backend; its handles meet the owner/thief
        contract of :mod:`repro.core.split_queue`.
    steal_half:
        A steal takes half of what the victim advertises (the paper's
        choice); ``False`` for a protocol that moves exactly one task
        per steal.
    default_victim:
        Victim-selector kind when the caller does not pick one.
    supports_damping:
        Whether SWS steal damping (probe-first empty mode) applies.
    supports_faults:
        Whether the fault-injection fabric has a recovery path.
    tiered:
        Protocol wants the socket/node/rack tiered topology + latency
        model by default (localized stealing).
    comms_total / comms_blocking:
        One-sided fabric operations per successful steal (Fig. 2 style).
    mp_impl:
        The :data:`repro.mp.queue.LAYOUTS` entry the threads and mp
        backends run this protocol on (both hammers take it as
        ``impl``), or ``None`` when it has no real-time substrate.
    notes:
        Free-form remarks for docs/tables.
    """

    name: str
    title: str
    semantics: SemanticsContract
    queue_system: Callable
    steal_half: bool = True
    default_victim: str = "uniform"
    supports_damping: bool = False
    supports_faults: bool = False
    tiered: bool = False
    comms_total: int = 0
    comms_blocking: int = 0
    mp_impl: str | None = None
    notes: str = ""


_REGISTRY: dict[str, Protocol] = {}


def register_protocol(protocol: Protocol) -> Protocol:
    """Add ``protocol`` to the registry (name must be unused)."""
    if protocol.name in _REGISTRY:
        raise ValueError(f"protocol {protocol.name!r} already registered")
    _REGISTRY[protocol.name] = protocol
    return protocol


def get_protocol(name: str) -> Protocol:
    """Look up a registered protocol by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def protocol_names() -> tuple[str, ...]:
    """Registered protocol names, in registration order."""
    return tuple(_REGISTRY)


def all_protocols() -> tuple[Protocol, ...]:
    """Every registered protocol, in registration order."""
    return tuple(_REGISTRY.values())


# ----------------------------------------------------------------------
# Lazy backend factories.  Each names a class by module and imports it on
# first call, so that merely importing the registry (to list the protocol
# names, say) never drags in a queue module or the fabric under it: a
# pool compiles the one protocol it runs, when it is built.
# ----------------------------------------------------------------------
def _by_name(module: str, attr: str) -> Callable:
    def build(*args, **kw):
        return getattr(import_module(module, __package__), attr)(*args, **kw)

    return build


_fabric_sws = _by_name("..core.sws_queue", "SwsQueueSystem")
_fabric_sws_v1 = _by_name("..core.sws_v1_queue", "SwsV1QueueSystem")
_fabric_sdc = _by_name("..core.sdc_queue", "SdcQueueSystem")
_fabric_ffmult = _by_name("..core.ffmult_queue", "FfMultQueueSystem")


register_protocol(
    Protocol(
        name="sws",
        title="Structured work stealing: fused fetch-add discover+claim (Fig. 4)",
        semantics=EXACTLY_ONCE,
        queue_system=_fabric_sws,
        supports_damping=True,
        supports_faults=True,
        comms_total=3,
        comms_blocking=2,
        mp_impl="sws",
        notes="paper's protocol; epoch-sliced completion array",
    )
)

register_protocol(
    Protocol(
        name="sws-v1",
        title="SWS valid-bit variant (Fig. 3, §4.1)",
        semantics=EXACTLY_ONCE,
        queue_system=_fabric_sws_v1,
        supports_damping=True,
        supports_faults=False,
        comms_total=3,
        comms_blocking=2,
        notes="ablation only: no epoch turnover, no fault recovery",
    )
)

register_protocol(
    Protocol(
        name="sdc",
        title="Scioto SDC baseline: split queue, deferred copies (Fig. 2)",
        semantics=EXACTLY_ONCE,
        queue_system=_fabric_sdc,
        supports_faults=True,
        comms_total=6,
        comms_blocking=5,
        mp_impl="sdc",
        notes="lock-based; aborting steals; per-seq completion ring",
    )
)

register_protocol(
    Protocol(
        name="ff-mult",
        title="Fence-free deque with multiplicity (Castañeda & Piña)",
        semantics=AT_LEAST_ONCE,
        queue_system=_fabric_ffmult,
        steal_half=False,
        supports_faults=False,
        comms_total=3,
        comms_blocking=3,
        mp_impl="ff-mult",
        notes="no atomics on the steal path; duplicates legal, accounted",
    )
)

register_protocol(
    Protocol(
        name="localized",
        title="Localized work stealing (Suksompong, Leiserson & Schardl)",
        semantics=EXACTLY_ONCE,
        queue_system=_fabric_sws,
        default_victim="tiered",
        supports_damping=True,
        supports_faults=True,
        tiered=True,
        comms_total=3,
        comms_blocking=2,
        mp_impl="sws",
        notes="SWS steal core + tier-biased victims over socket/node/rack",
    )
)
