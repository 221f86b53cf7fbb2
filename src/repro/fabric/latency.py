"""Network latency model for the simulated RDMA fabric.

The model is the classic alpha-beta (postal) model extended with
operation-specific constants, matching how one-sided RDMA verbs behave on
real hardware:

* every message pays a *software injection overhead* (``alpha_sw``) on the
  initiator — the cost of composing the verb and ringing the doorbell;
* the wire adds a one-way *propagation latency* that depends on whether the
  two PEs share a node (``half_rtt_intra`` / ``half_rtt_inter``);
* payload bytes stream at ``1 / bandwidth`` seconds per byte (``beta``);
* fetching operations (get, fetch-add, swap, compare-swap) must wait a full
  round trip before the initiator observes the result;
* non-fetching operations (put, atomic add/put) can be fire-and-forget: the
  initiator only pays the injection overhead and the payload occupancy, and
  completion is guaranteed by a later ``quiet``/fence;
* atomic operations on the target NIC take ``amo_process`` seconds of
  serialized NIC occupancy, which models contention when many thieves hit
  one stealval word.

All times are in **seconds** of virtual time.  The default preset is
calibrated to the paper's testbed (Mellanox EDR 100 Gb/s InfiniBand,
ConnectX-6): ~0.9 us one-way small-message latency, ~12 GB/s effective
payload bandwidth, ~80 ns injection overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class LatencyModel:
    """Cost parameters for one-sided fabric operations.

    Attributes
    ----------
    alpha_sw:
        Initiator-side software overhead per message, seconds.
    half_rtt_inter:
        One-way wire latency between PEs on different nodes, seconds.
    half_rtt_intra:
        One-way latency between PEs on the same node (loopback through
        the HCA or shared memory), seconds.
    beta:
        Seconds per payload byte (inverse bandwidth).
    amo_process:
        Target-NIC serialization time per atomic, seconds.  Concurrent
        atomics aimed at the same PE queue up behind each other for this
        long, modelling NIC atomic-unit occupancy.
    get_process:
        Target-NIC serialization time per get/read, seconds.
    local_penalty:
        Multiplier applied to a PE targeting *itself* through the fabric
        API (self-targeted ops short-circuit but still pay software cost).
    jitter:
        Fractional wire-latency jitter in [0, 1).  Each message's one-way
        latency is multiplied by ``1 + jitter * u`` with a deterministic
        per-op draw ``u ∈ [0, 1)`` — modelling switch queueing noise while
        keeping runs reproducible.
    link_serialize:
        When True, payload-bearing operations additionally occupy the
        target PE's link for their streaming time: concurrent bulk
        transfers to/from one PE queue behind each other (HCA DMA-engine
        contention).  Off by default — the alpha-beta model alone
        matches the paper's single-transfer analysis.
    """

    alpha_sw: float = 80e-9
    half_rtt_inter: float = 0.9e-6
    half_rtt_intra: float = 0.25e-6
    beta: float = 1.0 / 12.0e9
    amo_process: float = 35e-9
    get_process: float = 20e-9
    local_penalty: float = 0.25
    jitter: float = 0.0
    link_serialize: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def one_way(self, same_node: bool) -> float:
        """One-way message latency, excluding payload streaming time."""
        return self.half_rtt_intra if same_node else self.half_rtt_inter

    def payload_time(self, nbytes: int) -> float:
        """Time for ``nbytes`` of payload to stream onto the wire."""
        if nbytes < 0:
            raise ValueError(f"negative payload size: {nbytes}")
        return nbytes * self.beta

    def scaled(self, factor: float) -> "LatencyModel":
        """Return a copy with all latency terms multiplied by ``factor``.

        Useful for sensitivity studies ("what if the network were 4x
        slower?") without editing individual fields.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            alpha_sw=self.alpha_sw * factor,
            half_rtt_inter=self.half_rtt_inter * factor,
            half_rtt_intra=self.half_rtt_intra * factor,
            beta=self.beta * factor,
            amo_process=self.amo_process * factor,
            get_process=self.get_process * factor,
        )


@dataclass(frozen=True)
class TieredLatencyModel(LatencyModel):
    """Latency model with socket/node/rack wire tiers (localized stealing).

    Extends the two-level intra/inter model with a four-tier one-way
    latency table matching :class:`~repro.fabric.topology.TieredTopology`
    tiers: same-socket loopback (``half_rtt_socket``), cross-socket
    same-node (``half_rtt_intra``), same-rack leaf switch
    (``half_rtt_inter``), and cross-rack spine traversal
    (``half_rtt_xrack``).  The inherited two-level :meth:`one_way` keeps
    its meaning (tier 1 / tier 2), so code unaware of tiers still gets
    sensible numbers.
    """

    half_rtt_socket: float = 0.12e-6
    half_rtt_xrack: float = 1.6e-6

    def one_way_tier(self, tier: int) -> float:
        """One-way latency for a 0..3 hierarchy tier."""
        if tier <= 0:
            return self.half_rtt_socket
        if tier == 1:
            return self.half_rtt_intra
        if tier == 2:
            return self.half_rtt_inter
        return self.half_rtt_xrack

    def scaled(self, factor: float) -> "TieredLatencyModel":
        """Scale every latency term, including the tier extremes."""
        base = super().scaled(factor)
        return replace(
            base,
            half_rtt_socket=self.half_rtt_socket * factor,
            half_rtt_xrack=self.half_rtt_xrack * factor,
        )


#: Preset calibrated to the paper's EDR InfiniBand testbed.
EDR_INFINIBAND = LatencyModel()

#: A deliberately slow fabric (Ethernet-ish) used to magnify protocol
#: differences in examples and tests.
SLOW_ETHERNET = LatencyModel(
    alpha_sw=0.5e-6,
    half_rtt_inter=12.0e-6,
    half_rtt_intra=2.0e-6,
    beta=1.0 / 1.0e9,
    amo_process=250e-9,
    get_process=150e-9,
)

#: Zero-latency fabric: protocol logic only.  Handy for unit tests where
#: virtual-time arithmetic would obscure the assertion.
ZERO_LATENCY = LatencyModel(
    alpha_sw=0.0,
    half_rtt_inter=0.0,
    half_rtt_intra=0.0,
    beta=0.0,
    amo_process=0.0,
    get_process=0.0,
)

#: EDR fabric with socket/node/rack tiers resolved — the default model
#: for the ``localized`` protocol's tier-biased victim selection.
TIERED_EDR = TieredLatencyModel()

PRESETS = {
    "edr": EDR_INFINIBAND,
    "ethernet": SLOW_ETHERNET,
    "zero": ZERO_LATENCY,
    "tiered-edr": TIERED_EDR,
}


def get_preset(name: str) -> LatencyModel:
    """Look up a named latency preset (``edr``, ``ethernet``, ``zero``)."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown latency preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
