"""Unbalanced-tree node expansion rules (UTS GEO and BIN trees).

A node's child count is a deterministic function of its SHA-1 state and
depth, so the tree is identical no matter which PE expands which node:

* **GEO** (geometric): the child count is geometrically distributed with
  mean ``b(d)``, where the branching factor ``b(d)`` follows a *shape*
  law — ``FIXED`` keeps ``b0`` at every level (depth-limited by
  ``gen_mx``), ``LINEAR`` tapers ``b0`` linearly to zero at ``gen_mx``.
  This is the family the paper's 270 B-node T1WL tree belongs to.
* **BIN** (binomial): the root has exactly ``b0`` children; every other
  node has ``m`` children with probability ``q`` and none otherwise.
  Near-critical ``q*m ≈ 1`` produces the wild subtree-size variance that
  makes UTS hard to balance.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

from .sha1_rng import _CHILD, _TWO31, root_state, to_prob

_SHA1 = hashlib.sha1


class TreeType(Enum):
    """UTS tree families."""

    GEO = "geo"
    BIN = "bin"


class GeoShape(Enum):
    """Branching-factor laws for GEO trees (the UTS reference set)."""

    FIXED = "fixed"    #: b(d) = b0 for d < gen_mx
    LINEAR = "linear"  #: b(d) = b0 * (1 - d / gen_mx)
    EXPDEC = "expdec"  #: b(d) = b0 * d^(-ln(b0)/ln(gen_mx)) — poly decay
    CYCLIC = "cyclic"  #: b(d) = b0^sin(2*pi*d/gen_mx), cut at 5*gen_mx


@dataclass(frozen=True)
class UtsParams:
    """Complete specification of one UTS tree."""

    tree_type: TreeType = TreeType.GEO
    b0: float = 4.0          # root/branching factor
    gen_mx: int = 6          # GEO depth horizon
    shape: GeoShape = GeoShape.LINEAR
    q: float = 15.0 / 121.0  # BIN: child-burst probability
    m: int = 8               # BIN: children per burst
    root_seed: int = 19

    def __post_init__(self) -> None:
        if self.b0 <= 0:
            raise ValueError(f"b0 must be positive, got {self.b0}")
        if self.gen_mx < 1:
            raise ValueError(f"gen_mx must be >= 1, got {self.gen_mx}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must be in [0,1], got {self.q}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.tree_type is TreeType.BIN and self.q * self.m > 1.0:
            raise ValueError(
                f"supercritical BIN tree (q*m = {self.q * self.m:.4f} > 1) "
                f"has infinite expected size"
            )

    def root(self) -> bytes:
        """State of the tree root."""
        return root_state(self.root_seed)


def branching_factor(params: UtsParams, depth: int) -> float:
    """Expected child count of a GEO node at ``depth``.

    Follows the UTS reference implementation's shape functions; CYCLIC
    trees cut off at ``5 * gen_mx`` instead of ``gen_mx``.
    """
    if params.shape is GeoShape.CYCLIC:
        if depth > 5 * params.gen_mx:
            return 0.0
        return params.b0 ** math.sin(2.0 * math.pi * depth / params.gen_mx)
    if depth >= params.gen_mx:
        return 0.0
    if params.shape is GeoShape.FIXED:
        return params.b0
    if params.shape is GeoShape.EXPDEC:
        if depth == 0:
            return params.b0
        return params.b0 * depth ** (-math.log(params.b0) / math.log(params.gen_mx))
    return params.b0 * (1.0 - depth / params.gen_mx)


@lru_cache(maxsize=4096)
def _geo_log1mp(params: UtsParams, depth: int) -> float:
    """``log(1 - p)`` of the geometric draw at ``depth``; 0.0 = no children.
    A pure function of ``(params, depth)``: every node at a depth shares it.
    """
    b = branching_factor(params, depth)
    if b <= 0.0:
        return 0.0
    return math.log(1.0 - 1.0 / (1.0 + b))


def geo_log1mp_table(params: UtsParams) -> tuple[float, ...]:
    """``log(1 - p)`` of a GEO tree's geometric draw, indexed by depth.

    Built once per tree by :func:`uts_step`, the one per-node fast path,
    so a node costs a tuple index instead of hashing ``params`` through
    :func:`_geo_log1mp`'s cache.  Depths past the table, like entries of
    0.0, are leaves.
    """
    horizon = 5 * params.gen_mx if params.shape is GeoShape.CYCLIC else params.gen_mx
    return tuple(_geo_log1mp(params, d) for d in range(horizon + 1))


def num_children(params: UtsParams, state: bytes, depth: int, is_root: bool) -> int:
    """Deterministic child count of one node (the UTS expansion rule)."""
    if params.tree_type is TreeType.GEO:
        # Geometric draw with mean b: reference implementation formula.
        log1mp = _geo_log1mp(params, depth)
        if log1mp == 0.0:
            return 0
        return int(math.log(1.0 - to_prob(state)) / log1mp)  # to_prob < 1
    # BIN
    if is_root:
        return int(params.b0)
    return params.m if to_prob(state) < params.q else 0


def expand(params: UtsParams, state: bytes, depth: int, is_root: bool = False) -> list[bytes]:
    """Child states of one node: :func:`~.sha1_rng.spawn`'s digests,
    whose checks ``num_children``'s draw already made."""
    return [_SHA1(state + _CHILD.pack(i)).digest()
            for i in range(num_children(params, state, depth, is_root))]


def expand_step(params: UtsParams) -> Callable:
    """The reference :func:`expand` as a node step: ``(state, depth)``
    in, its children's nodes out; the root is depth 0."""
    def step(node):
        state, depth = node
        return [(c, depth + 1) for c in expand(params, state, depth, depth == 0)]

    return step


def uts_step(params: UtsParams) -> Callable:
    """The tree's one task body on every substrate: :func:`expand_step`'s
    nodes.  GEO trees draw exactly as :func:`num_children` does, through
    the per-depth table; BIN trees run :func:`expand_step` itself.
    """
    if params.tree_type is not TreeType.GEO:
        return expand_step(params)

    table = geo_log1mp_table(params)
    horizon = len(table)
    draw, index = _CHILD.unpack_from, _CHILD.pack   # the draw, a child's index
    sha1, log = _SHA1, math.log

    def step(node):
        state, depth = node
        log1mp = table[depth] if depth < horizon else 0.0
        if log1mp == 0.0:
            return ()
        n = int(log(1.0 - (draw(state)[0] & 0x7FFFFFFF) / _TWO31) / log1mp)
        if not n:
            return ()
        depth += 1
        return [(sha1(state + index(i)).digest(), depth) for i in range(n)]

    return step
