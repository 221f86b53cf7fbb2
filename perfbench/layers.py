"""Fold a ``cProfile`` run into self time per layer of the program.

The layers are the program's own modules.  A source file is assigned to a
layer by the longest matching prefix of its path below the ``repro``
package, so a file that a later change moves or adds still lands in its
package's layer without an edit here; ``other`` is the fallback.

Code that does not belong to the program (C built-ins, the standard
library) has no layer of its own: its self time is charged to the layer
that called it, following the profile's caller edges upward until a
program frame is found.
"""

from __future__ import annotations

import os

#: Path prefix below ``repro/`` -> layer.  Longest prefix wins; the
#: one-directory entries are the fallbacks for files not listed by name.
LAYER_PREFIXES = {
    "fabric/engine.py": "engine",
    "fabric/scheduler.py": "scheduler",
    "fabric/nic.py": "nic",
    "fabric/latency.py": "nic",
    "fabric/topology.py": "nic",
    "fabric/faults.py": "nic",
    "fabric/memory.py": "heap",
    "shmem/heap.py": "heap",
    "fabric/metrics.py": "stats",
    "fabric/trace.py": "stats",
    "runtime/stats.py": "stats",
    "runtime/termination.py": "termination",
    "runtime/serving.py": "serving",
    "runtime/arrivals.py": "serving",
    "runtime/oracle.py": "oracle",
    "fabric/": "engine",
    "shmem/": "shmem",
    "core/": "protocol",
    "runtime/": "worker",
    "workloads/": "workload",
}

LAYERS = (
    "engine", "scheduler", "nic", "heap", "shmem", "protocol", "worker",
    "termination", "serving", "oracle", "stats", "workload", "other",
)

_PACKAGE_MARK = os.sep + "repro" + os.sep


def layer_of_path(path: str, workload_files: frozenset[str] = frozenset()) -> str | None:
    """Layer of a source file, or ``None`` for code outside the program.

    ``workload_files`` are harness files whose functions are task bodies
    registered with the program; they count as the ``workload`` layer.
    """
    if path in workload_files:
        return "workload"
    cut = path.rfind(_PACKAGE_MARK)
    if cut < 0:
        return None
    rel = path[cut + len(_PACKAGE_MARK):].replace(os.sep, "/")
    best = ""
    for prefix in LAYER_PREFIXES:
        if rel.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return LAYER_PREFIXES[best] if best else "other"


def fold_profile(raw_stats: dict, workload_files: frozenset[str] = frozenset()) -> dict:
    """``{layer: {"self_s": float, "calls": int}}`` from ``Profile.stats``.

    ``raw_stats`` maps ``(file, line, name)`` to
    ``(primitive calls, calls, self time, cumulative time, callers)``
    where ``callers`` maps a caller key to ``(calls, primitive calls, self
    time, cumulative time)`` of that edge — the layout ``Profile.stats``
    has after ``create_stats()``.
    """
    own = {
        func: layer_of_path(func[0], workload_files) for func in raw_stats
    }
    shares: dict = {}

    def caller_shares(func, seen: frozenset) -> dict[str, float]:
        """Layer -> fraction of ``func``'s invocations, for foreign code."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = raw_stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        if func in seen or not callers:
            return {"other": 1.0}
        seen = seen | {func}
        # Weight each caller by the calls it made: cumulative time of an
        # edge double-counts under recursion, call counts do not.
        total = sum(edge[0] for edge in callers.values()) or 1
        out: dict[str, float] = {}
        for caller, edge in callers.items():
            for lay, frac in caller_shares(caller, seen).items():
                out[lay] = out.get(lay, 0.0) + frac * edge[0] / total
        shares[func] = out
        return out

    folded = {lay: {"self_s": 0.0, "calls": 0} for lay in LAYERS}
    for func, (_cc, ncalls, self_s, _ct, callers) in raw_stats.items():
        layer = own[func]
        if layer is not None:
            folded[layer]["self_s"] += self_s
            folded[layer]["calls"] += ncalls
            continue
        if not callers:
            folded["other"]["self_s"] += self_s
            continue
        # Foreign code: split its self time over the edges that reached it.
        edge_total = sum(edge[2] for edge in callers.values())
        for caller, edge in callers.items():
            part = self_s * edge[2] / edge_total if edge_total else 0.0
            for lay, frac in caller_shares(caller, frozenset({func})).items():
                folded[lay]["self_s"] += part * frac
    return folded
