"""Shared helpers for the benchmark suite.

``bench_experiments.py`` runs every registered experiment, prints the
rows/series the paper reports, and requires the verdict of the judge
written beside it — the qualitative *shape* (who wins, roughly by how
much), never the absolute numbers, which belong to the authors'
hardware.  ``bench_faults.py`` and ``bench_workloads.py`` run their own
sweeps.  Nothing here is timed: host-time measurement is ``perfbench``'s
job (docs/performance.md).
"""

from __future__ import annotations

import sys


def emit(result) -> None:
    """Print an ExperimentResult so `pytest -s benchmarks/` shows the
    regenerated series."""
    sys.stdout.write("\n" + result.render())
