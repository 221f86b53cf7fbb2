"""Shared helpers for the benchmark suite.

Each ``bench_*`` file regenerates one table or figure from the paper's
evaluation: it runs the corresponding experiment, prints the same
rows/series the paper reports, and asserts the qualitative *shape*
(who wins, roughly by how much) — never the absolute numbers, which
belong to the authors' hardware.  Nothing here is timed: host-time
measurement is ``perfbench``'s job (docs/performance.md).
"""

from __future__ import annotations

import sys


def emit(result) -> None:
    """Print an ExperimentResult so `pytest -s benchmarks/` shows the
    regenerated series."""
    sys.stdout.write("\n" + result.render())
