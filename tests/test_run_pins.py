"""Full-run pins: every simulated statistic of ~60 small fixed-seed runs.

A host-time optimization must leave the simulation bit-identical, and a
float computed as ``t1/1e15 - t0/1e15`` differs from ``(t1 - t0)/1e15``
in the last ulp — a difference no count-based test sees.  Each row of
``tests/data/run_pins.json`` therefore holds ``repr()`` of one run's
virtual runtime, its engine event count, the fabric's ``comm`` tallies
and every :class:`~repro.runtime.stats.WorkerStats` field of every PE
(plus the fault and serving books where the run has them), and the test
re-runs the grid and names the first run and field that differ.

The file is regenerated with ``python tests/test_run_pins.py --record``
(``PYTHONPATH=src``), **at the commit whose behaviour is the reference**
— for a change that claims "same computation", its parent.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from repro.fabric.engine import events_tally
from repro.fabric.faults import FaultPlan, PEFailure
from repro.runtime.pool import TaskPool
from repro.runtime.registry import TaskRegistry
from repro.runtime.serving import run_serve
from repro.runtime.stats import RunStats, WorkerStats
from repro.runtime.worker import WorkerConfig
from repro.workloads.bpc import BpcParams, BpcWorkload
from repro.workloads.uts import TEST_SMALL, TEST_TINY, UtsWorkload

PINS = Path(__file__).parent / "data" / "run_pins.json"
FIELDS = [f.name for f in dataclasses.fields(WorkerStats)]
SEED = 7
BPC = BpcParams(n_consumers=8, depth=4, consumer_time=50e-6, producer_time=10e-6)
FAULTS = FaultPlan(seed=3, drop_rate=0.03, pe_failures=(PEFailure(3, 40e-6),))


def _pool(impl: str, npes: int, workload: str = "bpc", **kwargs) -> RunStats:
    registry = TaskRegistry()
    if workload == "bpc":
        seed_task = BpcWorkload(registry, BPC).seed_task()
    else:
        tree = TEST_SMALL if workload == "uts_small" else TEST_TINY
        seed_task = UtsWorkload(registry, tree).seed_task()
    kwargs.setdefault("seed", SEED)
    pool = TaskPool(npes, registry, impl=impl, **kwargs)
    pool.seed(0, [seed_task])
    return pool.run()


def _cases() -> dict:
    """name -> zero-argument callable returning the run's RunStats."""
    cases: dict = {}

    def add(name, fn, *args, **kwargs):
        assert name not in cases, name
        cases[name] = lambda: fn(*args, **kwargs)

    for impl in ("sws", "sdc", "sws-v1", "ff-mult", "localized"):
        for term in ("ring", "tree"):
            for npes in (1, 2, 5):
                add(f"{impl}/{term}/p{npes}", _pool, impl, npes, termination=term)
    for impl in ("sws", "sdc"):
        for term in ("ring", "tree"):
            for idle_wait in (False, True):
                add(
                    f"{impl}/{term}/lifelines/idle_wait={idle_wait}",
                    _pool, impl, 5, termination=term, lifelines=True,
                    worker_config=WorkerConfig(idle_wait=idle_wait),
                )
            add(
                f"{impl}/{term}/help_first",
                _pool, impl, 5, workload="uts", termination=term,
                worker_config=WorkerConfig(spawn_policy="help_first"),
            )
        for victim in ("roundrobin", "locality", "hierarchical"):
            add(
                f"{impl}/victim={victim}",
                _pool, impl, 5, victim=victim, pes_per_node=2,
            )
        for seed in (7, 11):
            add(
                f"{impl}/faults/seed{seed}",
                _pool, impl, 8, fault_plan=FAULTS, seed=seed,
            )
        for policy in ("random", "pct"):
            add(
                f"{impl}/oracle/{policy}",
                _pool, impl, 4, oracle=True, scheduler=policy,
            )
        for elastic in (None, "seeded"):
            add(
                f"{impl}/serve/elastic={elastic}",
                run_serve, 4, impl=impl, arrival="poisson:1000000",
                duration_s=0.3e-3, slo_s=50e-6, seed=SEED, elastic=elastic,
            )
        add(f"{impl}/uts/p4", _pool, impl, 4, workload="uts")
    add("sws/op_timeout", _pool, "sws", 5, op_timeout=1e-3)
    # TEST_TINY's 85 nodes never fill a batch; TEST_SMALL's do.
    for impl in ("sws", "sdc"):
        for policy in ("work_first", "help_first"):
            add(
                f"{impl}/uts_small/{policy}",
                _pool, impl, 4, workload="uts_small",
                worker_config=WorkerConfig(spawn_policy=policy),
            )
    return cases


def _row(run) -> dict:
    before = events_tally()
    stats = run()
    row = {
        "runtime": repr(stats.runtime),
        "events": events_tally() - before,
        "comm": stats.comm,
        "workers": [[repr(getattr(w, f)) for f in FIELDS] for w in stats.workers],
    }
    if stats.faults:
        row["faults"] = stats.faults
    if stats.serving is not None:
        row["serving"] = repr(stats.serving.to_dict())
    return row


def _first_difference(name: str, want: dict, got: dict) -> str | None:
    for key in sorted(want.keys() | got.keys()):
        if key != "workers" and want.get(key) != got.get(key):
            return f"{name}: {key} {want.get(key)!r} -> {got.get(key)!r}"
    for rank, (w, g) in enumerate(zip(want["workers"], got["workers"])):
        for field, a, b in zip(FIELDS, w, g):
            if a != b:
                return f"{name}: PE {rank} {field} {a} -> {b}"
    return None


def test_runs_match_pins():
    pins = json.loads(PINS.read_text())
    assert pins["fields"] == FIELDS, "WorkerStats changed shape: re-record"
    cases = _cases()
    assert list(pins["runs"]) == list(cases), "case list changed: re-record"
    for name, run in cases.items():
        # Through JSON so tuple/list and int-key differences cannot show.
        got = json.loads(json.dumps(_row(run)))
        diff = _first_difference(name, pins["runs"][name], got)
        assert diff is None, diff


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_run_pins.py --record")
    runs = {name: _row(run) for name, run in _cases().items()}
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(
        json.dumps({"fields": FIELDS, "runs": runs}, separators=(",", ":")) + "\n"
    )
    print(f"recorded {len(runs)} runs -> {PINS}")
