"""Every cell of the capability table, run or refused.

One generated test per protocol × backend × feature, over every feature
any cell of :data:`repro.capabilities.CELLS` lists, plus npes at each
backend's minimum and one below it:

* a listed cell passes an oracle-checked run: on the fabric with
  ``oracle=True`` under a virtual-time deadline (``UNTIL``: a run that
  has not terminated by then fails); on threads and mp against the
  sequential oracle or the serving checksum;
* an unlisted cell raises the table's ``ValueError`` from its entry point
  while ``TaskPool``, ``MpHeap`` and ``Fleet`` refuse to be built, so the
  refusal comes before any pool, heap or process exists.  A feature that
  no entry point of that backend can be asked for is refused by
  :func:`check` itself.

The consistency tests pin the reasons behind the table against the
protocol registry, and the support matrix in docs/protocols.md against
the table (``python -m tests.test_capabilities`` prints the block).
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.capabilities import (
    CELLS,
    JUDGED_BY,
    MIN_NPES,
    RULES,
    UNJUDGED,
    check,
)
from repro.fabric.faults import FaultPlan
from repro.runtime.pool import TaskPool
from repro.runtime.protocols import (
    AT_LEAST_ONCE,
    EXACTLY_ONCE,
    get_protocol,
    protocol_names,
)

from .conftest import nothing_left_behind

pytestmark = pytest.mark.conformance

#: Virtual seconds a fabric cell may run; every one here ends in < 5 ms.
UNTIL = 0.05
FEATURES = sorted(set().union(*(c for row in CELLS.values()
                                for c in row.values())))
BACKENDS = tuple(MIN_NPES)
NTASKS = 120
#: Lossy fabrics: SDC terminates under these only with its lock lease.
FAULTS = (FaultPlan(seed=0, drop_rate=0.03), FaultPlan(seed=3, drop_rate=0.03))
_POOL_INIT = TaskPool.__init__


def _listed(protocol: str, backend: str, feature: str) -> bool:
    return feature in CELLS[protocol].get(backend, ())


def _exactly_once(protocol: str) -> bool:
    return get_protocol(protocol).semantics is EXACTLY_ONCE


def _assert_covers(protocol: str, executed, n: int) -> None:
    """The sequential oracle of a flat run: ``range(n)``, exactly once for
    an exactly-once protocol, at least once otherwise."""
    if _exactly_once(protocol):
        assert sorted(executed) == list(range(n))
    else:
        assert set(executed) == set(range(n))


# ----------------------------------------------------------------------
# fabric runs, bounded in virtual time
# ----------------------------------------------------------------------

@pytest.fixture
def bounded(monkeypatch):
    """Every fabric run stops at ``UNTIL`` and fails unless it ended."""
    from repro.shmem.api import ShmemCtx

    real = ShmemCtx.run

    def run(self, until=None):
        end = real(self, until=UNTIL)
        assert not self.engine.live, (
            f"no termination by virtual until={UNTIL}s")
        return end

    monkeypatch.setattr(ShmemCtx, "run", run)


def _pool(protocol: str, npes: int, **kw):
    """A flat pool of ``NTASKS`` leaves, each appending its payload."""
    from repro.runtime.pool import TaskPool
    from repro.runtime.registry import TaskOutcome, TaskRegistry
    from repro.runtime.task import Task

    executed: list[int] = []
    reg = TaskRegistry()

    def leaf(payload, tc):
        executed.append(int.from_bytes(payload, "little"))
        return TaskOutcome(duration=2e-6)

    fn = reg.register("leaf", leaf)
    pool = TaskPool(npes, reg, impl=protocol, seed=3, **kw)
    pool.seed(0, [Task(fn, payload=i.to_bytes(4, "little"))
                  for i in range(NTASKS)])
    return pool, executed


def _fabric_pool(**kw):
    def run(protocol, npes):
        pool, executed = _pool(protocol, npes, oracle=True, **kw)
        pool.run()
        assert pool.oracle.checks_passed > 0
        _assert_covers(protocol, executed, NTASKS)
        return pool
    return run


def _fabric_faults(protocol, npes):
    for plan in FAULTS:
        pool = _fabric_pool(fault_plan=plan)(protocol, max(npes, 6))
        assert pool.ctx.faults.snapshot()["dropped_ops"] > 0


def _fabric_placement(protocol, npes):
    """Two nodes of two PEs: for the tiered protocol a node smaller than
    the default 24-PE socket is one socket."""
    pool = _fabric_pool(pes_per_node=2)(protocol, max(npes, 4))
    assert pool.ctx.topology.node_of(3) == 1
    if get_protocol(protocol).tiered:
        assert pool.ctx.topology.pes_per_socket == 2


def _fabric_damping(protocol, npes):
    pool = _fabric_pool()(protocol, npes)
    assert all(w.damping is not None for w in pool.workers)


def _serve(**kw):
    def run(protocol, npes):
        from repro.runtime.arrivals import serving_checksum
        from repro.runtime.serving import run_serve

        s = run_serve(max(npes, 4), impl=protocol, arrival="poisson:400000",
                      seed=16, **kw).serving
        assert s.emitted == s.injected + s.shed
        assert s.completed == s.injected
        if not s.shed:
            assert s.checksum == serving_checksum(range(s.emitted))
        return s
    return run


def _serve_shedding(protocol, npes):
    assert _serve(shed_threshold=1, task_s=2e-5)(protocol, npes).shed > 0


# ----------------------------------------------------------------------
# real-time runs: threads and processes
# ----------------------------------------------------------------------

def _race(backend):
    def run(protocol, npes):
        if backend == "threads":
            from repro.threads.protocol import hammer
        else:
            from repro.mp.queue import hammer_mp as hammer
        loot, kept = hammer(list(range(NTASKS)), nthieves=npes - 1,
                            impl=get_protocol(protocol).mp_impl)
        _assert_covers(protocol, [t for lane in loot for t in lane] + kept,
                       NTASKS)
    return run


def _mp_serve(protocol, npes):
    from repro.mp.driver import run_mp_serve
    from repro.runtime.arrivals import serving_checksum

    s = run_mp_serve("fixed:200000", 5e-4, impl=protocol, npes=npes).serving
    assert s.completed == s.injected == s.emitted
    assert s.checksum == serving_checksum(range(s.emitted))


def _mp_run(**kw):
    def run(protocol, npes):
        from repro.mp.driver import run_mp

        result = run_mp("uts", protocol, max(npes, 2), tree="test_tiny",
                        verify=True, seed=7, **kw)
        assert result.conserved
    return run


#: (backend, feature) -> an oracle-checked run of a listed cell.
RUNS = {
    ("fabric", "run"): _fabric_pool(),
    ("fabric", "tree"): _fabric_pool(termination="tree"),
    ("fabric", "scheduler"): _fabric_pool(scheduler="random"),
    ("fabric", "oracle"): _fabric_pool(),
    ("fabric", "faults"): _fabric_faults,
    ("fabric", "damping"): _fabric_damping,
    ("fabric", "lifelines"): _fabric_pool(lifelines=True),
    ("fabric", "victim"): _fabric_pool(victim="roundrobin"),
    ("fabric", "placement"): _fabric_placement,
    ("fabric", "serving"): _serve(),
    ("fabric", "shedding"): _serve_shedding,
    ("threads", "race"): _race("threads"),
    ("mp", "race"): _race("mp"),
    ("mp", "serving"): _mp_serve,
    ("mp", "run"): _mp_run(),
    ("mp", "damping"): _mp_run(damping=True),
}


# ----------------------------------------------------------------------
# refusals, from the entry point that would build the cell
# ----------------------------------------------------------------------

def _refuse_pool(features, **kw):
    """``TaskPool``'s own refusal: it checks first, so its real
    ``__init__`` runs while the fabric under it refuses to be built."""
    def call(protocol, npes):
        from repro.runtime.registry import TaskRegistry

        _POOL_INIT(TaskPool.__new__(TaskPool), npes, TaskRegistry(),
                   impl=protocol, **kw)
    return features, call


def _refuse_serve(features, **kw):
    def call(protocol, npes):
        from repro.runtime.serving import run_serve

        run_serve(npes, impl=protocol, **kw)
    return features, call


def _refuse_cli():
    """``serve --backend mp --shed-threshold`` (a fabric-only option):
    the CLI's rc 2 and its one line, as a ``ValueError``."""
    def call(protocol, npes):
        from repro.__main__ import main

        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(err):
            rc = main(["serve", "--backend", "mp", "--impl", protocol,
                       "--shed-threshold", "8"])
        assert rc == 2
        raise ValueError(err.getvalue().strip().removeprefix("error: "))
    return ("serving", "shedding"), call


def _refuse_race(backend):
    def call(protocol, npes):
        if backend == "threads":
            from repro.threads.protocol import hammer
        else:
            from repro.mp.queue import hammer_mp as hammer
        # A layout name is a protocol name: the hammer checks what it runs.
        hammer(list(range(8)), nthieves=npes - 1, impl=protocol)
    return ("race",), call


def _refuse_mp_serve():
    def call(protocol, npes):
        from repro.mp.driver import run_mp_serve

        run_mp_serve("fixed:200000", 5e-4, impl=protocol, npes=npes)
    return ("serving",), call


def _refuse_mp_run():
    def call(protocol, npes):
        from repro.mp.driver import run_mp

        run_mp("synthetic", protocol, npes, ntasks=100)
    return ("run",), call


#: (backend, feature) -> (the features its entry point asks for, the call).
REFUSALS = {
    ("fabric", "run"): _refuse_pool(("run",)),
    ("fabric", "tree"): _refuse_pool(("run", "tree"), termination="tree"),
    ("fabric", "scheduler"): _refuse_pool(("run", "scheduler"),
                                          scheduler="random"),
    ("fabric", "oracle"): _refuse_pool(("run", "oracle"), oracle=True),
    ("fabric", "faults"): _refuse_pool(("run", "faults"),
                                       fault_plan=FAULTS[0]),
    ("fabric", "lifelines"): _refuse_pool(("run", "lifelines"),
                                          lifelines=True),
    ("fabric", "victim"): _refuse_pool(("run", "victim"),
                                       victim="roundrobin"),
    ("fabric", "placement"): _refuse_pool(("run", "placement"),
                                          pes_per_node=2),
    ("fabric", "serving"): _refuse_serve(("serving",)),
    ("fabric", "shedding"): _refuse_serve(("serving", "shedding"),
                                          shed_threshold=1),
    ("threads", "race"): _refuse_race("threads"),
    ("mp", "race"): _refuse_race("mp"),
    ("mp", "serving"): _refuse_mp_serve(),
    ("mp", "run"): _refuse_mp_run(),
    ("mp", "shedding"): _refuse_cli(),
}


@pytest.fixture
def nothing_built(monkeypatch):
    """A pool (or the fabric under one), a heap or a fleet built from here
    on fails the test."""
    from repro.mp.fleet import Fleet
    from repro.mp.heap import MpHeap
    from repro.shmem.api import ShmemCtx

    for cls in (TaskPool, ShmemCtx, MpHeap, Fleet):
        def built(self, *args, _cls=cls.__name__, **kwargs):
            raise AssertionError(f"a {_cls} was built before the refusal")

        monkeypatch.setattr(cls, "__init__", built)


def _refusal(protocol, backend, features, npes=None) -> str:
    with pytest.raises(ValueError) as exc:
        check(protocol, backend, features, npes)
    return str(exc.value)


def _assert_refused(protocol, backend, feature, npes):
    features, call = REFUSALS.get((backend, feature), ((feature,), None))
    expected = _refusal(protocol, backend, features, npes)
    if call is None:   # no entry point of this backend takes the feature
        return
    with nothing_left_behind(), pytest.raises(ValueError) as exc:
        call(protocol, npes)
    assert str(exc.value) == expected


CELL_IDS = [(p, b, f) for p in CELLS for b in BACKENDS for f in FEATURES]


@pytest.mark.timeout(60)
@pytest.mark.parametrize("protocol,backend,feature", CELL_IDS,
                         ids=["-".join(c) for c in CELL_IDS])
def test_cell(protocol, backend, feature, request):
    npes = max(MIN_NPES[backend], 2)
    if _listed(protocol, backend, feature):
        check(protocol, backend, (feature,), npes)
        if backend == "fabric":
            request.getfixturevalue("bounded")
        with nothing_left_behind():
            RUNS[backend, feature](protocol, npes)
    else:
        request.getfixturevalue("nothing_built")
        _refusal(protocol, backend, (feature,))
        _assert_refused(protocol, backend, feature, npes)


NPES_IDS = [(p, b, n) for p in CELLS for b in BACKENDS if b in CELLS[p]
            for n in (MIN_NPES[b], MIN_NPES[b] - 1)]
_BASE = {"fabric": "run", "threads": "race", "mp": "race"}


@pytest.mark.timeout(60)
@pytest.mark.parametrize("protocol,backend,npes", NPES_IDS,
                         ids=[f"{p}-{b}-npes{n}" for p, b, n in NPES_IDS])
def test_npes(protocol, backend, npes, request):
    feature = _BASE[backend]
    if npes >= MIN_NPES[backend]:
        if backend == "fabric":
            request.getfixturevalue("bounded")
        with nothing_left_behind():
            RUNS[backend, feature](protocol, npes)
    else:
        request.getfixturevalue("nothing_built")
        assert _refusal(protocol, backend, (), npes) == (
            f"npes: must be >= {MIN_NPES[backend]}, got {npes}")
        _assert_refused(protocol, backend, feature, npes)


# ----------------------------------------------------------------------
# the reasons behind the table
# ----------------------------------------------------------------------

def test_rows_are_the_registry():
    assert tuple(CELLS) == protocol_names()


def test_books_that_close_once_need_an_exactly_once_protocol():
    """Serving books, and the mp PE loop's created/completed books, are
    exactly-once; and a protocol refused them everywhere is at-least-once,
    which is what the rule naming it says."""
    for protocol, row in CELLS.items():
        for backend, cell in row.items():
            if "serving" in cell or (backend == "mp" and "run" in cell):
                assert _exactly_once(protocol), (protocol, backend)
        for feature in ("serving", "shedding"):
            if not any(feature in cell for cell in row.values()):
                assert get_protocol(protocol).semantics is AT_LEAST_ONCE
                assert RULES[feature].format(feature, protocol).endswith(
                    f"is {AT_LEAST_ONCE.name} ({AT_LEAST_ONCE.description})")


def test_a_real_time_cell_needs_a_layout():
    for protocol, row in CELLS.items():
        if set(row) - {"fabric"}:
            assert get_protocol(protocol).mp_impl is not None, protocol


def test_fabric_damping_is_the_queue_probe():
    from repro.core.config import QueueConfig
    from repro.fabric.latency import ZERO_LATENCY
    from repro.shmem.api import ShmemCtx

    for protocol in CELLS:
        ctx = ShmemCtx(2, latency=ZERO_LATENCY)
        system = get_protocol(protocol).queue_system(
            ctx, QueueConfig(qsize=64, task_size=16))
        assert hasattr(system.handle(0), "probe") == _listed(
            protocol, "fabric", "damping"), protocol


def test_faults_and_the_tree_detector_never_run_together():
    with pytest.raises(ValueError, match="termination='ring'"):
        check("sws", "fabric", ("faults", "tree"))


@pytest.mark.parametrize("feature", ["crash", "elastic", "bogus"])
def test_an_unknown_feature_is_named(feature):
    """A feature no cell runs (a deleted one included) is refused as
    unknown, with the features the table does know."""
    assert _refusal("sws", "mp", (feature,)) == (
        f"unknown feature {feature!r}: the table knows "
        + ", ".join(FEATURES))


# ----------------------------------------------------------------------
# every cell's features are judged by a row that runs its backend
# ----------------------------------------------------------------------

def _backends_run_by(row: str) -> set[str]:
    """A word-op row runs the real-time layouts on an in-process heap: the
    threads backend's substrate and the mp queues' own code; the
    cross-backend row runs the fabric and mp; every other row the fabric."""
    from repro.analysis.experiments import EXPERIMENTS

    if row == "xbackend":
        return {"fabric", "mp"}
    return {"threads", "mp"} if EXPERIMENTS[row].module == "exp_shm" else {
        "fabric"}


def test_every_feature_of_every_cell_is_judged_or_named_unjudged():
    from repro.analysis.experiments import EXPERIMENTS

    cells = {(backend, feature) for row in CELLS.values()
             for backend, features in row.items() for feature in features}
    assert UNJUDGED == set()
    assert set(JUDGED_BY) == cells - UNJUDGED
    for (backend, feature), row in JUDGED_BY.items():
        assert row in EXPERIMENTS, (backend, feature, row)
        assert backend in _backends_run_by(row), (backend, feature, row)


# ----------------------------------------------------------------------
# docs/protocols.md §0: the support matrix, rendered from the table
# ----------------------------------------------------------------------

DOC = Path(__file__).resolve().parent.parent / "docs" / "protocols.md"
BEGIN = "<!-- support matrix: generated from repro.capabilities.CELLS -->"
END = "<!-- end support matrix -->"


def render_matrix() -> str:
    """One row per backend × feature some cell runs, one column per
    protocol."""
    lines = [BEGIN, "",
             "| backend | feature | " + " | ".join(f"`{p}`" for p in CELLS)
             + " |",
             "|---|---|" + "---|" * len(CELLS)]
    for b in BACKENDS:
        for f in FEATURES:
            marks = ["yes" if f in row.get(b, ()) else "—"
                     for row in CELLS.values()]
            if "yes" in marks:
                lines.append(f"| {b} | `{f}` | " + " | ".join(marks) + " |")
    lines += ["", "Fewest PEs: " + ", ".join(
        f"{b} {n}" for b, n in MIN_NPES.items()) + ".", "", END]
    return "\n".join(lines)


def test_docs_support_matrix_is_the_table():
    text = DOC.read_text()
    found = re.search(re.escape(BEGIN) + ".*?" + re.escape(END), text,
                      re.DOTALL)
    expected = render_matrix()
    if found is None or found.group(0) != expected:
        print(f"docs/protocols.md §0 should hold, byte for byte:\n{expected}")
    assert found is not None and found.group(0) == expected


if __name__ == "__main__":
    print(render_matrix())
