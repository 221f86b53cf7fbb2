"""The import graph follows use: what an entry point compiles is a
pinned count, and nothing is imported inside a measured region.

perfbench children run on a tree with no ``__pycache__``, so a start-up
is a compile and the only lever the instrument sees is source lines
imported (docs/performance.md, "Start-up: before/after").  Like
``test_thief_path.py``'s call budgets, every check here is a count, so a
regression shows on any host:

* one subprocess per entry point reports the ``repro.*`` modules it
  ended with and their source-line total; each has a budget (the count
  measured at merge plus 5 %) and a forbidden set;
* ``sweep --jobs N`` forks its workers only after the parent imported
  the simulator, so the workers inherit it instead of compiling it N
  times;
* in the configurations ``perfbench/child.py`` times, ``sys.modules`` is
  the same set before and after the timed call: no import of ours moves
  into ``pool.run()``, ``run_serve`` or ``run_mp``;
* the experiment registry imports no body module, and each row's body
  module imports alone;
* every module under ``src/`` is reached from an entry point, except a
  pinned list (the complement of the closures, by static import graph).

``python tests/test_import_closure.py --table [PARENT_SRC]`` prints the
per-entry-point table (modules, lines, cold-start ms) the docs embed, for
this tree and, beside it, a parent checkout's ``src/``.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

#: Runs in a fresh interpreter: ``spec`` is either a statement to exec or
#: a ``python -m repro`` argv; the last stdout line is the report.
PROBE = r"""
import json, sys
spec = json.loads(sys.argv[1])
report = {"rc": 0}
if spec.get("watch_executor"):
    from concurrent.futures import ProcessPoolExecutor
    created = ProcessPoolExecutor.__init__
    def watched(self, *a, **kw):
        report["at_executor"] = sorted(m for m in sys.modules if m.startswith("repro."))
        created(self, *a, **kw)
    ProcessPoolExecutor.__init__ = watched
if "argv" in spec:
    import runpy
    sys.argv = ["repro", *spec["argv"]]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        report["rc"] = exc.code or 0
else:
    env = {}
    exec(spec.get("build", ""), env)
    before = set(sys.modules)
    exec(spec["stmt"], env)
    report["new"] = sorted(set(sys.modules) - before)
ours = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
lines = 0
for name in ours:
    path = getattr(sys.modules[name], "__file__", None)
    if path:
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
report.update(modules=ours, lines=lines)
print("\n@@closure " + json.dumps(report))
"""


def probe(spec: dict, src: str | None = None) -> dict:
    """Run ``spec`` in a fresh interpreter and return its report.

    ``src`` runs it on that ``src/`` tree with bytecode writing off, as a
    perfbench child runs: on a tree with no ``__pycache__`` every module
    of ours is compiled.
    """
    env = None
    if src is not None:
        import os

        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(spec)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    marker = proc.stdout.rindex("@@closure ")
    return json.loads(proc.stdout[marker + len("@@closure "):])


def _cli(*argv: str, **extra) -> dict:
    return {"argv": list(argv), **extra}


#: Fault injection and the oracle are switched on by an option; a plain
#: run never imports them.
OPTIONAL = ("repro.fabric.faults", "repro.runtime.oracle")
SIMULATOR = ("repro.fabric", "repro.runtime.pool", "repro.analysis")
#: A steal-level experiment runs on a bare ``ShmemCtx``.
POOL = ("repro.runtime.pool", "repro.workloads.bpc", "repro.workloads.uts")
SUBSTRATES = ("repro.mp", "repro.threads", "repro.analysis")
PACKAGES = ("repro.core", "repro.fabric", "repro.runtime", "repro.shmem",
            "repro.workloads", *SUBSTRATES)
#: A steal trace ``--protocol sdc --backend fabric --npes 4 --ntasks 40
#: --steal-trace`` wrote: ``inspect`` reads it without the simulator.
TRACE = str(Path(__file__).parent / "data" / "steal_trace_sdc.json")

#: entry point -> (spec, modules, lines, forbidden packages).  The counts
#: are the ones measured at merge — the table of docs/performance.md,
#: "Start-up: before/after" — and the budget is each of them plus 5 %.
ENTRY_POINTS = {
    "import repro": (
        {"stmt": "import repro"}, 2, 120, PACKAGES),
    "from repro import TaskPool, ...": (
        {"stmt": "from repro import QueueConfig, Task, TaskOutcome, "
                 "TaskPool, TaskRegistry"},
        29, 6780, SUBSTRATES + OPTIONAL),
    "from repro.mp import run_mp, uts_expected": (
        {"stmt": "from repro.mp import run_mp, uts_expected"},
        24, 3971, SIMULATOR + OPTIONAL + ("repro.threads",)),
    "from repro.runtime.serving import run_serve": (
        {"stmt": "from repro.runtime.serving import run_serve"},
        33, 8189, SUBSTRATES + OPTIONAL),
    "python -m repro --help": (
        _cli("--help"), 4, 390, PACKAGES[:2] + PACKAGES[3:]),
    "python -m repro": (
        _cli(), 29, 5983, ("repro.mp", "repro.threads") + OPTIONAL + POOL),
    "python -m repro --protocol sws --backend all": (
        _cli("--protocol", "sws", "--backend", "all", "--ntasks", "100"),
        40, 9376, ("repro.analysis",) + OPTIONAL[:1]),
    "python -m repro serve": (
        _cli("serve", "--npes", "4", "--seed", "7"),
        34, 8522, SUBSTRATES + OPTIONAL[:1]),
    "python -m repro mp --workload uts": (
        _cli("mp", "--workload", "uts", "--tree", "test_tiny", "--npes", "2",
             "--verify", "--seed", "7"),
        25, 4205, SIMULATOR + OPTIONAL + ("repro.threads",)),
    "python -m repro sweep --jobs 2": (
        _cli("sweep", "--scenarios", "fig5,fig6", "--no-cache", "--jobs", "2",
             "--quiet", watch_executor=True),
        30, 6375, ("repro.mp", "repro.threads") + OPTIONAL + POOL),
    "python -m repro inspect": (
        _cli("inspect", TRACE), 7, 1031,
        ("repro.core", "repro.mp", "repro.shmem", "repro.runtime.pool",
         "repro.fabric.engine", "repro.fabric.nic")),
}


def _hits(modules, packages):
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_closure_is_within_budget(entry):
    spec, modules, lines, forbidden = ENTRY_POINTS[entry]
    report = probe(spec)
    assert report["rc"] == 0
    assert not _hits(report["modules"], forbidden)
    assert len(report["modules"]) <= modules * 1.05, report["modules"]
    assert report["lines"] <= lines * 1.05


def test_sweep_workers_inherit_the_simulator():
    """A worker forked before the parent imported the simulator would
    compile it once per worker; ``cpu_s`` of ``cli_e2e`` would pay."""
    spec = ENTRY_POINTS["python -m repro sweep --jobs 2"][0]
    loaded = probe(spec)["at_executor"]
    for module in ("repro.fabric.engine", "repro.fabric.nic", "repro.shmem.api",
                   "repro.core.sws_queue", "repro.core.sdc_queue",
                   "repro.analysis.exp_steal"):
        assert module in loaded
    assert "repro.runtime.pool" not in loaded


def test_registry_imports_no_body_and_each_body_imports_alone():
    """A row that names the wrong module fails here, not halfway through
    a sweep."""
    from repro.analysis.experiments import EXPERIMENTS

    bodies = {f"repro.analysis.{exp.module}" for exp in EXPERIMENTS.values()}
    registry = probe({"stmt": "import repro.analysis.experiments"})["modules"]
    assert not bodies & set(registry)
    for module in sorted(bodies):
        ids = [i for i, exp in EXPERIMENTS.items()
               if f"repro.analysis.{exp.module}" == module]
        report = probe({"stmt": f"import {module} as m\n"
                                f"assert all(callable(getattr(m, i.replace('-', '_')))"
                                f" for i in {ids!r})"})
        assert not (bodies - {module}) & set(report["modules"]), module


#: Modules no entry point reaches.  A new module must be reached from the
#: CLI.
UNREACHED = []


def reached(src: Path) -> tuple[set[str], set[str]]:
    """(every module under ``src/repro``, those reached from the CLI).

    Static: an edge is any ``import`` in a module, at any depth, or a
    string-named one (``import_module`` / the protocol registry's
    ``_by_name``); the experiment table names its body modules.  A
    package's export table is not an edge: a public name alone is not a
    use.
    """
    from repro.analysis.experiments import EXPERIMENTS

    def name(path: Path) -> str:
        parts = list(path.relative_to(src).with_suffix("").parts)
        return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

    files = {name(p): p for p in (src / "repro").rglob("*.py")}

    def edges(module: str) -> set[str]:
        path = files[module]
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]

        def absolute(level: int, target: str | None) -> str:
            if not level:
                return target
            parts = package.split(".")
            return ".".join(parts[:len(parts) - level + 1] + ([target] if target else []))

        out = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                out |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                base = absolute(node.level, node.module)
                out |= {base} | {f"{base}.{alias.name}" for alias in node.names}
            elif (isinstance(node, ast.Call) and node.args
                  and getattr(node.func, "id", "") in ("import_module", "_by_name")
                  and isinstance(node.args[0], ast.Constant)):
                target = node.args[0].value
                level = len(target) - len(target.lstrip("."))
                out.add(absolute(level, target.lstrip(".")))
        return out & set(files)

    todo = ["repro.__main__", *(f"repro.analysis.{exp.module}"
                                for exp in EXPERIMENTS.values())]
    seen: set[str] = set()
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            parts = module.split(".")
            todo += [".".join(parts[:i]) for i in range(1, len(parts))]
            todo += edges(module)
    return set(files), seen


def test_every_module_is_reached_but_the_pinned_few():
    import repro

    every, seen = reached(Path(repro.__file__).parent.parent)
    assert sorted(every - seen) == UNREACHED


_POOL_BUILD = """
from repro import QueueConfig, TaskPool, TaskRegistry
from repro.workloads.bpc import BpcParams, BpcWorkload
from repro.workloads.uts import GeoShape, TreeType, UtsParams, UtsWorkload
tree = UtsParams(tree_type=TreeType.GEO, b0=3.0, gen_mx=5,
                 shape=GeoShape.LINEAR, root_seed=19)
bpc = BpcParams(n_consumers=8, depth=4, consumer_time=0.5e-3,
                producer_time=0.1e-3)
pools = []
for impl in ("sws", "sdc"):
    for npes, make in ((8, lambda reg: BpcWorkload(reg, bpc)),
                       (4, lambda reg: UtsWorkload(reg, tree))):
        registry = TaskRegistry()
        workload = make(registry)
        pool = TaskPool(npes, registry, impl=impl, seed=7,
                        queue_config=QueueConfig(qsize=4096, task_size=48))
        pool.seed(0, [workload.seed_task()])
        pools.append(pool)
    armed = TaskPool(4, registry, impl=impl, oracle=True, scheduler="random")
    armed.seed(0, [workload.seed_task()])
    pools.append(armed)
"""

_SERVE_BUILD = """
from repro.runtime.arrivals import parse_arrival_spec, serving_checksum
from repro.runtime.serving import run_serve
arrivals = parse_arrival_spec("poisson:3.2e6", 2e-4, 7)
arrivals.trace()
"""

_MP_BUILD = """
from repro.mp import run_mp
from repro.workloads.uts import GeoShape, TreeType, UtsParams
tree = UtsParams(tree_type=TreeType.GEO, b0=3.0, gen_mx=5,
                 shape=GeoShape.LINEAR, root_seed=19)
"""

#: The timed calls of perfbench/child.py, at a smaller size.
REGIONS = {
    "pool.run() (bpc_coarse, uts_fine, oracle_explore)": (
        _POOL_BUILD, "stats = [pool.run() for pool in pools]"),
    "run_serve(oracle=False) (serve_open)": (
        _SERVE_BUILD,
        "for impl in ('sws', 'sdc'):\n"
        "    run_serve(8, impl=impl, arrival=arrivals, duration_s=2e-4,\n"
        "              slo_s=50e-6, seed=7, task_s=2e-6, oracle=False)"),
    "run_mp('uts', npes=2) (mp_uts)": (
        _MP_BUILD,
        "for impl in ('sws', 'sdc'):\n"
        "    run_mp('uts', impl, npes=2, tree=tree, verify=False, seed=7)"),
}

#: ``run_mp`` is timed from its call, so what the standard library's own
#: ``multiprocessing`` loads on a process's first fork and first shared
#: mapping lands inside it, as it did before any import of ours could.
_FIRST_FORK = frozenset("""
    _bz2 _compression _locale _lzma _multiprocessing
    _posixsubprocess atexit binascii bz2 fcntl fnmatch
    importlib._abc importlib.util locale lzma mmap
    multiprocessing.connection multiprocessing.popen_fork
    multiprocessing.queues
    multiprocessing.synchronize multiprocessing.util shutil
    subprocess tempfile zlib
""".split())


@pytest.mark.parametrize("region", REGIONS)
def test_nothing_is_imported_inside_a_measured_region(region):
    build, stmt = REGIONS[region]
    new = probe({"build": build, "stmt": stmt})["new"]
    assert not [m for m in new if m.startswith("repro")]
    if not region.startswith("run_mp"):
        assert new == []
    elif sys.version_info[:2] == (3, 11):
        # The list is the interpreter's, recorded on 3.11; elsewhere only
        # the line above applies.
        assert set(new) <= _FIRST_FORK


def _table(trees: list[str]) -> str:
    """One row per entry point and, per ``src/`` tree, its modules, lines
    and cold start (the whole subprocess; median of nine rounds that
    alternate between the trees, so a slow phase of the host hits all)."""
    import statistics
    import time

    for src in trees:
        if any(Path(src).rglob("__pycache__")):
            sys.exit(f"{src} holds __pycache__: a start-up there is not a "
                     f"compile (`make clean`, PYTHONDONTWRITEBYTECODE=1)")
    rows = ["| entry point |" + " modules | lines | cold start, ms |" * len(trees),
            "|---|" + "---:|---:|---:|" * len(trees)]
    for entry, (spec, *_rest) in ENTRY_POINTS.items():
        walls: dict[str, list[float]] = {src: [] for src in trees}
        reports = {}
        for round_ in range(9):
            for src in trees[::-1] if round_ % 2 else trees:
                start = time.perf_counter()
                reports[src] = probe(spec, src=src)
                walls[src].append((time.perf_counter() - start) * 1e3)
        rows.append(f"| `{entry}` |" + "".join(
            f" {len(reports[src]['modules'])} | {reports[src]['lines']:,} "
            f"| {statistics.median(walls[src]):.0f} |" for src in trees))
    return "\n".join(rows)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--table"] or len(sys.argv) > 3:
        sys.exit("usage: python tests/test_import_closure.py --table "
                 "[PARENT_SRC]   (a second src/ tree to measure beside this one)")
    import repro

    here = repro.__file__.rsplit("/", 2)[0]
    print(_table([*sys.argv[2:], here]))
