"""The steal trace (:mod:`repro.fabric.trace`): ``--steal-trace PATH``
writes one span per steal attempt over its fabric ops, and ``python -m
repro inspect PATH`` is its one report.

* for every registered protocol, a traced ``--protocol P --backend
  fabric`` run has one span per steal attempt and one op event per op the
  fabric counted, and the most common child count of its ``stolen`` spans
  is the protocol's ``comms_total`` (Fig. 2: SWS 3, SDC 6); a damped
  failure is one read-only probe;
* tracing is free when off and changes nothing when on: an untraced
  worker composes the steal it composed before the trace existed, and a
  traced run's ``RunStats`` is byte-identical to the untraced one's, with
  no instrumented engine event in either;
* what is not traced is refused up front: a real-time backend named
  alone, ``--steal-trace`` without a run, ``inspect`` on a file that is
  not a trace.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.__main__ import main
from repro.capabilities import CELLS
from repro.fabric.trace import report
from repro.runtime.pool import TaskPool
from repro.runtime.protocols import get_protocol, protocol_names
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.serving import run_serve
from repro.runtime.stats import RunStats
from repro.runtime.task import Task

from .conftest import nothing_left_behind

DAMPED = [p for p in protocol_names() if "damping" in CELLS[p]["fabric"]]


def load(path):
    doc = json.loads(path.read_text())
    stats = RunStats.from_json(json.dumps(doc["otherData"]["stats"]))
    return doc, stats, [e for e in doc["traceEvents"] if e["ph"] == "X"]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """protocol -> the trace file of its ``--protocol P --backend fabric``
    run (8 PEs, 300 tasks)."""
    paths = {}

    def get(protocol):
        if protocol not in paths:
            path = tmp_path_factory.mktemp("trace") / f"{protocol}.json"
            assert main(["--protocol", protocol, "--backend", "fabric",
                         "--steal-trace", str(path)]) == 0
            paths[protocol] = path
        return paths[protocol]

    return get


@pytest.mark.parametrize("protocol", protocol_names())
def test_one_span_per_steal_attempt(traced, protocol):
    _, stats, spans = load(traced(protocol))
    assert len(spans) == stats.total_steals + stats.total_failed_steals > 0
    stolen = [e for e in spans if e["name"] == "stolen"]
    assert len(stolen) == stats.total_steals
    assert sum(e["args"]["ntasks"] for e in stolen) == sum(
        w.tasks_stolen for w in stats.workers)


@pytest.mark.parametrize("protocol", protocol_names())
def test_op_events_are_the_fabric_counters(traced, protocol):
    doc, stats, _ = load(traced(protocol))
    ops = Counter(e["name"] for e in doc["traceEvents"] if e["ph"] == "i")
    assert ops == {k: stats.comm[k] for k in ops}
    assert sum(ops.values()) == stats.comm["total"]


@pytest.mark.parametrize("protocol", protocol_names())
def test_stolen_spans_have_comms_total_children_as_the_mode(traced, protocol):
    path = traced(protocol)
    doc, _, spans = load(path)
    children = Counter(len(e["args"]["ops"]) for e in spans
                       if e["name"] == "stolen")
    comms_total = get_protocol(protocol).comms_total
    assert doc["otherData"]["comms_total"] == comms_total
    assert children.most_common(1)[0][0] == min(children) == comms_total
    assert report(path).rstrip().endswith(f"; mode {comms_total}")


@pytest.mark.parametrize("protocol", DAMPED)
def test_a_damped_failure_is_one_probe(traced, protocol):
    """An empty-mode victim whose probe shows no work is never claimed
    from: the attempt's one child is the read-only ``amo_fetch``."""
    unclaimed = [e["args"]["ops"] for e in load(traced(protocol))[2]
                 if e["name"] == "empty"
                 and "amo_fetch_add" not in e["args"]["ops"]]
    assert len(unclaimed) > 50
    assert all(ops == ["amo_fetch"] for ops in unclaimed)


@pytest.mark.parametrize("protocol", ["sws", "sdc"])
def test_children_nest_under_their_span_by_time(traced, protocol):
    """What Perfetto shows: each child op is an instant on the span's
    lane, inside the span."""
    doc, _, spans = load(traced(protocol))
    lanes: dict[int, list] = {}
    for e in doc["traceEvents"]:
        if e["ph"] == "i":
            lanes.setdefault(e["pid"], []).append(e)
    for span in spans:
        end = span["ts"] + span["dur"]
        inside = Counter(e["name"] for e in lanes[span["pid"]]
                         if span["ts"] <= e["ts"] <= end)
        assert not Counter(span["args"]["ops"]) - inside, span


def test_inspect_reports_the_run(traced, capsys):
    path = traced("sdc")
    _, stats, spans = load(path)
    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"sdc: 8 PEs, virtual runtime "
                          f"{stats.runtime * 1e3:.3f} ms, {len(spans)} steal")
    for heading in ("time shares", "victim pressure", "5 slowest steal",
                    "search time per failed attempt",
                    "stolen spans by child ops (comms_total 6)"):
        assert f"\n{heading}" in out
    slowest = max(spans, key=lambda e: e["dur"])
    assert f"{slowest['dur']:.3f} us" in out
    w = stats.workers[1]
    assert (f"\n  pe1{w.steals_failed:10d} failed, "
            f"{w.search_time / w.steals_failed * 1e6:.3f} us each\n") in out


def fanout(width=100, leaf=2e-5):
    reg = TaskRegistry()
    reg.register("root", lambda p, tc: TaskOutcome(
        1e-5, [Task(1) for _ in range(width)]))
    reg.register("leaf", lambda p, tc: TaskOutcome(leaf))
    return reg


@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_tracing_changes_nothing_the_run_computes(impl, tmp_path):
    runs = []
    for steal_trace in (None, tmp_path / "t.json"):
        pool = TaskPool(8, fanout(), impl=impl, seed=3, steal_trace=steal_trace)
        pool.seed(0, [Task(0)])
        runs.append((pool.run().to_json(), pool.ctx.engine.instrumented_events))
    assert runs[0] == runs[1]
    assert runs[0][1] == 0


@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_an_untraced_worker_composes_the_untraced_steal(impl, tmp_path):
    plain = TaskPool(4, fanout(), impl=impl).workers[1]
    parent = plain.queue.steal if plain.damping is None else plain._probe_first_steal
    assert plain._steal == parent
    assert not hasattr(plain, "_steal_untraced")
    traced = TaskPool(4, fanout(), impl=impl, steal_trace=tmp_path / "t").workers[1]
    assert traced._steal == traced._traced_steal
    assert traced._steal_untraced == (
        traced.queue.steal if traced.damping is None
        else traced._probe_first_steal)


@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_a_traced_serve_run_has_one_span_per_attempt(impl, tmp_path):
    path = tmp_path / "serve.json"
    stats = run_serve(4, impl=impl, seed=7, steal_trace=path)
    _, traced_stats, spans = load(path)
    assert len(spans) == stats.total_steals + stats.total_failed_steals > 0
    assert traced_stats.total_steals == stats.total_steals


def test_a_traced_serve_run_carries_its_serving_books(tmp_path):
    """The trace holds the whole record the run returns, serving books
    included: it round-trips through ``RunStats.from_json``."""
    path = tmp_path / "serve.json"
    stats = run_serve(4, seed=7, slo_s=5e-5, steal_trace=path)
    _, traced_stats, _ = load(path)
    assert traced_stats.serving is not None
    assert traced_stats.serving.to_dict() == stats.serving.to_dict()
    assert traced_stats.to_json() == stats.to_json()


# ----------------------------------------------------------------------
# refused up front
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argv", [
    ["--protocol", "sws", "--backend", "threads"],
    ["--protocol", "sws", "--backend", "mp"],
    ["serve", "--backend", "mp"],
])
def test_a_realtime_backend_named_alone_is_refused(argv, tmp_path, capsys):
    path = tmp_path / "t.json"
    with nothing_left_behind():
        assert main([*argv, "--steal-trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert "real-time spans are ROADMAP item 2(b)" in captured.err
    assert captured.out == "" and not path.exists()


def test_under_all_only_the_fabric_cell_is_traced(tmp_path, capsys):
    path = tmp_path / "t.json"
    with nothing_left_behind():
        assert main(["--protocol", "sdc", "--backend", "all", "--ntasks", "60",
                     "--steal-trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "only the fabric cell is traced" in out
    assert "threads:" in out and "mp:" in out
    assert f"traced to {path}" in out and load(path)[2]


@pytest.mark.parametrize("command", [[], ["mp"], ["inspect", "t.json"]])
def test_steal_trace_without_a_run_is_refused(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--steal-trace", str(tmp_path / "t.json"), *command])
    assert exc.value.code == 2
    assert "--steal-trace traces a --protocol run or serve" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("flag_first", [False, True])
def test_serve_takes_the_flag_before_or_after_its_name(flag_first, tmp_path):
    path = tmp_path / "t.json"
    flag = ["--steal-trace", str(path)]
    argv = [*flag, "serve"] if flag_first else ["serve", *flag]
    assert main([*argv, "--duration", "1e-4", "--seed", "1"]) == 0
    assert load(path)[2]


@pytest.mark.parametrize("content", [
    None, "[1, 2]", '{"traceEvents": []}', '{"traceEvents": [], "otherData": 5}',
    "not json", b"\xff\xfe"])
def test_inspect_refuses_what_is_not_a_trace(content, tmp_path, capsys):
    path = tmp_path / "t.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["inspect", str(path)])
    assert exc.value.code == 2
    assert f"cannot inspect {path}" in capsys.readouterr().err
