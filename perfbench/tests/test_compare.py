"""Verdicts of ``--compare``."""

import json

from perfbench.compare import compare, verdict
from perfbench.spec import END_TO_END


def cell(value, q1=None, q3=None):
    return {"value": value, "q1": q1 or value, "q3": q3 or value,
            "min": value, "max": value, "count": 5, "unit": "s",
            "raw_median": value}


def test_verdicts():
    assert verdict(cell(1.0), cell(1.05), "lower", 0.10) == (1.05, "ok")
    assert verdict(cell(1.0), cell(0.5), "lower", 0.10)[1] == "ok"
    assert verdict(cell(1.0), cell(1.2), "lower", 0.10)[1] == "worse"
    assert verdict(cell(1.0), cell(0.8), "higher", 0.10)[1] == "worse"
    # A's own repetitions spread wider than the bound: cannot tell.
    assert verdict(cell(1.0, 0.9, 1.1), cell(1.5), "lower", 0.10)[1] == "unresolved"


def result(scale):
    e2e = {m.name: cell(scale) for m in END_TO_END}
    return {"seed": 0, "workloads": {"w": {
        "end_to_end": e2e, "per_layer": {"engine.events": {"value": 7, "unit": "count"}},
        "attempted": 10, "failed": 0}}}


def test_exit_code_follows_the_worst_row(tmp_path, capsys):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(result(1.0)))
    b.write_text(json.dumps(result(1.02)))
    c.write_text(json.dumps(result(1.5)))
    assert compare(str(a), str(b)) == 0
    assert "bit-identical" in capsys.readouterr().out
    assert compare(str(a), str(c)) == 1
    assert "worse" in capsys.readouterr().out
