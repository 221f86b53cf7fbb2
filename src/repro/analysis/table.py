"""The experiment table: one sqlite file, one row per (job, code version).

**Keyfields** ``(kind, name, params, code_version)`` say which job ran on
which sources; **resultfields** ``status`` (``done`` | ``error``),
``error``, ``verdict``, ``payload``, ``wall_s``, ``events`` say what came
of it.  ``python -m repro sweep`` is the only writer (the parent process,
one committed transaction per finished job, so a killed run never leaves
half a row); the ASCII tables, CSVs, EXPERIMENTS.md and the diff between
two code versions are all views of these rows.  ``sqlite3`` is imported
when a table file is opened, not before.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SCHEMA_VERSION = 1

_RESULTFIELDS = ("status", "error", "verdict", "payload", "wall_s", "events")


def _key(spec: dict, code_version: str) -> tuple[str, str, str, str]:
    params = {k: v for k, v in spec.items() if k not in ("kind", "name")}
    return (spec["kind"], spec["name"],
            json.dumps(params, sort_keys=True), code_version)


class Table:
    """The results file: rows keyed by job spec and code version."""

    def __init__(self, path: str | Path) -> None:
        import sqlite3

        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.db = sqlite3.connect(self.path)
        found = self.db.execute("PRAGMA user_version").fetchone()[0]
        if found == 0:
            with self.db:
                self.db.execute(
                    "CREATE TABLE IF NOT EXISTS experiments ("
                    "kind TEXT, name TEXT, params TEXT, code_version TEXT, "
                    "status TEXT, error TEXT, verdict TEXT, payload TEXT, "
                    "wall_s REAL, events INTEGER, "
                    "PRIMARY KEY (kind, name, params, code_version))"
                )
                self.db.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        elif found != SCHEMA_VERSION:
            self.db.close()
            raise ValueError(
                f"{self.path} has schema {found}, expected {SCHEMA_VERSION}"
            )

    def put(self, spec: dict, code_version: str, result: dict) -> None:
        """Write one finished job's resultfields (replacing its old row)."""
        fields = dict(result, payload=json.dumps(result["payload"], sort_keys=True))
        with self.db:  # one transaction: the row is whole or absent
            self.db.execute(
                "INSERT OR REPLACE INTO experiments VALUES (?,?,?,?,?,?,?,?,?,?)",
                _key(spec, code_version) + tuple(fields[f] for f in _RESULTFIELDS),
            )

    def get(self, spec: dict, code_version: str) -> dict | None:
        """The row for ``spec`` at ``code_version``, or None."""
        row = self.db.execute(
            f"SELECT {', '.join(_RESULTFIELDS)} FROM experiments WHERE kind=? "
            "AND name=? AND params=? AND code_version=?",
            _key(spec, code_version),
        ).fetchone()
        if row is None:
            return None
        out = dict(zip(_RESULTFIELDS, row), spec=spec, code_version=code_version)
        out["payload"] = json.loads(out["payload"])
        return out

    def code_versions(self) -> list[str]:
        """Every code version that has at least one row."""
        return [v for (v,) in self.db.execute(
            "SELECT DISTINCT code_version FROM experiments ORDER BY 1")]

    def close(self) -> None:
        self.db.close()


@dataclass(frozen=True)
class RowDiff:
    """One cell that differs between two stored payloads of the same job."""

    row: int       # position in the payload's rows; -1 for a shape change
    column: str
    before: object
    after: object

    def rel_change(self) -> float | None:
        """Relative change, or None (not numeric, or a zero baseline)."""
        b, a = self.before, self.after
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (b, a))
        return (a - b) / b if numeric and b else None

    def render(self) -> str:
        rel = self.rel_change()
        where = "shape" if self.row < 0 else f"row {self.row} {self.column}"
        return (f"{where}: {self.before} -> {self.after}"
                + ("" if rel is None else f" ({rel:+.1%})"))


def _grid(payload: dict) -> tuple[list, list[list]]:
    """(headers, rows) of a payload; a flat cell/mp payload is one row."""
    if "rows" in payload:
        return payload["headers"], payload["rows"]
    flat = payload.get("summary", payload)
    return list(flat), [list(flat.values())]


def diff_payloads(before: dict, after: dict) -> list[RowDiff]:
    """Cells that differ, rows aligned by position and compared exactly
    (the simulator is deterministic: any difference is a change)."""
    (hb, rb), (ha, ra) = _grid(before), _grid(after)
    if hb != ha or len(rb) != len(ra):
        return [RowDiff(-1, "shape", f"{len(rb)} rows x {hb}",
                        f"{len(ra)} rows x {ha}")]
    return [
        RowDiff(i, col, b, a)
        for i, (row_b, row_a) in enumerate(zip(rb, ra))
        for col, b, a in zip(hb, row_b, row_a)
        if b != a
    ]


def render_diff(diffs: list[RowDiff]) -> str:
    """One line per differing cell, or the no-change message."""
    return "".join(d.render() + "\n" for d in diffs) or "(no changes)\n"
