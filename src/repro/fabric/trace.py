"""The steal trace: one Chrome / Perfetto JSON file per traced run.

``TaskPool(..., steal_trace=PATH)`` (``python -m repro --protocol P
--steal-trace PATH``, ``serve --steal-trace PATH``) builds its context
with ``trace_comm=True``, so the fabric records every one-sided op
(:class:`~repro.fabric.metrics.OpRecord`) and each worker every steal
attempt and queue checkpoint.  :func:`write` is the file's one writer and
:func:`report` (``python -m repro inspect PATH``) its one reader:

* a steal attempt is an ``"X"`` span on the thief's lane, named by its
  outcome, with victim, volume and the kinds of its child ops in args —
  for a ``stolen`` span, Fig. 2's communications plus any damping probe
  or lock retry;
* a fabric op is an ``"i"`` instant on its initiator's lane, which
  Perfetto nests under the span it falls in;
* a checkpoint's (local, stealable) occupancy is a ``"C"`` counter;
* ``otherData`` holds the run's ``RunStats`` and the protocol's
  ``comms_total``.

A PE is a lane (``pid`` = ``tid`` = rank); times are virtual
microseconds.  Nothing here imports the simulator.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict

from ..runtime.stats import RunStats

#: Virtual seconds to trace microseconds.
US = 1e6
SLOWEST = 5


def write(path, pool, stats: RunStats) -> None:
    """Write the trace of ``pool``'s finished run, whose stats are ``stats``."""
    ops = pool.ctx.metrics.trace
    events = []
    for w in pool.workers:
        pe = w.rank
        events.append({"name": "process_name", "ph": "M", "pid": pe,
                       "args": {"name": f"pe{pe}"}})
        for victim, t0, t1, status, ntasks, first, end in w.spans:
            events.append({
                "name": status.value, "cat": "steal", "ph": "X", "pid": pe,
                "tid": pe, "ts": t0 * US, "dur": t1 * US - t0 * US,
                "args": {"victim": victim, "ntasks": ntasks, "ops": [
                    r.kind for r in ops[first:end] if r.initiator == pe]},
            })
        events += [{"name": "queue", "ph": "C", "pid": pe, "ts": t * US,
                    "args": {"local": local, "stealable": stealable}}
                   for t, local, stealable in w.samples]
    events += [{"name": r.kind, "cat": "op", "ph": "i", "s": "t",
                "pid": r.initiator, "tid": r.initiator, "ts": r.time * US,
                "args": {"target": r.target, "bytes": r.nbytes}} for r in ops]
    other = {"protocol": pool.impl, "comms_total": pool.protocol.comms_total,
             "stats": json.loads(stats.to_json())}
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "otherData": other}, fh)


def load(path) -> dict:
    """The trace at ``path``; ``ValueError`` if it is not one :func:`write`
    wrote (undecodable JSON included), ``OSError`` if it cannot be read."""
    with open(path) as fh:
        doc = json.load(fh)
    other = doc.get("otherData") if isinstance(doc, dict) else None
    if not (isinstance(other, dict) and "stats" in other
            and isinstance(doc.get("traceEvents"), list)):
        raise ValueError("not a steal trace (written by --steal-trace)")
    return doc


def report(path) -> str:
    """``inspect``'s fixed report on the trace at ``path``."""
    doc = load(path)
    other = doc["otherData"]
    stats = RunStats.from_json(json.dumps(other["stats"]))
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    nops = sum(e["ph"] == "i" for e in doc["traceEvents"])
    runtime = stats.runtime or 1.0
    out = [f"{other['protocol']}: {stats.npes} PEs, virtual runtime "
           f"{stats.runtime * 1e3:.3f} ms, {len(spans)} steal attempts, "
           f"{nops} fabric ops",
           "", "time shares       task   steal  search  manage    rest"]
    for w in stats.workers:
        shares = (w.task_time, w.steal_time, w.search_time,
                  w.acquire_time + w.release_time,
                  runtime - w.task_time - w.overhead_time)
        out.append(f"  pe{w.rank:<5}" + "".join(f"{s / runtime:8.1%}"
                                                for s in shares))
    out.append(f"  efficiency {stats.parallel_efficiency:.1%}, "
               f"idle {stats.idle_fraction:.1%}")

    pressure: dict[int, Counter] = defaultdict(Counter)
    for e in spans:
        tally = pressure[e["args"]["victim"]]
        tally["attempts"] += 1
        if e["name"] == "stolen":
            tally["stolen"] += 1
            tally["tasks"] += e["args"]["ntasks"]
    out += ["", "victim pressure   attempts  stolen   tasks"]
    out += [f"  pe{v:<12}{t['attempts']:9d}{t['stolen']:8d}{t['tasks']:8d}"
            for v, t in sorted(pressure.items())]

    out += ["", f"{SLOWEST} slowest steal attempts"]
    for e in sorted(spans, key=lambda e: e["dur"], reverse=True)[:SLOWEST]:
        a = e["args"]
        out.append(f"  pe{e['pid']} <- pe{a['victim']}: {e['dur']:.3f} us, "
                   f"{e['name']} {a['ntasks']}, ops: {' '.join(a['ops'])}")

    out += ["", "search time per failed attempt"]
    for w in stats.workers:
        per = w.search_time / w.steals_failed * US if w.steals_failed else 0.0
        out.append(f"  pe{w.rank:<5}{w.steals_failed:6d} failed, "
                   f"{per:.3f} us each")

    children = Counter(len(e["args"]["ops"]) for e in spans
                       if e["name"] == "stolen")
    out += ["", f"stolen spans by child ops (comms_total "
                f"{other['comms_total']}): " + ", ".join(
                    f"{n} ops x{k}" for n, k in sorted(children.items()))]
    if children:
        out[-1] += f"; mode {children.most_common(1)[0][0]}"
    return "\n".join(out) + "\n"
