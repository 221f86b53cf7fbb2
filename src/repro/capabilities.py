"""Which protocol runs on which backend, with which features (named in
docs/protocols.md §0): every entry point asks :func:`check` before it
builds a pool, a heap or a process.  This module imports nothing from
the package, so ``from repro.mp import run_mp`` can afford it.
"""

_POOL = "run tree scheduler oracle lifelines victim placement"
_SERVE = "serving shedding"

#: protocol -> backend -> the features that cell runs, in registry order.
CELLS = {protocol: {b: frozenset(f.split()) for b, f in row.items()}
         for protocol, row in {
    "sws": {"fabric": f"{_POOL} {_SERVE} faults damping",
            "threads": "race", "mp": "race run serving damping"},
    "sws-v1": {"fabric": f"{_POOL} {_SERVE} damping"},
    "sdc": {"fabric": f"{_POOL} {_SERVE} faults",
            "threads": "race", "mp": "race run serving"},
    "ff-mult": {"fabric": _POOL, "threads": "race", "mp": "race"},
    "localized": {"fabric": f"{_POOL} {_SERVE} faults damping",
                  "threads": "race", "mp": "race"},
}.items()}

#: (backend, feature) -> the registered experiment row that runs that
#: backend with that feature and judges what it does there.
JUDGED_BY = {
    ("fabric", "run"): "fig7",
    ("fabric", "tree"): "ablate-termination",
    ("fabric", "serving"): "serving",
    ("fabric", "shedding"): "serving",
    ("fabric", "faults"): "ablate-faults",
    ("fabric", "damping"): "ablate-damping",
    ("fabric", "lifelines"): "ablate-lifelines",
    ("fabric", "victim"): "ablate-victims",
    ("fabric", "placement"): "ablate-victims",
    # The schedule explorer and its oracle against paper §4's claim race.
    ("fabric", "scheduler"): "explore-race",
    ("fabric", "oracle"): "explore-race",
    # The layouts on the in-process heap: the threads backend's substrate
    # and the mp queues' own code.
    ("threads", "race"): "fig2-shm",
    ("mp", "race"): "fig2-shm",
    ("mp", "damping"): "fig2-shm",
    ("mp", "run"): "xbackend",
    ("mp", "serving"): "xbackend",
}

#: Features no row's claim covers.
UNJUDGED: set[tuple[str, str]] = set()

#: Every feature some cell runs.
FEATURES = frozenset().union(*(c for row in CELLS.values()
                               for c in row.values()))

#: backend -> the fewest PEs it runs (a real-time run is an owner and a thief).
MIN_NPES = {"fabric": 1, "threads": 2, "mp": 2}

_ONCE = ("{0} needs an exactly-once protocol: {1!r} is at-least-once (tasks "
         "may duplicate (multiplicity >= 1), never vanish; executed == "
         "spawned + dup_handouts)")

#: feature -> why a protocol runs it on no backend at all.
RULES = {
    "serving": _ONCE, "shedding": _ONCE,
    "faults": "fault injection is not supported for impl={1!r} (the "
              "protocol declares no recovery path)",
}


def check(protocol: str, backend: str, features=(), npes=None) -> None:
    """Refuse, naming the rule, any cell or npes the table does not list."""
    row = CELLS.get(protocol)
    if row is None:
        raise ValueError(f"impl must be a registered protocol "
                         f"{tuple(CELLS)}, got {protocol!r}")
    if backend not in row:
        raise ValueError(f"no {backend} substrate for {protocol!r}: it runs "
                         f"on {'|'.join(row)} only")
    for f in features:
        if f in row[backend]:
            continue
        if f not in FEATURES:
            raise ValueError(f"unknown feature {f!r}: the table knows "
                             f"{', '.join(sorted(FEATURES))}")
        if f in RULES and not any(f in cell for cell in row.values()):
            raise ValueError(RULES[f].format(f, protocol))
        homes = [b for b in MIN_NPES
                 if any(f in r.get(b, ()) for r in CELLS.values())]
        if backend not in homes:
            raise ValueError(f"{f} runs on {'|'.join(homes)} only")
        raise ValueError(f"the {backend} cell of {protocol!r} runs "
                         f"{' '.join(sorted(row[backend]))}: no {f}")
    if {"faults", "tree"} <= set(features):
        raise ValueError("fault injection requires termination='ring' (the "
                         "tree detector has no fault-tolerant variant)")
    if npes is not None and npes < MIN_NPES[backend]:
        raise ValueError(f"npes: must be >= {MIN_NPES[backend]}, got {npes}")
