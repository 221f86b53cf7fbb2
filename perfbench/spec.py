"""What the benchmark runs and what it reports.

``BENCHMARK.json`` at the root of the repository is the same information
in the form the driver reads; ``tests/test_spec.py`` keeps the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .layers import LAYERS

#: How long one measurement measures unless ``--seconds`` says otherwise.
RUN_SECONDS = 20

#: Every repetition runs the structured-atomics protocol, then the
#: lock-based baseline it is compared with, on identical inputs.
IMPLS = ("sws", "sdc")

#: Workloads whose program runs in the harness's child interpreter, so a
#: ``cProfile`` repetition can attribute self time to layers.
FABRIC = ("bpc_coarse", "uts_fine", "serve_open", "oracle_explore")

#: name -> why it is here (one line; README.md has the long form).
WORKLOADS = {
    "bpc_coarse": "32 PEs, 528 coarse tasks: idle PEs hammer the thief path "
                  "(failed steals, remote AMOs, termination); engine and NIC dominate",
    "uts_fine": "4 PEs, 34k fine SHA-1 tasks: the owner path (local push/pop, "
                "release/acquire) and task bodies; engine and NIC stay under 10 %",
    "serve_open": "open loop in simulated time: Poisson arrivals at 0.8x capacity "
                  "on 8 PEs, p99 SLO 50 us; injector, sketch and controller work",
    "oracle_explore": "oracle on, random scheduler: the traffic of the schedule and "
                      "conformance suites; over 90 % of self time in runtime/oracle.py",
    "mp_uts": "2 real PE processes over shared memory: atomics seam, bulk data "
              "plane, fork/join/unlink; no simulator layer runs at all",
    "cli_e2e": "six CLI commands, interpreter start to exit: imports, fork and "
               "process-pool start dominate; a hot-loop change must not show",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may get
    #: worse; ``None`` for per-layer metrics, which have no bound.
    bound: float | None = None
    #: Repeats exactly for a fixed seed (a count or a simulated
    #: statistic, not a host time), so two commits compare exactly.
    exact: bool = False


END_TO_END = (
    # setup_s is the shortest interval (0.13-0.25 s of interpreter start,
    # import and build), so jitter is its largest share: the widest bound.
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.15),
    Metric("cpu_s", "s", "lower", 0.15),
    Metric("peak_rss_mb", "MiB", "lower", 0.08),
)


def _per_layer() -> tuple[Metric, ...]:
    out: list[Metric] = []

    def add(names: str, unit: str, better: str = "lower", exact: bool = False) -> None:
        out.extend(Metric(n, unit, better, exact=exact) for n in names.split())

    # End-to-end in meaning, but exact and defined on some workloads only:
    # the driver's bounds are relative and need a value on every workload.
    add("virt_runtime_ms", "ms", exact=True)
    add("virt_p99_us", "us", exact=True)
    add("failed_frac", "ratio", exact=True)
    # Self time by layer, from the cProfile repetition.
    for layer in LAYERS:
        add(f"{layer}.self_s", "s")
        add(f"{layer}.calls", "count", exact=True)
    add("trace.overhead_ratio", "ratio")
    add("span.import_s span.generate_s span.build_s span.run_s.sws "
        "span.run_s.sdc span.verify_s span.teardown_s", "s")
    # Counts and simulated statistics.
    add("engine.events", "count", exact=True)
    add("engine.host_ns_per_event", "ns")
    add("nic.ops nic.blocking_ops", "count", exact=True)
    add("nic.bytes", "bytes", exact=True)
    add("protocol.steals_ok", "count", "higher", exact=True)
    add("protocol.steals_failed", "count", exact=True)
    add("protocol.steal_success_ratio", "ratio", "higher", exact=True)
    add("protocol.tasks_stolen protocol.releases protocol.acquires",
        "count", exact=True)
    add("protocol.comms_per_steal.sws protocol.comms_per_steal.sdc",
        "count", exact=True)
    add("protocol.virt_steal_ms.sws protocol.virt_steal_ms.sdc "
        "protocol.virt_search_ms.sws protocol.virt_search_ms.sdc",
        "ms", exact=True)
    add("worker.tasks_executed", "count", "higher", exact=True)
    add("worker.host_us_per_task", "us")
    add("worker.virt_efficiency", "ratio", "higher", exact=True)
    add("termination.virt_ms", "ms", exact=True)
    add("serving.emitted serving.completed", "count", "higher", exact=True)
    add("serving.shed", "count", exact=True)
    add("serving.virt_p50_us serving.virt_p99_us.r50 serving.virt_p99_us.r80 "
        "serving.virt_p99_us.r95", "us", exact=True)
    add("serving.slo_attained_frac", "ratio", "higher", exact=True)
    add("serving.max_rate_meeting_slo", "1/s", "higher", exact=True)
    add("serving.gen_lateness_us", "us", exact=True)
    add("oracle.checks", "count", exact=True)
    add("oracle.host_ms_per_event", "ms")
    # Isolated probes of one layer's public functions.
    add("engine.probe_ns_per_event calendar.probe_ns_per_op "
        "heap.probe_ns_per_word_op protocol.probe_ns_per_codec "
        "stats.probe_ns_per_sketch_add atomics.probe_ns_fetch_add "
        "atomics.probe_ns_load_seq atomics.probe_ns_cas "
        "dataplane.probe_ns_per_task_copy mpqueue.probe_ns_push_pop.sws "
        "mpqueue.probe_ns_push_pop.sdc", "ns")
    add("nic.probe_host_us_per_amo protocol.probe_host_us_per_steal.sws "
        "protocol.probe_host_us_per_steal.sdc workload.probe_us_per_uts_node "
        "mpqueue.probe_us_steal.sws mpqueue.probe_us_steal.sdc", "us")
    # The real-process substrate and the CLI, timed from outside.
    add("mp.run_s.sws mp.run_s.sdc mp.startup_s", "s")
    add("mp.tasks_per_s", "1/s", "higher")
    add("mp.steals mp.tasks_stolen", "count")
    add("mp.procs_leaked mp.shm_leaked", "count", exact=True)
    add("cli.import_s cli.demo_s cli.protocol_all_s cli.serve_s cli.mp_s "
        "cli.sweep_s", "s")
    add("cli.modules_imported cli.rc_nonzero", "count", exact=True)
    return tuple(out)


PER_LAYER = _per_layer()

#: The serving SLO (simulated time) and the three offered rates of
#: ``serve_open``: 0.5x, 0.8x and 0.95x of capacity (8 PEs / 2 us).
SERVE_SLO_S = 50e-6
SERVE_RATES = {"r50": 2_000_000, "r80": 3_200_000, "r95": 3_800_000}

#: Iterations of the calibration loop (``child.spin``), and the seconds
#: they take on the reference host when no neighbour disturbs it.  Host
#: times are reported at that clock rate (see README.md, "The clock").
SPIN_ITERATIONS = 30_000
SPIN_REF_S = 0.0180
