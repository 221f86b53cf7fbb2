"""Unbalanced Tree Search benchmark (UTS) over SHA-1 splittable trees."""

from ..._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "UtsParams": "tree",
    "UtsWorkload": "workload",
    "UtsWorkloadParams": "workload",
    "TreeType": "tree",
    "GeoShape": "tree",
    "branching_factor": "tree",
    "num_children": "tree",
    "expand": "tree",
    "enumerate_tree": "sequential",
    "TreeStats": "sequential",
    "root_state": "sha1_rng",
    "spawn": "sha1_rng",
    "rand31": "sha1_rng",
    "to_prob": "sha1_rng",
    "STATE_BYTES": "sha1_rng",
    "PAPER_TASK_SIZE": "workload",
    "PAPER_NODE_TIME": "workload",
    "NAMED_TREES": "params",
    "get_tree": "params",
    "T1WL": "params",
    "TEST_TINY": "params",
    "TEST_SMALL": "params",
    "BENCH_GEO": "params",
    "SWEEP_GEO": "params",
    "BENCH_BIN": "params",
})
