"""Shared fixtures and helpers for protocol tests."""

from __future__ import annotations

import signal
from contextlib import ExitStack

import pytest

from repro.core.config import QueueConfig
from repro.core.sdc_queue import SdcQueueSystem
from repro.core.sws_queue import SwsQueueSystem
from repro.fabric.latency import ZERO_LATENCY, LatencyModel
from repro.shmem.api import ShmemCtx

#: Simple latencies for hand-verifiable protocol timing.
TEST_LAT = LatencyModel(
    alpha_sw=0.1e-6,
    half_rtt_inter=1.0e-6,
    half_rtt_intra=0.3e-6,
    beta=1e-9,
    amo_process=0.05e-6,
    get_process=0.02e-6,
)


def run_procs(ctx: ShmemCtx, *gens, names=None):
    """Spawn generator processes, run to completion, return their results."""
    procs = []
    for i, g in enumerate(gens):
        name = names[i] if names else f"p{i}"
        procs.append(ctx.engine.spawn(g, name))
    ctx.run()
    return [p.result for p in procs]


def collect(gen):
    """Run a generator that never yields comm (pure-local op sequence)."""
    try:
        while True:
            next(gen)
            raise AssertionError("generator unexpectedly yielded")
    except StopIteration as stop:
        return stop.value


def make_system(impl: str, npes: int = 2, latency=TEST_LAT, **cfg_kwargs):
    """Build a ctx + queue system of either implementation."""
    defaults = dict(qsize=256, task_size=16)
    defaults.update(cfg_kwargs)
    cfg = QueueConfig(**defaults)
    ctx = ShmemCtx(npes, latency=latency)
    cls = SwsQueueSystem if impl == "sws" else SdcQueueSystem
    return ctx, cls(ctx, cfg)


def rec(i: int, size: int = 16) -> bytes:
    """A distinguishable task record of ``size`` bytes."""
    return i.to_bytes(4, "little") + bytes(size - 4)


def rec_id(record: bytes) -> int:
    """Inverse of :func:`rec`."""
    return int.from_bytes(record[:4], "little")


@pytest.fixture(params=["sws", "sdc"])
def impl(request):
    """Parametrize a test over both queue implementations."""
    return request.param


@pytest.fixture
def shim_queue():
    """``shim_queue(impl, tasks)``: the threads backend's queue — the mp
    layout ``impl`` names, owned on an in-process heap holding ``tasks``.
    Every heap made is unlinked at teardown."""
    from repro.mp.queue import in_process_queue

    with ExitStack() as stack:
        yield lambda impl, tasks: stack.enter_context(
            in_process_queue(impl, tasks))


# ----------------------------------------------------------------------
# @pytest.mark.timeout fallback when pytest-timeout is not installed
# ----------------------------------------------------------------------
# Race / chaos / mp tests all carry ``@pytest.mark.timeout(N)`` so a
# wedged thread or child process fails the test instead of hanging the
# whole suite.  CI installs pytest-timeout (see pyproject's test
# extras); environments without it get this best-effort SIGALRM
# enforcement — same marker, coarser mechanics (1s granularity, main
# thread only, no effect on platforms without SIGALRM).

def _has_timeout_plugin(config) -> bool:
    pm = config.pluginmanager
    return pm.hasplugin("timeout") or pm.hasplugin("pytest_timeout")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout")
    use_alarm = (
        marker is not None
        and marker.args
        and not _has_timeout_plugin(item.config)
        and hasattr(signal, "SIGALRM")
    )
    if not use_alarm:
        yield
        return

    budget = max(1, int(marker.args[0]))

    def _expired(signum, frame):
        pytest.fail(f"test exceeded {budget}s timeout (SIGALRM fallback)",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(budget)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
