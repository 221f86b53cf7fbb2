"""Smoke tests: the fast example scripts run end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "tasks executed   : 2000" in out
    assert "efficiency" in out


def test_steal_latency():
    out = run_example("steal_latency.py")
    assert "task size 24 bytes" in out
    assert "sdc/sws ratio" in out


def test_damping_demo():
    out = run_example("damping_demo.py")
    assert "True" in out and "False" in out


def test_uts_demo_tiny():
    out = run_example("uts_demo.py", "test_tiny")
    assert "[OK ]" in out
    assert "MISMATCH" not in out


def test_paper_scale_smallest():
    out = run_example("paper_scale.py", "--depth", "1", "--npes", "4")
    assert "8,193 tasks" in out
