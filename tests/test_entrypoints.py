"""Smoke tests for package entry points and the public surface."""

import subprocess
import sys

import pytest

import repro


class TestMainModule:
    def test_python_m_repro(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "SWS" in proc.stdout
        assert "SDC   6" in proc.stdout

    def test_main_function(self, capsys):
        from repro.__main__ import main

        assert main() == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_alls_resolve(self):
        import repro.analysis as analysis
        import repro.core as core
        import repro.fabric as fabric
        import repro.runtime as runtime
        import repro.shmem as shmem
        import repro.threads as threads
        import repro.workloads as workloads

        for mod in (analysis, core, fabric, runtime, shmem, threads, workloads):
            for name in mod.__all__:
                assert getattr(mod, name, None) is not None, (mod.__name__, name)

    def test_version_matches_pyproject(self):
        import pathlib
        import re

        pyproject = (
            pathlib.Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        )
        match = re.search(r'^version = "(.+)"', pyproject.read_text(), re.M)
        assert match and match.group(1) == repro.__version__

    def test_every_public_callable_has_docstring(self):
        import inspect

        missing = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    missing.append(name)
        assert not missing, f"undocumented public names: {missing}"


class TestCliChartFlag:
    def test_chart_flag_renders(self, capsys):
        from repro.__main__ import main

        rc = main(["sweep", "--scenarios", "fig6", "--tables", "--no-cache",
                   "--jobs", "1", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        # The chart block includes axis bars.
        assert "|" in out and "o=sdc" in out


class TestUsageErrors:
    """A request the CLI cannot run ends in the parser's one-line error
    with rc 2, before any heap, pool or process exists."""

    @pytest.mark.parametrize("argv,message", [
        (["mp", "--npes", "1"], "error: argument --npes: must be >= 2, got 1"),
        (["replay", "/no/such/file"],
         "error: cannot read trace /no/such/file: No such file or directory"),
        (["explore", "--replay", "/no/such/file"],
         "error: cannot read trace /no/such/file: No such file or directory"),
        (["explore", "--workload", "nope"],
         "error: argument --workload: invalid choice: 'nope' "
         "(choose from 'flat', 'tree', 'churn', 'all')"),
        (["explore", "--policy", "replay"],
         "error: argument --policy: invalid choice: 'replay' "
         "(choose from 'fixed', 'random', 'pct', 'dfs')"),
        (["--protocol", "sws-v1", "--backend", "mp"],
         "error: no mp substrate for 'sws-v1': it runs on fabric only"),
        (["serve", "--backend", "threads", "--shed-threshold", "8"],
         "error: shedding runs on fabric only"),
        (["serve", "--impl", "ff-mult"],
         "error: serving needs an exactly-once protocol: 'ff-mult' is "
         "at-least-once (tasks may duplicate (multiplicity >= 1), never "
         "vanish; executed == spawned + dup_handouts)"),
        (["mp", "--impl", "localized"],
         "error: the mp cell of 'localized' runs race: no run"),
        (["serve", "--elastic", "seeded"],
         "error: unrecognized arguments: --elastic seeded"),
        (["mp", "--crash", "1@5"],
         "error: unrecognized arguments: --crash 1@5"),
        (["mp", "--respawn"], "error: unrecognized arguments: --respawn"),
    ])
    def test_rc2_and_one_line(self, argv, message):
        import os

        shm = "/dev/shm"
        before = set(os.listdir(shm)) if os.path.isdir(shm) else set()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.rstrip().splitlines()[-1].endswith(message)
        after = set(os.listdir(shm)) if os.path.isdir(shm) else set()
        assert after == before


def test_serve_all_skips_each_backend_the_table_refuses(capsys):
    """``serve --backend all`` serves where the protocol's plain serving
    cell is listed and notes every backend it skips."""
    from repro.__main__ import main

    assert main(["serve", "--impl", "sws-v1", "--backend", "all"]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("note:")] == [
        "note: no threads substrate for 'sws-v1': it runs on fabric only",
        "note: no mp substrate for 'sws-v1': it runs on fabric only",
    ]
    assert "  fabric:" in out and "oracle clean" in out
    assert "threads:" not in out and "  mp:" not in out
