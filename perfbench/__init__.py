"""Host-time benchmark of the reproduction: ``python3 -m perfbench``.

See README.md in this directory.  The package holds the benchmark and
nothing else; it measures the program under ``src/repro`` from outside.
"""
