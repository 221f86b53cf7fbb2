#!/usr/bin/env python
"""Line-budget ratchet: ``src/**/*.py`` may shrink, never grow.

Compares the physical line count of the package source against the
number committed below and fails when it is exceeded.  A PR that deletes
code lowers BUDGET to the count this prints, in the same commit; a PR
that has to add code raises it on purpose, in the diff, where a reviewer
sees it.  ROADMAP item 3's trajectory ends at 18,000.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Physical lines in src/**/*.py at the last commit that touched this.
BUDGET = 19573


def count(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in root.rglob("*.py"))


def main() -> int:
    lines = count(Path(__file__).resolve().parent.parent / "src")
    verdict = "ok" if lines <= BUDGET else "OVER BUDGET"
    print(f"src/**/*.py: {lines} lines, budget {BUDGET}: {verdict}")
    return 0 if lines <= BUDGET else 1


if __name__ == "__main__":
    sys.exit(main())
