"""Speed gauge: measures how fast the CPU it runs on is, moment to moment.

    python3 perfbench/gauge.py OUT_FILE

Every ``PERIOD_S`` seconds it runs ``kernel`` -- fixed pure-Python work --
and appends one line ``<perf_counter at the end> <CPU seconds the kernel
took>`` to OUT_FILE.  Timing by its own CPU time keeps the reading free of
the time the process waits for the CPU.  It runs until it is terminated or
its parent process ends.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

PERIOD_S = 0.1


def kernel() -> Fraction:
    """Fixed work of the kinds jetlift does: rational arithmetic on small
    and wide values, tuple keys and dictionary updates."""
    acc, memo = Fraction(1), {}
    for i in range(1, 200):
        key = (i % 7, i % 11, (i % 3,))
        memo[key] = memo.get(key, 0) + Fraction(i % 9 - 4, i % 5 + 1)
        acc = acc * Fraction(i % 7 + 1, i % 5 + 2) + memo[key]
    return acc


def main(path: str) -> int:
    parent = os.getppid()
    with open(path, "w", encoding="utf-8", buffering=1) as out:
        while os.getppid() == parent:
            time.sleep(PERIOD_S)
            start = time.process_time()
            kernel()
            used = time.process_time() - start
            out.write(f"{time.perf_counter()!r} {used!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
