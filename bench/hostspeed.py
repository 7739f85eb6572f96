#!/usr/bin/env python3
"""Host-speed probe for the benchmark; answers one request per input line.

    python3 bench/hostspeed.py      # then write one worker count per line

For each line holding a worker count w it prints the seconds taken by a fixed
pure-Python loop plus, when w > 1, a round trip through a fresh pool of w
processes forked from this interpreter.  ``run.py`` keeps one of these running
as a separate interpreter that never imports cogrelay, so what it measures,
the cost of forking the pool included, follows the host's current speed and
not the memory or code of the program under test.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor

LOOPS = 200_000


def _echo(x):
    return x


def host_seconds(workers: int) -> float:
    t = time.perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_echo, range(2 * workers)))
    return time.perf_counter() - t


def main() -> int:
    for line in sys.stdin:
        print(repr(host_seconds(int(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
