"""A fixed pure-Python reference loop, timed next to every command.

On a shared machine other tenants slow this process for seconds to minutes
at a time.  On the 2-vCPU Xeon VM this benchmark was written on, the loop's
own speed varied twofold, and a workload's wall time over a 30 s run, even
the best of its repetitions, moved by a third between runs a few minutes
apart (partition: 3.4 s, then 4.6 s).  The loop slows the same way at the same moment, so a command's time
divided by the loop's time around it (its cost in reference units, "ref")
stays put: over ten seeds per workload the interquartile range of run_ref
was 3-5% of its median.  The loop does the kind of work tabkit does (row
insertion, tuples, dict updates) and touches nothing of tabkit, so a change
to tabkit moves the ratio as much as it moves the command's time.
"""

from bisect import bisect_right
from itertools import permutations
import time

SLOT_S = 0.2  # time the reference for this long before and after each command


def _insertion_rows(word):
    rows = []
    for v in word:
        for row in rows:
            i = bisect_right(row, v)
            if i == len(row):
                row.append(v)
                break
            v, row[i] = row[i], v
        else:
            rows.append([v])
    return tuple(tuple(row) for row in rows)


def kernel():
    """Row insertion of every permutation of 6, counted by insertion rows."""
    seen = {}
    for word in permutations(range(1, 7)):
        key = _insertion_rows(word)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def seconds_per_loop(slot_s=SLOT_S):
    """Mean wall seconds of one kernel() call over a slot of slot_s."""
    t0 = time.perf_counter()
    n = 0
    while True:
        kernel()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= slot_s:
            return elapsed / n
