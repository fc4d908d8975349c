"""Oracle checks and the operation tally every timed call goes through."""

from __future__ import annotations

import os
import sys
import traceback

import numpy as np


class Tally:
    """Operations attempted and failed (raised, wrong, or not as asked).

    Every timed call is counted once here, whether it raised, returned
    a wrong answer, or (on the faults workload) ran without its fault
    firing.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self, good: bool, what: str) -> bool:
        self.attempted += 1
        if not good:
            self.failed += 1
            self.reasons.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return good

    def error(self, what: str) -> None:
        """Count the operation that just raised (call inside ``except``)."""
        self.attempted += 1
        self.failed += 1
        self.reasons.append(what)
        print(f"perfbench: ERROR in {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def same_partition(labels, n, oracle, n_oracle) -> bool:
    """True iff *labels* (*n* components) partition the foreground
    exactly as *oracle* does.

    ``m[oracle] == labels`` everywhere makes oracle-label -> label a
    function that keeps the background at 0; distinct images of the
    ``n_oracle`` components make it a bijection.
    """
    labels = np.asarray(labels)
    oracle = np.asarray(oracle)
    if labels.shape != oracle.shape or int(n) != int(n_oracle):
        return False
    m = np.zeros(int(n_oracle) + 1, dtype=np.int64)
    m[oracle.ravel()] = labels.ravel()
    if m[0] != 0 or not np.array_equal(m[oracle], labels):
        return False
    images = m[1:]
    return bool((images > 0).all()) and np.unique(images).size == images.size


def files_identical(a, b, chunk: int = 1 << 22) -> bool:
    if os.path.getsize(a) != os.path.getsize(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            ba = fa.read(chunk)
            if ba != fb.read(chunk):
                return False
            if not ba:
                return True
