"""The fresh process that sets up, and then times, one workload.

Started by ``run.py``, never by hand::

    python3 perfbench/child.py --root . --work DIR --workload NAME \
        --mode setup|measure --trace 0|1 --seconds S --spawned T \
        --result FILE

``--spawned`` is the coordinator's ``time.perf_counter()`` just before
it started this process (``CLOCK_MONOTONIC``, comparable across
processes on Linux), so ``setup_s`` runs from process start through
imports, pool and host start-up and the warm-up call. ``setup`` mode
stops there; ``measure`` mode then runs the untraced loop (``--trace
0``) or the per-layer sweep (``--trace 1``). Either way the workload is
stopped, this process checks that it leaks no socket or child process,
and it writes what it measured to ``--result``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import sys
import tempfile
import time

import common


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--mode", required=True, choices=("setup", "measure"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sockets_before = common.open_sockets()
    repro = common.bootstrap(pathlib.Path(args.root))
    work = pathlib.Path(args.work)
    tempfile.tempdir = str(work / "tmp")
    manifest = json.loads((work / "manifest.json").read_text())

    import workloads
    from checks import Tally

    tally = Tally()
    procs = common.n_procs()
    wl = workloads.make(args.workload, repro, work, manifest, procs, tally)
    result: dict = {"setup_s": time.perf_counter() - args.spawned}
    try:
        if args.mode == "measure":
            if args.trace:
                result["layers"] = wl.trace(args.seconds)
            else:
                result["samples"] = wl.run(args.seconds).as_dict()
    finally:
        wl.close()
    del wl
    gc.collect()

    leaks = []
    sockets = common.open_sockets() - sockets_before
    if sockets:
        leaks.append(f"{len(sockets)} open socket(s) left after the run")
    kids = common.child_processes()
    if kids:
        leaks.append(f"child processes left running: {sorted(kids)}")
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        reasons=tally.reasons[:20],
        leaks=leaks,
        peak_rss_mb=(self_kb + child_kb) / 1024.0,
    )
    pathlib.Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
