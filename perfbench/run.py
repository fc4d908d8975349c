"""Benchmark of the labeling stack: one workload, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload noise-4mpx --seed 1 --trace 0

Workloads: ``noise-4mpx``, ``blobs-64mb``, ``blobs-64mb-faults`` and
``service-small`` (why each exists, and which per-layer metric should
move which end-to-end metric: ``perfbench/README.md``); ``--workload
all`` runs the four in turn.

The run builds the workload's inputs and oracles from ``--seed`` (not
timed), times ``SETUP_PROBES`` fresh set-ups, then starts one fresh
process that sets up once more and measures for ``--seconds``: the
untraced closed loop with ``--trace 0`` (the end-to-end metrics of
``BENCHMARK.json``), or every layer under a trace recorder with
``--trace 1`` (its per-layer metrics). Every timed call is checked
against an oracle. After the run, ``/dev/shm``, child processes, open
sockets and checkpoint scratch are compared with their state before it;
a leak fails the run. Human-readable lines go first; the last line of
standard output is the JSON result. Exit status: 0 for a correct run,
1 for a failed or leaking one, 2 when the checkout cannot be
benchmarked (e.g. it has no ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import common

HERE = pathlib.Path(__file__).resolve().parent

#: fresh set-ups timed besides the measuring process's own.
SETUP_PROBES = 3

#: every run must end within this many seconds.
RUN_DEADLINE = 170.0

#: what ``mpx_per_s`` and ``alt_mpx_per_s`` time on each workload, and
#: the workload-specific name the second-path rate is also printed as.
PATHS = {
    "noise-4mpx": (
        "paremsp(backend='threads', n_threads=nproc, engine='vectorized')",
        "repro.label(engine='vectorized')", "serial_mpx_per_s"),
    "blobs-64mb": (
        "shard_label(n_shards=4, n_ranks=nproc)",
        "net_shard_label(virtual_hosts=nproc, n_shards=4)", "net_mpx_per_s"),
    "blobs-64mb-faults": (
        "shard_label(n_shards=4, n_ranks=nproc) + one kill_rank",
        "net_shard_label(virtual_hosts=nproc, n_shards=4) + one partition",
        "net_mpx_per_s"),
    "service-small": (
        "LabelService(workers=nproc).label from nproc client threads",
        "inline repro.label(engine='vectorized'), one caller",
        "inline_mpx_per_s"),
}


class RunFailed(RuntimeError):
    pass


def spawn(root, work, workload, mode, trace, seconds, deadline, tag) -> dict:
    """Run child.py in its own session; return its result.

    Anything still alive in that session once the child has exited is a
    leaked descendant: it is killed and the leak is reported.
    """
    result = work / f"result-{tag}.json"
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    t0 = time.perf_counter()
    cmd = [
        sys.executable, str(HERE / "child.py"), "--root", str(root),
        "--work", str(work), "--workload", workload, "--mode", mode,
        "--trace", str(trace), "--seconds", str(seconds),
        "--spawned", repr(t0), "--result", str(result),
    ]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunFailed(f"{tag}: no result before the run deadline")
    # helpers such as the resource tracker exit on their own once the
    # child is gone; give them a moment before calling anything a leak
    _wait_gone(proc.pid, timeout=3.0)
    leaked = common.session_members(proc.pid)
    if leaked:
        os.killpg(proc.pid, signal.SIGKILL)
        _wait_gone(proc.pid)
    if rc != 0:
        raise RunFailed(f"{tag}: exited with status {rc}")
    out = json.loads(result.read_text())
    if leaked:
        out["leaks"].append(f"processes outlived {tag}: {sorted(leaked)}")
    return out


def _wait_gone(sid: int, timeout: float = 10.0) -> None:
    stop = time.perf_counter() + timeout
    while common.session_members(sid) and time.perf_counter() < stop:
        time.sleep(0.05)


def end_to_end(samples: dict, setups: list[float], peak_mb: float,
               attempted: int, failed: int) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the ungated extras printed
    beside them (request rate and p99, which only the service workload
    has enough operations per run to measure steadily)."""
    primary, alt = samples["primary"], samples["alt"]
    if not primary or not alt:
        raise RunFailed("no operation succeeded on one of the two paths")
    op_mpx = samples["op_mpx"]
    if samples["rates"]:  # concurrent clients: median block rate
        mpx = common.median(samples["rates"])
        alt_mpx = common.median(samples["alt_rates"])
        rps = len(primary) / samples["wall"]
    else:
        mpx = op_mpx / common.median(primary)
        alt_mpx = op_mpx / common.median(alt)
        rps = len(primary) / sum(primary)
    gated = {
        "setup_s": common.median(setups),
        "peak_rss_mb": peak_mb,
        "success_frac": 1.0 - failed / attempted,
        "mpx_per_s": mpx,
        "alt_mpx_per_s": alt_mpx,
        "latency_p50_ms": 1e3 * common.median(primary),
    }
    extra = {
        "requests_per_s": (rps, "1/s"),
        "latency_p99_ms": (1e3 * common.percentile(primary, 0.99), "ms"),
        "operations": (len(primary) + len(alt), "count"),
    }
    return gated, extra


def scratch_leftovers(work: pathlib.Path) -> list[str]:
    """Checkpoint scratch or temporary files a run left behind."""
    left = [f"tmp/{p}" for p in common.leftover_files(work / "tmp")]
    for ck in work.glob("ck-*"):
        left += [f"{ck.name}/{p}" for p in common.leftover_files(ck)]
    return left


def run_all(args) -> int:
    """Run every workload in turn, each in a fresh coordinator process;
    the last line merges their results, metrics keyed
    ``<workload>/<metric>``."""
    merged: dict = {}
    correct, attempted, failed = True, 0, 0
    for workload in common.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {workload} gave no result "
                  f"(status {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{workload}/{name}": value
                       for name, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=common.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    deadline = time.perf_counter() + RUN_DEADLINE

    root = pathlib.Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        repro = common.bootstrap(root)
    except (OSError, ValueError, ImportError, common.BenchSetupError) as exc:
        print(f"perfbench: cannot benchmark {root}: {exc}", file=sys.stderr)
        return 2
    import inputs

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = root / ".perfbench-work" / run_id
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")
    shm_before = common.shm_segments()
    leaks: list[str] = []
    try:
        manifest = inputs.build(repro, args.workload, work, args.seed)
        os.sync()  # start timing with the inputs written back
        setups = []
        for k in range(SETUP_PROBES):
            probe = spawn(root, work, args.workload, "setup", 0, 0, deadline,
                          f"setup-{k}")
            setups.append(probe["setup_s"])
            leaks += probe["leaks"]
        ticks = common.cpu_ticks()
        run = spawn(root, work, args.workload, "measure", args.trace,
                    args.seconds, deadline, "measure")
        steal = common.steal_share(ticks, common.cpu_ticks())
        setups.append(run["setup_s"])
        leaks += run["leaks"]
        attempted, failed = run["attempted"], run["failed"]
        extra = {}
        if args.trace:
            metrics = run["layers"]
        else:
            metrics, extra = end_to_end(run["samples"], setups,
                                        run["peak_rss_mb"], attempted, failed)
        leaks += [f"checkpoint/temporary file left: {p}"
                  for p in scratch_leftovers(work)]
    except RunFailed as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    leaks += [f"/dev/shm segment left: {s}"
              for s in sorted(common.shm_segments() - shm_before)]
    if set(metrics) != set(declared):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(declared) - set(metrics))}, "
              f"extra {sorted(set(metrics) - set(declared))}",
              file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"procs={common.n_procs()} seconds={args.seconds:g}")
    print("inputs " + json.dumps(manifest["describe"]))
    print(f"  host CPU time stolen by the hypervisor while measuring: "
          f"{100 * steal:.1f}% (timings slow down as it grows)")
    if not args.trace:
        primary, alt, alias = PATHS[args.workload]
        print(f"  mpx_per_s times {primary}")
        print(f"  alt_mpx_per_s times {alt} (reported as {alias})")
        print(f"  failed_frac {failed / attempted:.6g} frac "
              f"({failed} of {attempted} operations; success_frac = 1 - "
              "failed_frac)")
    for name, unit in declared.items():
        print(f"  {name:32s} {metrics[name]:>14.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"  {name:32s} {value:>14.6g} {unit} (not gated)")
    if not args.trace:
        for path in ("primary", "alt"):
            times = run["samples"][path]
            if len(times) > 64:  # summarise long request streams
                times = [min(times), common.median(times), max(times)]
                label = "min/median/max"
            else:
                label = "each"
            shown = " ".join(f"{1e3 * t:.4g}" for t in times)
            print(f"  {path} op ms ({label}): {shown}")
    for reason in run.get("reasons", []):
        print(f"  failed: {reason}")
    for leak in leaks:
        print(f"  LEAK: {leak}")

    correct = failed == 0 and not leaks
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
