"""Shared helpers for the benchmark: import bootstrap, stats, audits.

Imported by both ``run.py`` (the coordinator of one benchmark run) and
``child.py`` (the fresh process that sets up and measures one
workload). Importing this module has no side effects.
"""

from __future__ import annotations

import math
import os
import pathlib
import sys

#: the workloads, in the order BENCHMARK.json lists them.
WORKLOADS = ("noise-4mpx", "blobs-64mb", "blobs-64mb-faults", "service-small")


class BenchSetupError(RuntimeError):
    """The checkout cannot be benchmarked (e.g. no ``src/repro``)."""


def bootstrap(root: pathlib.Path):
    """Put ``<root>/src`` first on ``sys.path`` and import ``repro``.

    Refuses an installed copy elsewhere: the benchmark must measure the
    sources of the checkout it runs in.
    """
    src = (root / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchSetupError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    where = pathlib.Path(repro.__file__).resolve()
    if src not in where.parents:
        raise BenchSetupError(f"repro imported from {where}, not {src}")
    return repro


def n_procs() -> int:
    """Cores this process may run on (the client/rank/host ceiling)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def cache_sizes() -> dict:
    """Total L2/L3 bytes over all cache instances, as ``lscpu`` counts
    them (0 if the host does not say)."""
    seen: dict[tuple, int] = {}
    for index in pathlib.Path("/sys/devices/system/cpu").glob(
            "cpu[0-9]*/cache/index*"):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        digits = size.rstrip("KMG")
        if level in (2, 3) and kind != "Instruction" and digits.isdigit():
            seen[(level, shared)] = int(digits) * mult
    return {f"l{level}_bytes": sum(v for (lv, _), v in seen.items()
                                   if lv == level)
            for level in (2, 3)}


def cpu_ticks() -> list[int]:
    """The host's aggregate ``/proc/stat`` CPU tick counters."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of host CPU time stolen by the hypervisor in between."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta)) if len(delta) > 7 else 0.0


# -- leak audits -----------------------------------------------------------


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def open_sockets() -> set[str]:
    """Socket inodes this process holds open."""
    found = set()
    fd_dir = pathlib.Path("/proc/self/fd")
    for fd in fd_dir.iterdir() if fd_dir.is_dir() else ():
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("socket:"):
            found.add(target)
    return found


def session_members(sid: int) -> set[int]:
    """Live (non-zombie) processes whose session id is *sid*."""
    members = set()
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            members.add(int(entry.name))
    return members


def child_processes() -> set[int]:
    """Live (non-zombie) direct children of this process, except the
    interpreter's ``multiprocessing`` resource tracker (it outlives
    every pool by design and exits with this process)."""
    me = os.getpid()
    kids = set()
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if (fields[0] != "Z" and int(fields[1]) == me
                and b"resource_tracker" not in cmdline):
            kids.add(int(entry.name))
    return kids


def leftover_files(directory: pathlib.Path) -> list[str]:
    """Every path left under *directory* (empty when it is clean)."""
    if not directory.exists():
        return []
    return sorted(str(p.relative_to(directory)) for p in directory.rglob("*"))
