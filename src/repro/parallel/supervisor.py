"""Worker supervision for the process backend: detect, respawn, bound.

The fork-per-batch scan of :class:`repro.parallel.backends.processes.
ProcessBackend` used to treat any nonzero worker exit as fatal and any
hang as a test-suite timeout. :func:`supervise` upgrades that to real
resilience:

* **death detection** — workers are watched through their OS-level
  ``Process.sentinel`` file descriptors (``multiprocessing.connection.
  wait``), so a SIGKILLed or OOM-killed worker is noticed the moment
  the kernel closes its pipe, not when a ``join`` happens to return;
* **bounded respawn** — a failed worker's *incomplete* chunks (the
  shared used-watermark array says which finished) are re-batched and
  re-forked with exponential backoff, up to
  :class:`~repro.faults.ResilienceConfig.max_retries`; chunk scans are
  idempotent (disjoint row/label ranges), so re-running a partially
  scanned chunk is safe by construction;
* **watchdog** — the whole phase runs against one deadline
  (``phase_timeout``); on expiry every live worker is killed and a
  typed :class:`~repro.errors.PhaseTimeoutError` is raised — a hang is
  never allowed to outlive the budget;
* **no orphans** — on *any* exit path, including ``KeyboardInterrupt``
  mid-wait, still-running children are killed before the exception
  propagates.

Progress lands in the trace as ``retry.*`` / ``worker.*`` /
``watchdog.*`` events (docs/RESILIENCE.md has the inventory), and
injected faults are arbitrated here coordinator-side via
:meth:`~repro.faults.FaultPlan.directives` so firing budgets need no
cross-process state.
"""

from __future__ import annotations

import time
from multiprocessing import connection
from typing import Callable, Sequence

from ..errors import PhaseTimeoutError, WorkerCrashError
from ..faults import NULL_PLAN, ResilienceConfig, record_injection
from ..obs import NULL_RECORDER

__all__ = ["supervise", "kill_workers", "interruptible_backoff"]

#: grace period (seconds) for a killed worker to be reaped.
_KILL_GRACE = 5.0


def kill_workers(procs) -> None:
    """Kill and reap every live process in *procs* — **idempotent**.

    Safe to call twice (a second signal races a first drain), safe on
    already-dead or never-started processes, safe concurrently:
    ``kill`` on a reaped process is a no-op and double ``join`` just
    returns. Both the scan supervisor and the warm worker pool
    (:mod:`repro.service.pool`) funnel every shutdown path through
    here so no exit path can strand a child.
    """
    for proc in procs:
        try:
            if proc.is_alive():
                proc.kill()
        except (ValueError, OSError):  # pragma: no cover - closed proc
            pass
    for proc in procs:
        try:
            if proc.pid is not None:
                proc.join(_KILL_GRACE)
        except (ValueError, OSError):  # pragma: no cover - closed proc
            pass


def interruptible_backoff(delay: float, stop_event=None) -> bool:
    """Sleep *delay* seconds, waking early if *stop_event* is set.

    Returns ``True`` when the sleep was interrupted (drain requested).
    A plain ``time.sleep`` here is how a graceful drain used to strand
    a respawning worker: the drain signal landed mid-backoff and the
    supervisor woke up afterwards and re-forked anyway.
    """
    if delay <= 0:
        return bool(stop_event is not None and stop_event.is_set())
    if stop_event is None:
        time.sleep(delay)
        return False
    return stop_event.wait(delay)


def supervise(
    batches: Sequence[Sequence],
    spawn: Callable,
    chunk_done: Callable,
    config: ResilienceConfig,
    recorder=NULL_RECORDER,
    fault_plan=NULL_PLAN,
    phase: str = "scan",
    stop_event=None,
) -> dict:
    """Run *batches* of chunk work under supervision until complete.

    ``spawn(batch, directives)`` must return an **unstarted**
    ``multiprocessing.Process`` scanning *batch* (a sequence of chunk
    tuples) and executing the fault *directives* (``(kind,
    after_chunks, value)`` triples); ``chunk_done(chunk)`` must report
    whether a chunk's results already landed in shared memory.

    *stop_event*, when given, is a drain signal (``threading.Event``):
    once set, the in-flight attempt is allowed to finish (bounded by
    the watchdog as always) but **no further respawn happens** — the
    respawn backoff sleep wakes immediately instead of re-forking
    afterwards, every child is reaped, and supervision returns with
    ``"drained": True`` (incomplete chunks stay incomplete). Setting
    the event again — or from several threads at once — is a no-op:
    shutdown is idempotent under double-signal by construction, since
    every exit funnels through :func:`kill_workers`.

    Returns ``{"attempts": ..., "respawned": ..., "drained": ...}``.
    Raises :class:`WorkerCrashError` when retries are exhausted and
    :class:`PhaseTimeoutError` when the watchdog deadline expires.
    """
    deadline = time.monotonic() + config.phase_timeout
    pending = [list(batch) for batch in batches if batch]
    attempt = 0
    stats = {"attempts": 0, "respawned": 0, "drained": False}

    def drain_requested() -> bool:
        return stop_event is not None and stop_event.is_set()

    if drain_requested():
        stats["drained"] = True
        return stats
    while pending:
        stats["attempts"] = attempt + 1
        workers = []
        for index, batch in enumerate(pending):
            directives: tuple = ()
            if fault_plan.enabled:
                specs = fault_plan.directives(phase, index, attempt)
                for spec in specs:
                    record_injection(recorder, spec)
                directives = tuple(
                    (
                        spec.kind,
                        min(spec.after_chunks, len(batch)),
                        spec.exit_code
                        if spec.kind == "kill_worker"
                        else spec.delay_seconds,
                    )
                    for spec in specs
                )
            workers.append(spawn(batch, directives))
        fork_t0 = time.perf_counter()
        try:
            for proc in workers:
                proc.start()
            if recorder.enabled:
                recorder.count("worker.forked", len(workers))
            alive = {proc.sentinel: (index, proc)
                     for index, proc in enumerate(workers)}
            while alive:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                for sentinel in connection.wait(
                    list(alive), timeout=remaining
                ):
                    index, proc = alive.pop(sentinel)
                    proc.join()
                    if recorder.enabled:
                        recorder.add_span(
                            f"worker {index}", "worker",
                            fork_t0, time.perf_counter(),
                        )
            if alive:
                hung = tuple(sorted(index for index, _ in alive.values()))
                if recorder.enabled:
                    recorder.count("watchdog.timeout")
                raise PhaseTimeoutError(
                    f"{phase} watchdog expired after "
                    f"{config.phase_timeout:.1f}s with {len(alive)} "
                    f"worker(s) still running (workers {list(hung)}); "
                    "killed them",
                    phase=phase,
                    timeout=config.phase_timeout,
                    ranks=hung,
                )
        finally:
            kill_workers(workers)
        if recorder.enabled:
            recorder.count("worker.joined", len(workers))
        failures = [
            (index, proc.exitcode)
            for index, proc in enumerate(workers)
            if proc.exitcode != 0
        ]
        if not failures:
            if attempt > 0 and recorder.enabled:
                recorder.count("retry.succeeded")
            return stats
        if recorder.enabled:
            recorder.count("worker.crashed", len(failures))
        redo = []
        for index, _ in failures:
            rest = [c for c in pending[index] if not chunk_done(c)]
            if rest:
                redo.append(rest)
        if not redo:
            # the crash happened after every chunk of the batch landed
            # (e.g. an injected kill at end-of-batch): results are whole.
            if recorder.enabled:
                recorder.count("retry.succeeded")
            return stats
        if drain_requested():
            # drain beats respawn: the failed batch's chunks stay
            # incomplete, nothing is re-forked, children are already
            # reaped by the finally above.
            if recorder.enabled:
                recorder.count("supervisor.drained")
            stats["drained"] = True
            return stats
        if attempt >= config.max_retries:
            if recorder.enabled:
                recorder.count("retry.exhausted")
            codes = [code for _, code in failures]
            raise WorkerCrashError(
                f"{len(failures)} of {len(workers)} scan workers failed "
                f"(exit codes {codes}) after {attempt + 1} attempt(s)",
                ranks=tuple(index for index, _ in failures),
                phase=phase,
                exit_codes=tuple(codes),
                attempts=attempt + 1,
            )
        attempt += 1
        if recorder.enabled:
            recorder.count("retry.attempt")
            recorder.count("worker.respawned", len(redo))
        stats["respawned"] += len(redo)
        delay = config.backoff(attempt)
        if interruptible_backoff(
            min(delay, max(0.0, deadline - time.monotonic())), stop_event
        ):
            # the double-signal window: drain arrived while the backoff
            # sleep was in flight. Waking here (instead of sleeping the
            # full delay and re-forking anyway) is what guarantees a
            # graceful drain can never strand a respawning worker.
            if recorder.enabled:
                recorder.count("supervisor.drained")
            stats["drained"] = True
            return stats
        pending = redo
    return stats
