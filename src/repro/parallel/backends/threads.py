"""Thread backend: real ``threading`` concurrency with striped locks.

This is the structurally-faithful port of the paper's OpenMP execution:
chunk scans run on a thread pool (they touch disjoint rows and disjoint
label ranges, so the scan phase needs no synchronisation at all), and
interpreter-engine boundary merges run concurrently through the
lock-based MERGER of Algorithm 8
(:class:`repro.unionfind.parallel.LockStripedMerger`).

CPython's GIL serialises interpreter bytecode, so the ``interpreter``
engine demonstrates *correctness under real interleaving*, not speedup.
The ``vectorized`` engine scales: its chunk scan is one call into the
native kernel (:mod:`repro.ccl._native`), which releases the GIL, so the
chunks run on real cores, each worker writing only its chunk's disjoint
slice of the shared label array (without the native library the NumPy
kernel runs, and releases the GIL only inside whole-array operations).
Its boundary phase runs as a single coordinator batch (edge-list
extraction + REMSP), since seam work is negligible (Figure 5a vs 5b).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import MutableSequence, Sequence

import numpy as np

from ...ccl.labeling import remsp_alloc
from ...ccl.scan_aremsp import scan_tworow
from ...errors import WorkerCrashError
from ...faults import (
    DEFAULT_RESILIENCE,
    get_fault_plan,
    record_injection,
)
from ...obs import NULL_RECORDER
from ...types import LABEL_DTYPE
from ...unionfind.parallel import LockStripedMerger
from ...unionfind.remsp import merge as remsp_merge
from ..boundary import (
    boundary_edges,
    boundary_rows,
    merge_boundary_row,
    merge_edges,
)
from ..partition import RowChunk
from ._common import chunk_kernel, gather_equivalences

__all__ = ["ThreadBackend"]


class ThreadBackend:
    """Thread-pool execution of the PAREMSP phases.

    *resilience* bounds the per-chunk retry loop the fault hooks feed
    (a simulated worker death at a chunk's start is retried in place
    with backoff); *fault_plan* overrides the ambient injection plan.
    The injection site sits at the start of each chunk scan, before any
    shared state is touched, so a retried chunk re-runs from scratch.
    """

    name = "threads"

    def __init__(self, resilience=None, fault_plan=None) -> None:
        self.resilience = (
            resilience if resilience is not None else DEFAULT_RESILIENCE
        )
        self._fault_plan = fault_plan

    def _plan(self):
        return (
            self._fault_plan
            if self._fault_plan is not None
            else get_fault_plan()
        )

    def _run_chunk(self, fn, i: int, plan, rec):
        """Run one chunk scan with fault sites + bounded in-place retry."""
        if not plan.enabled:
            return fn()
        config = self.resilience
        attempt = 0
        while True:
            try:
                spec = plan.take(
                    "delay_chunk", phase="scan", rank=i, attempt=attempt
                )
                if spec is not None:
                    record_injection(rec, spec)
                    time.sleep(spec.delay_seconds)
                spec = plan.take(
                    "kill_worker", phase="scan", rank=i, attempt=attempt
                )
                if spec is not None:
                    record_injection(rec, spec)
                    raise WorkerCrashError(
                        f"injected worker death scanning chunk {i}",
                        ranks=(i,),
                        phase="scan",
                        attempts=attempt + 1,
                    )
                result = fn()
                if attempt > 0 and rec.enabled:
                    rec.count("retry.succeeded")
                return result
            except WorkerCrashError:
                if rec.enabled:
                    rec.count("worker.crashed")
                if attempt >= config.max_retries:
                    if rec.enabled:
                        rec.count("retry.exhausted")
                    raise
                attempt += 1
                if rec.enabled:
                    rec.count("retry.attempt")
                time.sleep(config.backoff(attempt))

    def scan(
        self,
        img: np.ndarray,
        chunks: Sequence[RowChunk],
        connectivity: int,
        engine: str = "interpreter",
        recorder=None,
    ) -> tuple[list[list[int]] | np.ndarray, list[int], list[int] | np.ndarray, dict]:
        rec = recorder if recorder is not None else NULL_RECORDER
        plan = self._plan()
        rows, cols = img.shape
        if engine == "interpreter":
            img_rows = img.tolist()
            p: list[int] = [0] * (rows * cols + 2)

            def run(job: tuple[int, RowChunk]) -> tuple[list[list[int]], int]:
                i, chunk = job

                def scan_once():
                    alloc, watermark = remsp_alloc(
                        p, start=chunk.label_start
                    )
                    t0 = time.perf_counter()
                    out = scan_tworow(
                        img_rows[chunk.row_start : chunk.row_stop],
                        p,
                        # scan-phase merges stay inside one chunk's label
                        # range, so the sequential kernel is safe here
                        # (the paper's Algorithm 7 likewise uses plain
                        # merge in the scan).
                        remsp_merge,
                        alloc,
                        connectivity,
                    )
                    if rec.enabled:
                        rec.add_span(
                            f"thread {i}", "scan", t0, time.perf_counter()
                        )
                    return out, watermark()

                return self._run_chunk(scan_once, i, plan, rec)

            with ThreadPoolExecutor(max_workers=max(1, len(chunks))) as pool:
                results = list(pool.map(run, enumerate(chunks)))
            label_rows: list[list[int]] = []
            used: list[int] = []
            for out, watermark in results:
                label_rows.extend(out)
                used.append(watermark)
            return label_rows, used, p, {}
        kernel = chunk_kernel(engine)
        labels = np.zeros((rows, cols), dtype=LABEL_DTYPE)

        def run_vec(job: tuple[int, RowChunk]) -> tuple[int, np.ndarray]:
            i, chunk = job

            def scan_once():
                # disjoint row slices: each worker paints its own window
                # of the shared label plane, no copy and no race.
                t0 = time.perf_counter()
                _, watermark, p_slice = kernel(
                    img[chunk.row_start : chunk.row_stop],
                    chunk.label_start,
                    connectivity,
                    out=labels[chunk.row_start : chunk.row_stop],
                )
                if rec.enabled:
                    rec.add_span(
                        f"thread {i}", "scan", t0, time.perf_counter()
                    )
                return watermark, p_slice

            return self._run_chunk(scan_once, i, plan, rec)

        with ThreadPoolExecutor(max_workers=max(1, len(chunks))) as pool:
            results_vec = list(pool.map(run_vec, enumerate(chunks)))
        used = [watermark for watermark, _ in results_vec]
        p_arr = gather_equivalences(
            chunks, used, [p_slice for _, p_slice in results_vec]
        )
        return labels, used, p_arr, {}

    def boundary(
        self,
        label_source,
        chunks: Sequence[RowChunk],
        cols: int,
        p,
        connectivity: int,
        engine: str = "interpreter",
        recorder=None,
    ) -> dict:
        rec = recorder if recorder is not None else NULL_RECORDER
        plan = self._plan()
        seams = boundary_rows(chunks)
        if not seams:
            return {"boundary_unions": 0}
        if engine != "interpreter":
            if plan.enabled:
                # the vectorised merge is one lock-free coordinator
                # batch; a poisoned "acquisition" models the batch
                # failing outright.
                spec = plan.take("poison_lock", phase="merge")
                if spec is not None:
                    record_injection(rec, spec)
                    from ...errors import DeadlockError

                    raise DeadlockError(
                        "injected poisoned boundary merge",
                        phase="merge",
                    )
            edges = boundary_edges(label_source, seams, connectivity)
            ops = merge_edges(p, edges)
            if rec.enabled:
                rec.count("threads.boundary_edges", len(edges))
            return {"boundary_unions": ops}
        merger = LockStripedMerger(p, recorder=rec, fault_plan=plan)
        if rec.enabled:
            # stripe count contextualises the contention counters: the
            # contended rate only means something relative to how many
            # stripes the acquisitions were spread over.
            rec.gauge("merger.stripes", float(merger.n_stripes))
            rec.count("merger.seam_rows", len(seams))

        def union(pp: MutableSequence[int], x: int, y: int) -> int:
            return merger.merge(x, y)

        def run(job: tuple[int, int]) -> int:
            i, row = job
            t0 = time.perf_counter()
            ops = merge_boundary_row(
                label_source, row, cols, p, union, connectivity
            )
            if rec.enabled:
                rec.add_span(f"thread {i}", "merge", t0, time.perf_counter())
            return ops

        with ThreadPoolExecutor(max_workers=max(1, len(seams))) as pool:
            ops = sum(pool.map(run, enumerate(seams)))
        return {"boundary_unions": ops}
