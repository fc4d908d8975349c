"""PAREMSP — Algorithm 7 of the paper.

The orchestrator: partition -> per-chunk first scan -> boundary merge
(parallel Rem's) -> sparse FLATTEN -> final labeling. Backends plug into
the scan and boundary phases; partitioning, flatten and the labeling
gather are backend-independent.

Two scan *engines* ride the same pipeline:

* ``interpreter`` (default) — the paper-faithful Python transcription of
  the two-row AREMSP scan, kept as the fidelity baseline;
* ``vectorized`` — the run-based per-chunk kernel (under
  8-connectivity one id per run of a row pair's column-wise OR) with an
  edge-list boundary phase and array FLATTEN; same phases, array
  representations end to end. When the native library
  (:mod:`repro.ccl._native`) loads, the 8-connectivity chunk scan, the
  FLATTEN and a per-chunk relabel run in C and release the GIL, so the
  ``threads`` backend scans and relabels on real cores; otherwise the
  NumPy kernels (:func:`repro.ccl.run_based.scan_runs_chunk`,
  :func:`~repro.unionfind.flatten.flatten_ranges_array`,
  :func:`~repro.ccl.labeling.apply_table`) run, with identical
  results. ``meta["native"]`` says which: ``True``, or the reason the
  library did not load.

Determinism contract (asserted by tests): provisional labels depend on
the engine and the backend's interleaving, but the *final* labeling is
identical across all engines, backends and thread counts, and identical
to sequential AREMSP. Both scans allocate provisional ids in AREMSP's
traversal order (row pairs top to bottom, column-major within a pair),
so FLATTEN's ascending root numbering is already the sequential
numbering: components are numbered in the order that traversal first
reaches them, which is not raster order.
"""

from __future__ import annotations

import dataclasses
import logging
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..ccl import _native
from ..ccl.labeling import CCLResult, apply_table, check_label_capacity
from ..errors import BackendError
from ..faults import degradation_reason
from ..obs import PhaseTimer, get_recorder
from ..types import LABEL_DTYPE, ensure_input
from ..unionfind.flatten import flatten_ranges, flatten_ranges_array
from .backends import get_backend
from .backends._common import VECTOR_ENGINES
from .partition import partition_rows

__all__ = ["ParallelResult", "ENGINES", "paremsp"]

_LOG = logging.getLogger(__name__)

#: scan engines accepted by :func:`paremsp`.
ENGINES = ("interpreter",) + VECTOR_ENGINES


@dataclasses.dataclass
class ParallelResult(CCLResult):
    """A :class:`~repro.ccl.labeling.CCLResult` plus parallel-run facts.

    ``phase_seconds`` gains ``merge`` (the boundary pass); for the
    simulated backend all phase values are *model* seconds and
    ``meta["simulated"]`` is set.
    """

    n_threads: int = 1
    backend: str = "serial"
    n_chunks: int = 1
    engine: str = "interpreter"


def paremsp(
    image: np.ndarray,
    n_threads: int = 4,
    backend: str = "serial",
    connectivity: int = 8,
    cost_model=None,
    engine: str = "interpreter",
    recorder=None,
    resilience=None,
    degradation=None,
    fault_plan=None,
) -> ParallelResult:
    """Label *image* with PAREMSP.

    Parameters
    ----------
    image:
        Binary image.
    n_threads:
        Requested team size; the effective chunk count may be smaller for
        short images (see :func:`repro.parallel.partition.partition_rows`).
    backend:
        ``serial`` | ``threads`` | ``processes`` | ``simulated``.
    connectivity:
        8 (paper) or 4.
    cost_model:
        Only for ``backend="simulated"``: a
        :class:`repro.simmachine.costmodel.CostModel` (defaults to the
        Hopper preset).
    engine:
        ``interpreter`` (default, paper-faithful) | ``vectorized``.
        The simulated backend models interpreter operation counts and
        accepts only ``interpreter``.
    recorder:
        A :class:`repro.obs.TraceRecorder` to collect per-phase /
        per-thread spans and metrics into; defaults to the ambient
        recorder (:func:`repro.obs.get_recorder` — a no-op unless one
        was installed). When tracing is enabled the result's
        ``timings`` field carries the run's
        :class:`repro.obs.ObsReport`.
    resilience:
        A :class:`repro.faults.ResilienceConfig` bounding worker
        retries, backoff and the phase watchdog in the concurrent
        backends (defaults to
        :data:`repro.faults.DEFAULT_RESILIENCE`).
    degradation:
        A :class:`repro.faults.DegradationPolicy`. When given, a
        :class:`~repro.errors.BackendError` from one backend falls
        back down the policy's ladder (``processes`` → ``threads`` →
        ``serial``) and the result carries ``meta["degraded_from"]``
        plus ``degrade.*`` trace counters. ``None`` (the default)
        keeps historical behaviour: backend errors propagate.
    fault_plan:
        A :class:`repro.faults.FaultPlan` overriding the ambient plan
        (:func:`repro.faults.get_fault_plan`) for deterministic fault
        injection; chaos tests use this instead of the ambient hook.

    >>> import numpy as np
    >>> r = paremsp(np.ones((8, 8), dtype=np.uint8), n_threads=2)
    >>> int(r.n_components)
    1
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; available: {list(ENGINES)}"
        )
    rec = recorder if recorder is not None else get_recorder()
    if backend == "simulated":
        if engine != "interpreter":
            raise ValueError(
                "backend 'simulated' models the interpreter scan's "
                f"operation counts; engine {engine!r} is not simulable"
            )
        from ..simmachine.machine import simulate_paremsp

        sim = simulate_paremsp(
            image,
            n_threads=n_threads,
            cost_model=cost_model,
            connectivity=connectivity,
            fault_plan=fault_plan,
            resilience=resilience,
        )
        result = sim.as_parallel_result()
        if rec.enabled:
            # replay the model timeline into the recorder so simulated
            # and real runs flow through the same exporters.
            from ..obs import sim_trace_spans
            from ..simmachine.trace import sim_metrics

            mark = rec.mark()
            for span in sim_trace_spans(sim):
                rec.add_span(span.lane, span.phase, span.start, span.stop)
            model_metrics = sim_metrics(sim)
            for name, value in model_metrics["counters"].items():
                rec.count(name, int(value))
            for name, value in model_metrics["gauges"].items():
                rec.gauge(name, value)
            result.timings = rec.report(since=mark)
        return result

    img = ensure_input(image)
    rows, cols = img.shape
    check_label_capacity((rows, cols))

    ladder = (backend,)
    if degradation is not None:
        ladder = degradation.ladder_from(backend)
    last_exc: BackendError | None = None
    for step, active in enumerate(ladder):
        try:
            return _run_pipeline(
                img, n_threads, active, backend, connectivity, engine,
                rec, resilience, fault_plan,
                degraded_reason=(
                    degradation_reason(backend, last_exc) if step else None
                ),
            )
        except BackendError as exc:
            last_exc = exc
            if step + 1 >= len(ladder):
                raise
            if rec.enabled:
                rec.count("degrade.fallback")
                rec.count(f"degrade.to.{ladder[step + 1]}")
            _LOG.warning(
                "backend %r failed (%s); degrading to %r",
                active, exc, ladder[step + 1],
            )
    raise AssertionError("unreachable: ladder is never empty")


def _run_pipeline(
    img: np.ndarray,
    n_threads: int,
    backend: str,
    requested_backend: str,
    connectivity: int,
    engine: str,
    rec,
    resilience,
    fault_plan,
    degraded_reason: dict | None = None,
) -> ParallelResult:
    """One complete PAREMSP pass on one concrete backend.

    Split out of :func:`paremsp` so the degradation ladder can re-run
    the whole pipeline on a lower backend with a fresh timer and a
    fresh trace mark — a degraded run's spans must not mix with the
    failed attempt's.
    """
    rows, cols = img.shape
    chunks = partition_rows(rows, cols, n_threads)
    exec_backend = get_backend(
        backend, resilience=resilience, fault_plan=fault_plan
    )
    vectorised = engine in VECTOR_ENGINES
    meta: dict = {}
    native = None
    if vectorised:
        # resolved here, before the processes backend forks its workers,
        # so they inherit the loaded library instead of loading their own
        native, reason = _native.load()
        meta["native"] = True if native is not None else reason
    if backend != requested_backend:
        # a reasoned record, not a bare rung name: which backend the
        # run fell from, why (exception type + message), and the ranks
        # implicated (see repro.faults.degradation_reason).
        meta["degraded_from"] = (
            degraded_reason
            if degraded_reason is not None
            else degradation_reason(requested_backend)
        )

    mark = rec.mark()
    timer = PhaseTimer(rec)
    with timer.time("scan"):
        if chunks:
            label_source, used, p, scan_meta = exec_backend.scan(
                img, chunks, connectivity, engine, recorder=rec
            )
        else:
            label_source = (
                np.zeros((rows, cols), dtype=LABEL_DTYPE) if vectorised
                else []
            )
            used, scan_meta = [], {}
            p = np.zeros(1, dtype=LABEL_DTYPE) if vectorised else [0, 0]
    with timer.time("merge"):
        bound_meta = exec_backend.boundary(
            label_source, chunks, cols, p, connectivity, engine,
            recorder=rec,
        )
    with timer.time("flatten"):
        ranges = [(c.label_start, u) for c, u in zip(chunks, used)]
        if native is not None:
            n_components = native.flatten_ranges(p, ranges)
        elif isinstance(p, np.ndarray):
            n_components = flatten_ranges_array(p, ranges)
        else:
            n_components = flatten_ranges(p, ranges)
    with timer.time("label"):
        limit = max((u for u in used), default=1)
        if native is not None:
            labels = _relabel_chunks(native, label_source, p[:limit], chunks)
        elif len(label_source):
            labels = apply_table(label_source, p, limit).reshape(rows, cols)
        else:
            labels = np.zeros((rows, cols), dtype=LABEL_DTYPE)

    if rec.enabled:
        rec.count("paremsp.runs")
        rec.count(
            "unionfind.boundary_unions", bound_meta.get("boundary_unions", 0)
        )
        # run-shape gauges make an exported trace self-describing: the
        # analyzer reads the team size from the file instead of
        # guessing it from lane names.
        rec.gauge("paremsp.n_threads", float(n_threads))
        rec.gauge("paremsp.n_chunks", float(len(chunks)))
        rec.gauge("paremsp.pixels", float(img.size))
    meta.update(scan_meta)
    meta.update(bound_meta)
    meta["label_ranges"] = ranges
    meta["engine"] = engine
    return ParallelResult(
        labels=labels,
        n_components=n_components,
        provisional_count=sum(u - c.label_start for c, u in zip(chunks, used)),
        phase_seconds=timer.seconds,
        algorithm="paremsp",
        meta=meta,
        n_threads=n_threads,
        backend=backend,
        n_chunks=len(chunks),
        engine=engine,
        timings=rec.report(since=mark) if rec.enabled else None,
    )


def _relabel_chunks(native, plane: np.ndarray, lut: np.ndarray, chunks):
    """The labeling phase in C: ``lut[plane]``, one call per row chunk on
    a thread pool sized to the chunk count (the calls release the GIL).

    A plane that owns its memory is relabeled in place. One that is a
    view of a buffer it does not own (the ``processes`` backend's shared
    label segment) is relabeled into a fresh array, so the result never
    aliases a shared mapping.
    """
    out = plane if plane.flags.owndata else np.empty_like(plane)

    def relabel(chunk) -> None:
        rows = slice(chunk.row_start, chunk.row_stop)
        native.relabel(plane[rows], out[rows], lut)

    with ThreadPoolExecutor(max_workers=max(1, len(chunks))) as pool:
        list(pool.map(relabel, chunks))
    return out
