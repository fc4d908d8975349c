"""Shared two-pass driver machinery: result type, phases, alloc factories.

Every sequential algorithm in this package is the same three-phase
pipeline (Algorithm 1 / Algorithm 5 of the paper):

1. **Scan** — provisional labels + equivalence recording;
2. **Analysis** — FLATTEN resolves equivalences into consecutive finals;
3. **Labeling** — every pixel is rewritten through the flattened table.

:func:`run_two_pass` wires a scan function and an equivalence structure
into that pipeline, timing each phase (the per-phase timings feed
Table II/IV reports and the Figure 5a "local" vs 5b "local + merge"
distinction).

Phase 3 is a pure gather; we hoist it to NumPy (``table[labels]``) for
every algorithm equally, so relative comparisons between algorithms —
what the paper's tables measure — are unaffected.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, MutableSequence, Sequence

import numpy as np

from ..obs import PhaseTimer, get_recorder
from ..types import LABEL_DTYPE, as_binary_image
from ..unionfind.flatten import flatten

__all__ = [
    "CCLResult",
    "remsp_alloc",
    "prealloc_capacity",
    "check_label_capacity",
    "run_two_pass",
    "apply_table",
]


def check_label_capacity(
    shape: tuple[int, int], dtype=LABEL_DTYPE
) -> None:
    """Raise :class:`~repro.errors.LabelOverflowError` if a scan over an
    image of *shape* could exhaust *dtype*'s label space.

    The scans allocate at most one provisional label per pixel pair plus
    the background sentinel; parallel runs additionally offset each
    chunk's range by ``row_start * cols``, so the last usable value is
    ``rows * cols``. That bound must be representable.
    """
    from ..errors import LabelOverflowError

    rows, cols = shape
    need = rows * cols + 1
    limit = int(np.iinfo(dtype).max)
    if need > limit:
        raise LabelOverflowError(
            f"an image of shape {shape} needs up to {need} labels, but "
            f"dtype {np.dtype(dtype).name} can represent only {limit}"
        )


@dataclasses.dataclass
class CCLResult:
    """Outcome of one labeling run.

    Attributes
    ----------
    labels:
        ``int32`` label image; background 0, components
        ``1..n_components`` in first-appearance order of the
        algorithm's traversal: raster order for the raster-scan,
        run-based and propagation algorithms, AREMSP's pair traversal
        (row pairs top to bottom, column-major within a pair) for
        ``aremsp``, ``arun``, ``block2x2`` and PAREMSP.
    n_components:
        Number of connected components found.
    provisional_count:
        Provisional labels allocated by the scan phase (a proxy for the
        equivalence structure's size; the paper's ``count``).
    phase_seconds:
        Wall-clock seconds per phase, keys ``scan`` / ``flatten`` /
        ``label`` (parallel runs add ``merge`` and bookkeeping keys).
    algorithm:
        Registry name of the algorithm that produced this result.
    meta:
        Algorithm-specific extras (e.g. pass counts for MULTIPASS).
    timings:
        ``None`` unless the run executed under an enabled
        :class:`repro.obs.TraceRecorder`, in which case it holds the
        run's :class:`repro.obs.ObsReport` (spans + metrics).
    """

    labels: np.ndarray
    n_components: int
    provisional_count: int
    phase_seconds: dict[str, float]
    algorithm: str
    meta: dict = dataclasses.field(default_factory=dict)
    timings: object | None = None

    @property
    def total_seconds(self) -> float:
        """Sum of all phase times (the paper's reported execution time)."""
        return float(sum(self.phase_seconds.values()))


def prealloc_capacity(rows: int, cols: int) -> int:
    """Size of the equivalence array that can never overflow.

    A new provisional label requires all previously-scanned mask
    neighbours to be background, so labeled "seeds" are pairwise at
    Chebyshev distance >= 2 (8-connectivity), bounding their number by
    ``ceil(rows/2) * ceil(cols/2)``; +1 for the background sentinel. The
    4-connectivity scans allocate at most one seed per two *columns* per
    row: ceil(cols/2) * rows. We size for the worst of both.
    """
    eight = ((rows + 1) // 2) * ((cols + 1) // 2)
    four = ((cols + 1) // 2) * rows
    # +1 for the background sentinel, +1 so degenerate (empty) images
    # still satisfy every structure's minimum-capacity requirement.
    return max(eight, four) + 2


def remsp_alloc(
    p: MutableSequence[int], start: int = 1
) -> tuple[Callable[[], int], Callable[[], int]]:
    """Label allocator for the union-find based algorithms.

    Returns ``(alloc, used)``: ``alloc()`` writes ``p[count] = count`` and
    returns the fresh label (the paper's "new label" operation); ``used()``
    reports the next-unallocated counter value.
    """
    cell = [start]

    def alloc() -> int:
        c = cell[0]
        p[c] = c
        cell[0] = c + 1
        return c

    def used() -> int:
        return cell[0]

    return alloc, used


def apply_table(
    label_rows: Sequence[Sequence[int]] | np.ndarray,
    table: Sequence[int],
    limit: int,
) -> np.ndarray:
    """Labeling phase: map provisional labels through the flattened table.

    ``limit`` is the number of valid table entries (``count``); only that
    prefix is materialised for the gather.
    """
    lut = np.asarray(table[:limit], dtype=LABEL_DTYPE)
    prov = np.asarray(label_rows, dtype=LABEL_DTYPE)
    if prov.size == 0:
        return prov
    return lut[prov]


def run_two_pass(
    image: np.ndarray,
    *,
    algorithm: str,
    scan: Callable,
    make_structure: Callable[[int], tuple],
    connectivity: int = 8,
) -> CCLResult:
    """Generic two-pass CCL driver.

    Parameters
    ----------
    image:
        Binary image (validated/coerced via
        :func:`repro.types.as_binary_image`).
    algorithm:
        Name stamped on the result.
    scan:
        ``scan(img_rows, p, merge, alloc, connectivity) -> label rows`` —
        one of the two scan-phase implementations.
    make_structure:
        ``make_structure(capacity) -> (p, merge, alloc, used, finalize)``
        building the equivalence structure. ``finalize(p, count)`` runs
        the analysis phase and returns the component count (defaults to
        FLATTEN for all structures in this package).
    connectivity:
        8 (paper) or 4.

    Notes
    -----
    Input conversion (NumPy -> row lists) is *excluded* from phase
    timings: the paper's C implementation scans the native image buffer
    directly, and including CPython marshalling would distort every
    inter-algorithm ratio by a constant additive term.
    """
    img = as_binary_image(image)
    rows, cols = img.shape
    check_label_capacity((rows, cols))
    img_rows = img.tolist()

    p, merge, alloc, used, finalize = make_structure(
        prealloc_capacity(rows, cols)
    )

    rec = get_recorder()
    mark = rec.mark()
    timer = PhaseTimer(rec)
    with timer.time("scan"):
        label_rows = scan(img_rows, p, merge, alloc, connectivity)
    with timer.time("flatten"):
        count = used()
        n_components = finalize(p, count)
    with timer.time("label"):
        labels = apply_table(label_rows, p, count).reshape(rows, cols)

    return CCLResult(
        labels=labels,
        n_components=n_components,
        provisional_count=count - 1,
        phase_seconds=timer.seconds,
        algorithm=algorithm,
        timings=rec.report(since=mark) if rec.enabled else None,
    )


def default_finalize(p: MutableSequence[int], count: int) -> int:
    """FLATTEN-based analysis phase shared by all structures here."""
    return flatten(p, count)
