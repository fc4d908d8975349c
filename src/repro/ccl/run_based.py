"""RUN — the run-based two-scan algorithm of He, Chao, Suzuki (2008).

Reference [43], the "RUN" column of the paper's comparison. Instead of
labeling pixels, the first scan identifies maximal horizontal *runs* of
foreground pixels; each run either adopts the label of an 8-connected run
in the previous row (overlap of column intervals, widened by one on each
side for diagonal contact) or receives a new label, and additional
overlapping runs trigger equivalence resolution in the rtable/next/tail
structure. The second scan paints whole runs — the per-pixel work
collapses to run bookkeeping, which is why this algorithm vectorises so
well.

Two engines:

* :func:`run_based` — interpreter engine, faithful row/run loops;
* :func:`run_based_vectorized` — NumPy engine: run extraction via
  ``diff`` over the padded image (under 8-connectivity, of each row
  pair's column-wise OR: AREMSP's two-row scan done on runs, see
  :func:`_pair_run_scan`), unions via hook-and-compress on run ids,
  painting via an interval prefix-sum. This is the library's throughput
  engine for large images (used by ``repro.label(...,
  engine="vectorized")``), and its 8-connectivity core is PAREMSP's
  ``vectorized`` chunk kernel (:func:`scan_runs_chunk`).
"""

from __future__ import annotations

import time

import numpy as np

from ..types import LABEL_DTYPE, as_binary_image
from ..unionfind.flatten import flatten
from .arun_ds import RunEquivalence
from .labeling import CCLResult

__all__ = [
    "run_based",
    "run_based_vectorized",
    "row_runs",
    "extract_runs",
    "scan_runs_chunk",
]


def row_runs(row: np.ndarray) -> list[tuple[int, int]]:
    """Maximal foreground runs of a 1-D binary row as ``(start, stop)``
    half-open column intervals (vectorised)."""
    padded = np.empty(len(row) + 2, dtype=np.int8)
    padded[0] = padded[-1] = 0
    padded[1:-1] = row
    d = np.diff(padded)
    starts = np.flatnonzero(d == 1)
    stops = np.flatnonzero(d == -1)
    return list(zip(starts.tolist(), stops.tolist()))


def extract_runs(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All maximal runs of a 2-D binary image in raster order.

    Returns ``(row, start, stop)`` arrays with half-open image-space
    column intervals. One ``diff`` over the zero-padded, flattened image
    finds every run: padding guarantees runs never cross row boundaries.
    """
    rows, cols = img.shape
    W = cols + 2
    padded = np.zeros((rows, W), dtype=np.int8)
    padded[:, 1:-1] = img
    d = np.diff(padded.ravel())
    starts_flat = np.flatnonzero(d == 1)
    stops_flat = np.flatnonzero(d == -1)
    run_row = starts_flat // W
    # d[k] == 1 at k = r*W + (padded col of first fg) - 1, and image col =
    # padded col - 1, so the image-space start is starts_flat % W; the
    # half-open stop works out to stops_flat % W the same way.
    run_s = starts_flat - run_row * W
    run_e = stops_flat - run_row * W
    return run_row, run_s, run_e


def _overlap_pairs(
    run_row: np.ndarray,
    run_s: np.ndarray,
    run_e: np.ndarray,
    rows: int,
    reach: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``(ii, jj)`` of every (current, previous-row) run overlap.

    Composite keys ``row * W + col`` are globally ascending (cols stay
    below ``W = max(col) + 2``), so two whole-array ``searchsorted`` calls
    locate each run's overlap slice, clamped to the previous row's range:
    prev ``j`` overlaps cur ``i`` iff ``prev_e[j] > cur_s[i] - reach`` and
    ``prev_s[j] < cur_e[i] + reach``. Returns 0-based run indices.
    """
    empty = np.empty(0, dtype=np.int64)
    if len(run_s) == 0:
        return empty, empty
    W = int(run_e.max()) + 2
    s_keys = run_row * W + run_s
    e_keys = run_row * W + run_e
    cur_idx = np.flatnonzero(run_row > 0)
    if not len(cur_idx):
        return empty, empty
    prev_base = (run_row[cur_idx] - 1) * W
    first = np.searchsorted(
        e_keys, prev_base + run_s[cur_idx] - reach, side="right"
    )
    last = np.searchsorted(
        s_keys, prev_base + run_e[cur_idx] + reach, side="left"
    )
    row_begin = np.searchsorted(run_row, np.arange(rows), side="left")
    row_end = np.searchsorted(run_row, np.arange(rows), side="right")
    prev_rows = run_row[cur_idx] - 1
    first = np.maximum(first, row_begin[prev_rows])
    last = np.minimum(last, row_end[prev_rows])
    counts = np.maximum(0, last - first)
    total = int(counts.sum())
    if not total:
        return empty, empty
    cum = np.cumsum(counts)
    ii = np.repeat(cur_idx, counts)  # current-run index
    jj = np.arange(total) - np.repeat(cum - counts, counts)
    jj += np.repeat(first, counts)  # previous-run index
    return ii, jj


def _union_min_runs(
    n_runs: int, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    """Resolve run-overlap edges to per-run component minima, in NumPy.

    Classic hook-and-compress: every edge hooks the larger of the two
    endpoint roots onto the smaller (``minimum.at`` resolves colliding
    hooks to the smallest candidate), then pointer jumping fully
    compresses the forest; repeat until no edge spans two roots. Each
    round carries forward only the edges that still spanned two roots,
    rewritten onto those roots, so later rounds touch ever fewer edges.
    Converges in O(log n) rounds and replaces the per-edge interpreter
    union loop. Returns the fully-compressed 0-based parent array:
    ``parent[i]`` is the smallest run index of ``i``'s component —
    exactly the root REMSP would settle on, since Rem's invariant keeps
    each set's minimum as its root regardless of merge order.
    """
    parent = np.arange(n_runs, dtype=np.int64)
    # every run is its own root before the first hook; edges share the
    # parent dtype, or minimum.at leaves its fast path (~15x slower)
    pu = ii.astype(np.int64, copy=False)
    pv = jj.astype(np.int64, copy=False)
    while True:
        live = pu != pv
        if not live.any():
            return parent
        pu, pv = pu[live], pv[live]
        ii, jj = np.maximum(pu, pv), np.minimum(pu, pv)
        np.minimum.at(parent, ii, jj)
        while True:
            hop = parent[parent]
            if np.array_equal(hop, parent):
                break
            parent = hop
        pu, pv = parent[ii], parent[jj]


def _fill_runs(
    run_row: np.ndarray,
    run_s: np.ndarray,
    run_e: np.ndarray,
    values: np.ndarray,
    rows: int,
    cols: int,
) -> np.ndarray:
    """Per-run *values* filled over a ``(rows, cols + 1)`` plane whose
    last column is padding (background stays 0).

    Interval painting by prefix sum: scatter ``+value`` at each run start
    and ``-value`` one past each run end in the padded flat image, then
    one ``cumsum`` reconstructs the fill. Runs are disjoint with at least
    the padding column between rows, so the running sum is always either
    0 or the enclosing run's value — two O(runs) scatters plus one
    O(pixels) scan, with no materialised per-pixel index arrays.
    """
    W = cols + 1  # one padding column separates consecutive rows
    delta = np.zeros(rows * W + 1, dtype=LABEL_DTYPE)
    if len(run_s):
        base = run_row * W
        delta[base + run_s] = values
        delta[base + run_e] = -values
    # cumsum into a preallocated buffer: NumPy's out-less int32 cumsum
    # takes a ~3x slower path, and this scan is the paint's entire
    # per-pixel cost.
    flat = np.empty(rows * W, dtype=LABEL_DTYPE)
    np.cumsum(delta[:-1], out=flat)
    return flat.reshape(rows, W)


def _paint_runs(
    run_row: np.ndarray,
    run_s: np.ndarray,
    run_e: np.ndarray,
    values: np.ndarray,
    rows: int,
    cols: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Expand per-run *values* to a ``(rows, cols)`` pixel image
    (background stays 0) with :func:`_fill_runs`.

    With *out* (shape ``(rows, cols)``) the fill is written there in a
    single pass — backends paint chunks directly into their full label
    plane (or shared-memory segment) instead of copying twice.
    """
    view = _fill_runs(run_row, run_s, run_e, values, rows, cols)[:, :cols]
    if out is None:
        return np.ascontiguousarray(view)
    out[:] = view
    return out


def _paint_pairs(
    pair_runs: tuple[np.ndarray, np.ndarray, np.ndarray],
    values: np.ndarray,
    img: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Paint per-pair-run *values* over both rows of each row pair of
    *img*, masked by its pixels, into *out*."""
    rows, cols = img.shape
    half = rows // 2
    plane = _fill_runs(*pair_runs, values, rows - half, cols)[:, :cols]
    np.multiply(plane, img[0::2], out=out[0::2])
    np.multiply(plane[:half], img[1::2], out=out[1::2])
    return out


def _pair_run_scan(
    img: np.ndarray, first_id: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray],
           np.ndarray, np.ndarray]:
    """AREMSP's two-row scan as runs: the 8-connectivity first scan.

    Under 8-connectivity every maximal run of a row pair's column-wise
    OR (``img[2k] | img[2k + 1]``; an odd tail row pairs with nothing)
    is one connected piece: neighbouring columns of the run each hold a
    pixel in one of the two rows, and those pixels touch. Each such
    *pair run* gets one provisional id, ``first_id + j`` for the j-th
    pair run in (pair, start column) order — the order in which AREMSP's
    pair traversal first touches it — and the id is painted over both
    rows of the pair, masked by the pixels.

    Pair runs then meet only across pair seams (rows ``2k + 1`` and
    ``2k + 2``), where two row runs touch iff their column intervals,
    widened by one, overlap. Then the run that starts later (either, on
    a tie) finds the other at its own start column or the column before
    it, on the row across the seam. So every seam-row run start reads
    those two pixels of the id plane, and each nonzero id read is a
    union edge for :func:`_union_min_runs`.

    Returns ``(labels, pair_runs, parent, starts)``: the masked id plane
    (written into *out* when given), the pair runs as ``(pair, start,
    stop)`` arrays, the compressed 0-based parent array over pair runs,
    and the flat raster indices of every row run's first pixel.
    """
    rows, cols = img.shape
    half = rows // 2
    pairs = img[0::2].copy()
    pairs[:half] |= img[1::2]
    pair_runs = extract_runs(pairs)
    n = len(pair_runs[0])
    labels = _paint_pairs(
        pair_runs,
        np.arange(first_id, first_id + n, dtype=LABEL_DTYPE),
        img,
        out if out is not None else np.empty((rows, cols), LABEL_DTYPE),
    )
    flat = labels.reshape(-1)
    # first pixel of every row run, as a flat raster index
    is_start = np.empty((rows, cols), dtype=bool)
    is_start[:, :1] = img[:, :1]
    np.greater(img[:, 1:], img[:, :-1], out=is_start[:, 1:])
    starts = np.flatnonzero(is_start)
    # seam rows are 1 .. 2 * n_seams; row 0 and an even image's last
    # row face no other pair
    n_seams = (rows - 1) // 2
    lo, hi = np.searchsorted(starts, (cols, (2 * n_seams + 1) * cols))
    seam_starts = starts[lo:hi]
    row = seam_starts // cols
    across = seam_starts + np.where(row & 1, cols, -cols)
    u = flat[seam_starts]
    same = flat[across]
    before = flat[across - 1]
    before[seam_starts == row * cols] = 0  # column 0 has no column before
    keep_same = same != 0
    keep_before = (before != 0) & (before != same)
    parent = _union_min_runs(
        n,
        np.concatenate((u[keep_same], u[keep_before])) - first_id,
        np.concatenate((same[keep_same], before[keep_before])) - first_id,
    )
    return labels, pair_runs, parent, starts


def scan_runs_chunk(
    img_chunk: np.ndarray,
    label_start: int,
    connectivity: int = 8,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int, np.ndarray]:
    """Vectorised chunk scan for PAREMSP's ``vectorized`` engine.

    Labels one row chunk with a run-based first scan, allocating
    provisional labels from the chunk's disjoint range starting at
    *label_start* (Algorithm 7 line 7). Operates directly on the ndarray
    view — no ``tolist()`` marshalling.

    Returns ``(label_chunk, used, p_slice)``: the per-pixel provisional
    labels (``LABEL_DTYPE``, background 0), the watermark one past the
    last allocated label, and the equivalence slice covering
    ``[label_start, used)`` with *global* parent values. With *out*, the
    label chunk is painted into that array (a backend's label-plane
    slice) and returned instead of a fresh allocation.

    Under 8-connectivity the ids are pair runs (:func:`_pair_run_scan`):
    at most ``ceil(rows/2) * ceil(cols/2)`` of them, handed out in the
    order AREMSP's two-row scan first touches each one. Under
    4-connectivity every row run gets an id (at most ``ceil(cols/2)``
    per row), ranked into the same traversal order — rows in pairs,
    column-major within a pair, an odd tail row last. Either way the
    range never reaches the next chunk's ``label_start``. Chunks are
    pair-aligned and label ranges ascend with row ranges, so a
    component's smallest global id is its global first-visit, Rem's
    structure keeps that minimum as the root, and FLATTEN's ascending
    root numbering therefore reproduces sequential AREMSP's final
    numbering with no renumbering pass.
    """
    if connectivity == 8:
        label_chunk, _, parent, _ = _pair_run_scan(
            img_chunk, label_start, out
        )
        n_ids = len(parent)
    else:
        rows, cols = img_chunk.shape
        run_row, run_s, run_e = extract_runs(img_chunk)
        n_ids = len(run_s)
        ii, jj = _overlap_pairs(run_row, run_s, run_e, rows, 0)
        # pair-traversal key of each run's first pixel: pair t spans
        # [t*2*cols, (t+1)*2*cols) with (r, c) at 2c + (r & 1); an odd
        # tail row continues with one key per column. Keys are unique
        # (distinct starts within a row, distinct parity across a
        # pair's rows).
        even = (rows // 2) * 2
        key = (run_row >> 1) * (2 * cols) + np.where(
            run_row < even, 2 * run_s + (run_row & 1), run_s
        )
        order = np.argsort(key)
        pair_id = np.empty(n_ids, dtype=np.int64)
        pair_id[order] = np.arange(n_ids)
        parent = _union_min_runs(n_ids, pair_id[ii], pair_id[jj])
        label_chunk = _paint_runs(
            run_row,
            run_s,
            run_e,
            (pair_id + label_start).astype(LABEL_DTYPE),
            rows,
            cols,
            out=out,
        )
    # shift local parents (0-based traversal-order indices) into global
    # range
    p_slice = (parent + label_start).astype(LABEL_DTYPE)
    return label_chunk, label_start + n_ids, p_slice


def run_based(image: np.ndarray, connectivity: int = 8) -> CCLResult:
    """Label *image* with the run-based two-scan algorithm (interpreter
    engine)."""
    img = as_binary_image(image)
    rows, cols = img.shape
    # a run consumes >= 1 foreground pixel + a gap => <= ceil(cols/2)/row;
    # +2 keeps degenerate (empty) images above the structure's minimum.
    capacity = rows * ((cols + 1) // 2) + 2
    eq = RunEquivalence(capacity)
    reach = 1 if connectivity == 8 else 0

    t0 = time.perf_counter()
    prev: list[tuple[int, int, int]] = []  # (start, stop, label)
    all_runs: list[list[tuple[int, int, int]]] = []
    for r in range(rows):
        cur: list[tuple[int, int, int]] = []
        j = 0  # cursor into prev (both run lists are sorted by column)
        for s, e in row_runs(img[r]):
            lo, hi = s - reach, e + reach
            label = 0
            while j < len(prev) and prev[j][1] <= lo:
                j += 1
            k = j
            while k < len(prev) and prev[k][0] < hi:
                if label == 0:
                    label = eq.rtable[prev[k][2]]
                else:
                    label = eq.resolve(label, prev[k][2])
                k += 1
            if label == 0:
                label = eq.alloc()
            cur.append((s, e, label))
        all_runs.append(cur)
        prev = cur
    t1 = time.perf_counter()
    count = eq.count
    n_components = flatten(eq.rtable, count)
    t2 = time.perf_counter()
    labels = np.zeros((rows, cols), dtype=LABEL_DTYPE)
    rt = eq.rtable
    for r, cur in enumerate(all_runs):
        lr = labels[r]
        for s, e, l in cur:
            lr[s:e] = rt[l]
    t3 = time.perf_counter()
    return CCLResult(
        labels=labels,
        n_components=n_components,
        provisional_count=count - 1,
        phase_seconds={"scan": t1 - t0, "flatten": t2 - t1, "label": t3 - t2},
        algorithm="run",
    )


def run_based_vectorized(image: np.ndarray, connectivity: int = 8) -> CCLResult:
    """Label *image* with the NumPy run-based engine.

    Vectorisation strategy (per the optimisation guide: replace per-pixel
    loops with array passes, keep access stride-1):

    1. runs are extracted with one ``diff`` (:func:`extract_runs`) —
       under 8-connectivity the runs of each row pair's column-wise OR
       (:func:`_pair_run_scan`), under 4-connectivity plain row runs;
    2. the edges between runs are materialised with array arithmetic
       instead of nested Python loops (two id-plane reads per seam-row
       run start for pair runs; two ``searchsorted`` calls for row
       runs);
    3. unions happen on *run ids* with a hook-and-compress pass
       (:func:`_union_min_runs`) — union traffic is proportional to
       runs, not pixels, and no interpreter loop remains;
    4. painting is an interval prefix-sum over the flat image.

    Components are numbered in raster order of their first pixel, the
    order :func:`run_based` hands out labels in.

    >>> run_based_vectorized([[0, 0, 1], [1, 0, 0]]).labels.tolist()
    [[0, 0, 1], [2, 0, 0]]
    """
    img = as_binary_image(image)
    rows, cols = img.shape

    t0 = time.perf_counter()
    if connectivity == 8:
        labels, pair_runs, parent, starts = _pair_run_scan(img, 1)
        n_runs = len(parent)
        t1 = time.perf_counter()
        # Rank components by their first pixel in raster order. A pair
        # run's first pixel is its first top-row run start, or (2k + 1,
        # s) when its top row is empty; a pair run's top-row starts are
        # consecutive among the even-row starts.
        p_row, p_s, _ = pair_runs
        first = (2 * p_row + 1) * cols + p_s
        top = starts[(starts // cols) % 2 == 0]
        top_pid = labels.reshape(-1)[top] - 1
        lead = np.empty(len(top), dtype=bool)
        lead[:1] = True
        np.not_equal(top_pid[1:], top_pid[:-1], out=lead[1:])
        first[top_pid[lead]] = top[lead]
        comp_first = np.full(n_runs, img.size, dtype=np.int64)
        np.minimum.at(comp_first, parent, first)
        roots = np.flatnonzero(parent == np.arange(n_runs))
        rank = np.empty(n_runs, dtype=LABEL_DTYPE)
        rank[roots[np.argsort(comp_first[roots])]] = np.arange(
            1, len(roots) + 1, dtype=LABEL_DTYPE
        )
        final = rank[parent]
        t2 = time.perf_counter()
        _paint_pairs(pair_runs, final, img, labels)
    else:
        run_row, run_s, run_e = extract_runs(img)
        n_runs = len(run_s)
        ii, jj = _overlap_pairs(run_row, run_s, run_e, rows, 0)
        parent = _union_min_runs(n_runs, ii, jj)
        t1 = time.perf_counter()
        # FLATTEN over the compressed forest: roots (self-parented runs)
        # take consecutive finals in ascending index order — the same
        # numbering interpreter FLATTEN produces, since REMSP roots are
        # component minima.
        roots = np.flatnonzero(parent == np.arange(n_runs))
        final = (np.searchsorted(roots, parent) + 1).astype(LABEL_DTYPE)
        t2 = time.perf_counter()
        labels = _paint_runs(run_row, run_s, run_e, final, rows, cols)
    t3 = time.perf_counter()
    return CCLResult(
        labels=labels,
        n_components=len(roots),
        provisional_count=n_runs,
        phase_seconds={"scan": t1 - t0, "flatten": t2 - t1, "label": t3 - t2},
        algorithm="run-vectorized",
    )
