"""Shared engine plumbing for the PAREMSP execution backends.

The *engine* decides which per-chunk first-scan kernel runs and which
data representation flows between the phases:

* ``interpreter`` — the paper-faithful two-row scan
  (:func:`repro.ccl.scan_aremsp.scan_tworow`) over Python row lists, with
  a shared ``list`` equivalence array;
* ``vectorized`` — the run-based kernel over ndarray row slices: the
  native chunk scan (:mod:`repro.ccl._native`) when its library loads,
  else the NumPy kernel (:func:`repro.ccl.run_based.scan_runs_chunk`).

The vectorised kernel obeys one contract:
``kernel(img_chunk, label_start, connectivity, out=None) ->
(label_chunk, used, p_slice)`` with provisional labels drawn from the
chunk's disjoint range ``[label_start, label_start + chunk_pixels)`` and
*global* parent values in ``p_slice`` — exactly the disjoint-range
invariant Algorithm 7 gives the interpreter scan, so the
boundary/flatten phases are engine-agnostic. When the backend passes
*out* (its slice of the full label plane), the kernel paints straight
into it and returns it as ``label_chunk``, skipping one full-chunk copy.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ...ccl import _native
from ...ccl.run_based import scan_runs_chunk
from ...errors import BackendError
from ...types import LABEL_DTYPE
from ..partition import RowChunk

__all__ = ["VECTOR_ENGINES", "chunk_kernel", "gather_equivalences"]

#: engines whose scan phase runs the NumPy per-chunk kernels.
VECTOR_ENGINES = ("vectorized",)


def chunk_kernel(engine: str) -> Callable:
    """The per-chunk vectorised scan kernel for *engine*: the native
    kernel when :func:`repro.ccl._native.load` provides it, else the
    NumPy one (same contract, byte-identical results)."""
    if engine not in VECTOR_ENGINES:
        raise BackendError(
            f"no vectorised chunk kernel for engine {engine!r}"
        )
    native, _ = _native.load()
    return native.scan_chunk if native is not None else scan_runs_chunk


def gather_equivalences(
    chunks: Sequence[RowChunk],
    used: Sequence[int],
    slices: Sequence[np.ndarray],
) -> np.ndarray:
    """Materialise the equivalence array from per-chunk slices.

    Sized to the highest watermark actually reached — not ``rows * cols``
    — so sparse label ranges cost memory proportional to allocated labels
    plus gaps below the last chunk, never the whole-image bound.
    """
    p = np.zeros(max(used, default=1), dtype=LABEL_DTYPE)
    for chunk, watermark, p_slice in zip(chunks, used, slices):
        p[chunk.label_start : watermark] = p_slice
    return p
