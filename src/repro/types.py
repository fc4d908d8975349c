"""Shared types, dtypes and validation helpers.

The whole library standardises on:

* binary images: 2-D :class:`numpy.ndarray` of ``uint8`` with values in
  ``{0, 1}`` (``1`` = object/foreground pixel, ``0`` = background), C-order;
* label images: 2-D :class:`numpy.ndarray` of :data:`LABEL_DTYPE`
  (``int32`` by default) where ``0`` is background and final labels are the
  consecutive integers ``1..K`` (FLATTEN semantics from the paper);
* equivalence arrays ``p``: 1-D arrays of :data:`LABEL_DTYPE` indexed by
  provisional label, ``p[0] == 0`` reserved for background.

Keeping one canonical memory layout matters for the vectorised engines: the
scan phases walk rows, so C-contiguity makes the inner loop stride-1 (see
the cache-effects discussion in the scientific-python optimisation guide).
"""

from __future__ import annotations

import enum
from typing import Any

import numpy as np

__all__ = [
    "LABEL_DTYPE",
    "PIXEL_DTYPE",
    "BACKGROUND",
    "FOREGROUND",
    "Connectivity",
    "as_binary_image",
    "ensure_input",
    "max_labels_for",
]

#: dtype used for provisional and final labels.
LABEL_DTYPE = np.int32

#: dtype used for binary images.
PIXEL_DTYPE = np.uint8

#: background pixel / label value.
BACKGROUND = 0

#: foreground (object) pixel value.
FOREGROUND = 1


class Connectivity(enum.IntEnum):
    """Pixel connectivity for 2-D images.

    The paper uses 8-connectivity exclusively; 4-connectivity is provided
    as the natural extension (the scan masks degenerate to their
    non-diagonal subsets).
    """

    FOUR = 4
    EIGHT = 8


def _is_binary(arr: np.ndarray) -> bool:
    """Whether every value of *arr* is 0 or 1, checked in its own dtype.

    Integer arrays take one or two whole-array reductions (``min`` only
    for signed dtypes), about 100x cheaper than ``np.isin``; the check
    must run before any cast to ``uint8``, which would wrap 256 to 0.
    Other dtypes keep the NaN-safe ``np.isin`` membership test.
    """
    if not arr.size:
        return True
    kind = arr.dtype.kind
    if kind in "ui":
        return bool(
            arr.max() <= FOREGROUND and (kind == "u" or arr.min() >= 0)
        )
    return bool(np.isin(arr, (BACKGROUND, FOREGROUND)).all())


def as_binary_image(image: Any, *, validate: bool = True) -> np.ndarray:
    """Coerce *image* to the canonical binary-image representation.

    Accepts anything :func:`numpy.asarray` accepts. Boolean arrays are
    reinterpreted as ``{0, 1}``; other dtypes are kept but (optionally)
    validated to contain only ``0`` and ``1``.

    Parameters
    ----------
    image:
        Array-like 2-D input.
    validate:
        When true (default), raise :class:`~repro.errors.ImageFormatError`
        on non-2-D input or on pixel values outside ``{0, 1}``. Disable for
        hot paths that already guarantee canonical input.

    Returns
    -------
    numpy.ndarray
        C-contiguous ``uint8`` array of the same shape, values in ``{0,1}``.
    """
    from .errors import ImageFormatError

    arr = np.asarray(image)
    if arr.dtype == np.bool_:
        arr = arr.astype(PIXEL_DTYPE)
    if validate:
        if arr.ndim != 2:
            raise ImageFormatError(
                f"binary image must be 2-D, got shape {arr.shape!r}"
            )
        if not _is_binary(arr):
            bad = np.unique(arr[~np.isin(arr, (BACKGROUND, FOREGROUND))])
            raise ImageFormatError(
                f"binary image may contain only 0 and 1, found {bad[:8]!r}"
            )
    if arr.dtype != PIXEL_DTYPE:
        arr = arr.astype(PIXEL_DTYPE)
    return np.ascontiguousarray(arr)


def ensure_input(image: Any, *, what: str = "image") -> np.ndarray:
    """Validate and canonicalise a public-API binary image.

    One gate shared by every labeling entry point (``label``,
    ``label_parallel``/``paremsp``, the streaming labeler,
    ``tiled_label``) so layout oddities meet one policy instead of
    backend-specific crashes:

    * **coerced** — ``bool`` and wider integer dtypes (``uint16``,
      ``int64``, ...), float arrays whose values are exactly ``{0, 1}``,
      Fortran-order and otherwise non-contiguous views, read-only
      buffers/memmaps (copied only when a dtype or layout change forces
      it; a canonical read-only array passes through untouched — the
      engines never write into their input);
    * **rejected** with :class:`~repro.errors.InputError` — non-2-D
      arrays, complex/object/string dtypes, and any value outside
      ``{0, 1}``.

    Returns a C-contiguous ``uint8`` array with values in ``{0, 1}``.

    >>> import numpy as np
    >>> f = np.asfortranarray(np.eye(3, dtype=np.uint16))
    >>> out = ensure_input(f)
    >>> out.dtype.name, out.flags.c_contiguous
    ('uint8', True)
    """
    from .errors import InputError

    try:
        arr = np.asarray(image)
    except Exception as exc:  # ragged lists, unconvertible objects
        raise InputError(f"{what} is not convertible to an array: {exc}") from exc
    if arr.ndim != 2:
        raise InputError(
            f"{what} must be 2-D, got shape {arr.shape!r}"
            + (" (see repro.volume for 3-D labeling)" if arr.ndim == 3 else "")
        )
    kind = arr.dtype.kind
    if kind == "b":
        arr = arr.astype(PIXEL_DTYPE)
    elif kind == "f":
        # accept float rasters that are exactly binary (e.g. thresholded
        # images saved as float); anything else needs explicit im2bw
        if arr.size and not np.isin(arr, (0.0, 1.0)).all():
            raise InputError(
                f"float {what} must contain only 0.0 and 1.0; threshold "
                "it first (repro.data.binarize.im2bw)"
            )
        arr = arr.astype(PIXEL_DTYPE)
    elif kind not in "ui":
        raise InputError(
            f"unsupported {what} dtype {arr.dtype!r}; expected a "
            "boolean, integer, or binary float array"
        )
    if not _is_binary(arr):
        bad = np.unique(arr[~np.isin(arr, (BACKGROUND, FOREGROUND))])
        raise InputError(
            f"{what} may contain only 0 and 1, found {bad[:8]!r}"
        )
    if arr.dtype != PIXEL_DTYPE:
        arr = arr.astype(PIXEL_DTYPE)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


def max_labels_for(shape: tuple[int, int]) -> int:
    """Upper bound on provisional labels a scan can allocate for *shape*.

    The CCLREMSP scan allocates at most one label per foreground pixel; the
    AREMSP scan at most one per pixel of each processed pixel pair. Both are
    bounded by the pixel count. ``+1`` accounts for label 0 being reserved
    for background.
    """
    rows, cols = shape
    return rows * cols + 1
