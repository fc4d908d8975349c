"""Loader for the native PAREMSP chunk kernel (``_native.c``).

PAREMSP's ``vectorized`` engine runs three small C functions when they
are available: the 8-connectivity two-row chunk scan (``pair_scan``,
twin of :func:`repro.ccl.run_based.scan_runs_chunk`), the sequential
FLATTEN over the chunk label ranges (``flatten_ranges``, twin of
:func:`repro.unionfind.flatten.flatten_ranges_array`) and the final
per-chunk relabel (``relabel``, twin of
:func:`repro.ccl.labeling.apply_table`). A ``ctypes`` foreign call
releases the GIL, so the ``threads`` backend scans and relabels its
chunks on real cores.

There is no build step. On first use :func:`load` compiles the source
with the system C compiler (``cc -O2 -shared -fPIC``) into
``${XDG_CACHE_HOME:-~/.cache}/repro/``, under a file name made of the
source's SHA-256 and the platform tag, so an edited source or another
platform gets its own library. The compiler writes to a temporary name
in that directory (its own scratch files go there too, never to
``TMPDIR``) and ``os.replace`` publishes the result, so processes that
race to build it leave one loadable library. The library is then
loaded once per process.

When there is no compiler, the cache directory is not writable, or the
build or load fails, :func:`load` returns ``None`` with the reason and
logs one warning; callers then run the NumPy kernels, which give
byte-identical results.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import pathlib
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from typing import Sequence

import numpy as np

from ..types import LABEL_DTYPE, PIXEL_DTYPE
from .run_based import scan_runs_chunk

__all__ = ["NativeKernel", "library_path", "load"]

_LOG = logging.getLogger(__name__)

_SOURCE = pathlib.Path(__file__).with_name("_native.c")
_CFLAGS = ("-std=c99", "-O2", "-shared", "-fPIC", "-pipe")
_BUILD_TIMEOUT_S = 120.0

_LOCK = threading.Lock()
#: ``(kernel, reason)`` once :func:`load` has run in this process.
_LOADED: tuple[NativeKernel | None, str | None] | None = None

_LABELS = np.ctypeslib.ndpointer(LABEL_DTYPE, flags="C_CONTIGUOUS")
_LABELS_OUT = np.ctypeslib.ndpointer(
    LABEL_DTYPE, flags=("C_CONTIGUOUS", "WRITEABLE")
)
_PIXELS = np.ctypeslib.ndpointer(PIXEL_DTYPE, flags="C_CONTIGUOUS")
_INDICES = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")


class NativeKernel:
    """Typed wrappers over the loaded library's three functions.

    Every wrapper checks shapes and bounds before it passes a pointer;
    ``ctypes`` checks dtype and contiguity through the declared
    ``argtypes``.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        i64 = ctypes.c_int64
        lib.pair_scan.argtypes = [
            _PIXELS, i64, i64, ctypes.c_int32, _LABELS_OUT, _LABELS_OUT
        ]
        lib.pair_scan.restype = i64
        lib.flatten_ranges.argtypes = [_LABELS_OUT, _INDICES, _INDICES, i64]
        lib.flatten_ranges.restype = i64
        lib.relabel.argtypes = [_LABELS, _LABELS_OUT, i64, _LABELS, i64]
        lib.relabel.restype = i64
        self._lib = lib

    def scan_chunk(
        self,
        img_chunk: np.ndarray,
        label_start: int,
        connectivity: int = 8,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, int, np.ndarray]:
        """:func:`~repro.ccl.run_based.scan_runs_chunk`, with the
        8-connectivity scan in C (4-connectivity runs the NumPy
        row-run path). Same contract, byte-identical results."""
        if connectivity != 8:
            return scan_runs_chunk(img_chunk, label_start, connectivity, out)
        rows, cols = img_chunk.shape
        if out is None:
            out = np.empty((rows, cols), dtype=LABEL_DTYPE)
        elif out.shape != (rows, cols):
            raise ValueError(
                f"out has shape {out.shape}, chunk has {(rows, cols)}"
            )
        p = np.empty(((rows + 1) // 2) * ((cols + 1) // 2), LABEL_DTYPE)
        n = int(self._lib.pair_scan(img_chunk, rows, cols, label_start, out, p))
        if n < 0:
            raise MemoryError("pair_scan could not allocate its seam buffer")
        return out, label_start + n, p[:n]

    def flatten_ranges(
        self, p: np.ndarray, ranges: Sequence[tuple[int, int]]
    ) -> int:
        """:func:`~repro.unionfind.flatten.flatten_ranges_array` in C:
        the sequential FLATTEN over ascending, disjoint label ranges."""
        bounds = np.array(ranges, dtype=np.int64).reshape(-1, 2)
        starts = np.ascontiguousarray(bounds[:, 0])
        stops = np.ascontiguousarray(bounds[:, 1])
        if len(bounds) and (
            starts[0] < 0
            or stops[-1] > len(p)
            or (stops < starts).any()
            or (starts[1:] < stops[:-1]).any()
        ):
            raise ValueError(
                f"label ranges must be ascending, disjoint and inside "
                f"p[0:{len(p)}], got {list(ranges)}"
            )
        return int(self._lib.flatten_ranges(p, starts, stops, len(bounds)))

    def relabel(
        self, src: np.ndarray, dst: np.ndarray, lut: np.ndarray
    ) -> None:
        """``dst[...] = lut[src]``; *dst* may be *src* itself."""
        if src.shape != dst.shape:
            raise ValueError(f"shapes differ: {src.shape} vs {dst.shape}")
        bad = self._lib.relabel(src, dst, src.size, lut, len(lut))
        if bad:
            raise ValueError(
                f"{bad} provisional label(s) outside the table's "
                f"{len(lut)} entries"
            )


def library_path() -> pathlib.Path:
    """Where the library for the current ``_native.c`` is cached:
    ``${XDG_CACHE_HOME:-~/.cache}/repro/native-<sha256>-<platform>.so``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()
    tag = sysconfig.get_platform().replace("-", "_").replace(".", "_")
    return pathlib.Path(base) / "repro" / f"native-{digest}-{tag}.so"


def _build(target: pathlib.Path) -> str | None:
    """Compile ``_native.c`` to *target*; the failure reason, or None."""
    cc = shutil.which("cc")
    if cc is None:
        return "no C compiler ('cc') on PATH"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
        )
        os.close(fd)
    except OSError as exc:
        return f"cache directory {target.parent} is not writable: {exc}"
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SOURCE)],
            capture_output=True,
            text=True,
            timeout=_BUILD_TIMEOUT_S,
            env=dict(os.environ, TMPDIR=str(target.parent)),
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return f"{cc} exited with status {proc.returncode}: " + (
                " | ".join(tail) or "no output"
            )
        os.replace(tmp, target)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"building {target.name} failed: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return None


def _resolve() -> tuple[NativeKernel | None, str | None]:
    try:
        target = library_path()
    except OSError as exc:
        return None, f"cannot read {_SOURCE.name}: {exc}"
    if not target.exists():
        reason = _build(target)
        if reason is not None:
            return None, reason
    try:
        return NativeKernel(ctypes.CDLL(str(target))), None
    except (OSError, AttributeError) as exc:
        return None, f"loading {target} failed: {exc}"


def load() -> tuple[NativeKernel | None, str | None]:
    """The native kernel, compiled and loaded on first call.

    Returns ``(kernel, None)``, or ``(None, reason)`` when the library
    cannot be built or loaded (one warning is logged). The outcome is
    settled once per process; a process forked afterwards inherits it.
    """
    global _LOADED
    if _LOADED is None:
        with _LOCK:
            if _LOADED is None:
                kernel, reason = _resolve()
                if kernel is None:
                    _LOG.warning(
                        "native PAREMSP kernel unavailable (%s); using the "
                        "NumPy kernels",
                        reason,
                    )
                _LOADED = kernel, reason
    return _LOADED
