"""The native PAREMSP chunk kernel against its NumPy twins.

``repro.ccl._native`` compiles ``_native.c`` on first use. Each of its
three functions must give byte-identical results to the NumPy code it
replaces, which stays as the fallback and the oracle:
``pair_scan`` vs :func:`~repro.ccl.run_based.scan_runs_chunk`,
``flatten_ranges`` vs
:func:`~repro.unionfind.flatten.flatten_ranges_array` and ``relabel``
vs :func:`~repro.ccl.labeling.apply_table`. These tests skip only when
the host has no C compiler; with one, a library that fails to build or
load fails them.
"""

from __future__ import annotations

import ctypes
import logging
import os
import shutil
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.ccl import _native, aremsp
from repro.ccl.labeling import apply_table
from repro.ccl.run_based import scan_runs_chunk
from repro.data.synthetic import random_noise
from repro.parallel import paremsp
from repro.parallel.backends import get_backend
from repro.parallel.partition import partition_rows
from repro.types import LABEL_DTYPE
from repro.unionfind.flatten import flatten_ranges_array

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler ('cc') on PATH"
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(scope="module")
def native() -> _native.NativeKernel:
    kernel, reason = _native.load()
    assert kernel is not None, reason
    return kernel


def assert_same_scan(got, want) -> None:
    (g_lab, g_used, g_p), (w_lab, w_used, w_p) = got, want
    assert g_lab.dtype == w_lab.dtype == LABEL_DTYPE
    assert g_p.dtype == w_p.dtype == LABEL_DTYPE
    np.testing.assert_array_equal(g_lab, w_lab)
    assert g_used == w_used
    np.testing.assert_array_equal(g_p, w_p)


# -- pair_scan vs scan_runs_chunk ----------------------------------------


@pytest.mark.parametrize("label_start", [1, 37])
def test_pair_scan_matches_numpy_on_seam_images(
    native, seam_images, label_start
):
    for name, img in seam_images:
        try:
            assert_same_scan(
                native.scan_chunk(img, label_start, 8),
                scan_runs_chunk(img, label_start, 8),
            )
        except AssertionError as exc:
            raise AssertionError(f"seam image {name!r}: {exc}") from None


@pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 31), (31, 1), (3, 5), (17, 29), (64, 63), (129, 257)],
    ids=str,
)
@pytest.mark.parametrize("label_start", [1, 1001, 2**20 + 3])
def test_pair_scan_matches_numpy_on_noise(native, density, shape, label_start):
    seed = int(density * 10) * 1000 + shape[0] * 7 + shape[1]
    img = random_noise(shape, density, seed=seed)
    assert_same_scan(
        native.scan_chunk(img, label_start, 8),
        scan_runs_chunk(img, label_start, 8),
    )


def test_pair_scan_paints_into_out(native):
    img = random_noise((40, 23), 0.5, seed=3)
    plane = np.full((60, 23), -7, dtype=LABEL_DTYPE)
    out = plane[10:50]
    labels, used, p_slice = native.scan_chunk(img, 5, 8, out=out)
    assert labels is out
    assert (plane[:10] == -7).all() and (plane[50:] == -7).all()
    assert_same_scan((labels, used, p_slice), scan_runs_chunk(img, 5, 8))


def test_four_connectivity_runs_the_numpy_rows(native):
    img = random_noise((33, 41), 0.5, seed=4)
    assert_same_scan(native.scan_chunk(img, 9, 4), scan_runs_chunk(img, 9, 4))


def test_pair_scan_rejects_bad_buffers(native):
    img = random_noise((8, 8), 0.5, seed=5)
    with pytest.raises(ValueError, match="shape"):
        native.scan_chunk(img, 1, 8, out=np.empty((4, 8), LABEL_DTYPE))
    with pytest.raises(ctypes.ArgumentError):
        native.scan_chunk(img.astype(np.int32), 1, 8)
    with pytest.raises(ctypes.ArgumentError):
        native.scan_chunk(np.asfortranarray(img[:, :5]), 1, 8)


# -- flatten_ranges and relabel on a real multi-chunk run ----------------


def _seven_chunk_scan(img):
    """The label plane, equivalence array and chunk ranges of a 7-chunk
    vectorised PAREMSP scan + boundary merge (NumPy kernels)."""
    chunks = partition_rows(*img.shape, 7)
    assert len(chunks) == 7
    backend = get_backend("serial")
    plane = np.zeros(img.shape, dtype=LABEL_DTYPE)
    used, slices = [], []
    for c in chunks:
        _, u, p_slice = scan_runs_chunk(
            img[c.row_start : c.row_stop], c.label_start, 8,
            out=plane[c.row_start : c.row_stop],
        )
        used.append(u)
        slices.append(p_slice)
    p = np.zeros(max(used), dtype=LABEL_DTYPE)
    for c, u, s in zip(chunks, used, slices):
        p[c.label_start : u] = s
    backend.boundary(plane, chunks, img.shape[1], p, 8, "vectorized")
    ranges = [(c.label_start, u) for c, u in zip(chunks, used)]
    return plane, p, ranges


@pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
def test_flatten_ranges_matches_numpy(native, density):
    img = random_noise((71, 53), density, seed=int(density * 100))
    _, p, ranges = _seven_chunk_scan(img)
    assert (p[1:] < np.arange(1, len(p))).any()  # seams did merge
    a, b = p.copy(), p.copy()
    assert native.flatten_ranges(a, ranges) == flatten_ranges_array(b, ranges)
    np.testing.assert_array_equal(a, b)


def test_flatten_ranges_rejects_bad_ranges(native):
    p = np.arange(10, dtype=LABEL_DTYPE)
    for ranges in ([(0, 11)], [(5, 3)], [(4, 8), (6, 9)], [(-1, 2)]):
        with pytest.raises(ValueError, match="ranges"):
            native.flatten_ranges(p.copy(), ranges)
    assert native.flatten_ranges(p.copy(), []) == 0


@pytest.mark.parametrize("in_place", [True, False])
def test_relabel_matches_apply_table(native, in_place):
    img = random_noise((71, 53), 0.5, seed=6)
    plane, p, ranges = _seven_chunk_scan(img)
    flatten_ranges_array(p, ranges)
    want = apply_table(plane, p, len(p))
    out = plane if in_place else np.empty_like(plane)
    native.relabel(plane, out, p)
    np.testing.assert_array_equal(out, want)


def test_relabel_rejects_labels_outside_the_table(native):
    lut = np.arange(4, dtype=LABEL_DTYPE)
    for bad in (4, -1):
        src = np.array([[0, 1], [2, bad]], dtype=LABEL_DTYPE)
        with pytest.raises(ValueError, match="outside the table"):
            native.relabel(src, np.empty_like(src), lut)


# -- PAREMSP with and without the library --------------------------------


@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
def test_paremsp_native_matches_aremsp(native, backend, seam_images):
    images = [img for _, img in seam_images] + [
        random_noise((97, 61), 0.5, seed=7)
    ]
    for img in images:
        expected = aremsp(img).labels
        for n_threads in range(1, 8):
            r = paremsp(
                img, n_threads=n_threads, backend=backend, engine="vectorized"
            )
            assert r.meta["native"] is True
            np.testing.assert_array_equal(r.labels, expected)


def test_processes_result_does_not_alias_shared_memory(native):
    img = random_noise((64, 40), 0.5, seed=8)
    r = paremsp(img, n_threads=3, backend="processes", engine="vectorized")
    assert r.meta["transport"] == "shared_memory"
    assert r.labels.flags.owndata


@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
def test_fallback_without_library_matches_aremsp(
    monkeypatch, backend, seam_images
):
    reason = "no C compiler ('cc') on PATH"
    monkeypatch.setattr(_native, "load", lambda: (None, reason))
    images = [img for _, img in seam_images] + [
        random_noise((97, 61), 0.5, seed=9)
    ]
    for img in images:
        expected = aremsp(img).labels
        for n_threads in range(1, 8):
            r = paremsp(
                img, n_threads=n_threads, backend=backend, engine="vectorized"
            )
            assert r.meta["native"] == reason
            np.testing.assert_array_equal(r.labels, expected)


def test_interpreter_engine_records_no_native_key():
    r = paremsp(np.eye(6, dtype=np.uint8), n_threads=2)
    assert "native" not in r.meta


# -- the loader ----------------------------------------------------------


def test_load_warns_once_and_caches(monkeypatch, caplog):
    calls = []
    reason = "cache directory /nowhere is not writable: EROFS"

    def resolve():
        calls.append(1)
        return None, reason

    monkeypatch.setattr(_native, "_LOADED", None)
    monkeypatch.setattr(_native, "_resolve", resolve)
    with caplog.at_level(logging.WARNING, logger=_native.__name__):
        assert _native.load() == (None, reason)
        assert _native.load() == (None, reason)
    assert len(calls) == 1
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 1
    assert reason in warnings[0]


def test_unwritable_cache_gives_a_reason(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
    kernel, reason = _native._resolve()
    assert kernel is None
    assert "not writable" in reason


def test_missing_compiler_gives_a_reason(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    kernel, reason = _native._resolve()
    assert kernel is None
    assert "no C compiler" in reason
    assert not any(tmp_path.rglob("*"))


_RACER = textwrap.dedent(
    """
    import os, sys, time
    go = os.path.join(sys.argv[1], "go")
    open(os.path.join(sys.argv[1], "ready-" + sys.argv[2]), "w").close()
    while not os.path.exists(go):
        time.sleep(0.001)
    from repro.ccl import _native
    kernel, reason = _native.load()
    assert kernel is not None, reason
    print(_native.library_path())
    """
)


def test_racing_builds_leave_one_library(monkeypatch, tmp_path):
    cache, tmp, sync = tmp_path / "cache", tmp_path / "tmp", tmp_path / "sync"
    tmp.mkdir()
    sync.mkdir()
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(cache),
        TMPDIR=str(tmp),
        PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ),
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(sync), str(i)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for i in range(2)
    ]
    try:
        deadline = time.monotonic() + 60
        while len(list(sync.glob("ready-*"))) < 2:
            assert time.monotonic() < deadline, "racers never started"
            time.sleep(0.005)
        (sync / "go").touch()
        outs = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    lib = _native.library_path()
    assert {out.strip() for out, _ in outs} == {str(lib)}
    assert {p.relative_to(cache) for p in cache.rglob("*")} == {
        lib.parent.relative_to(cache),
        lib.relative_to(cache),
    }
    assert list(tmp.iterdir()) == []
    assert ctypes.CDLL(str(lib)).pair_scan
