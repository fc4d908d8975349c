"""PAREMSP end-to-end: every backend, every thread count, vs sequential."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ccl import aremsp
from repro.ccl.registry import ALGORITHMS, EIGHT_CONNECTIVITY_ONLY
from repro.errors import BackendError
from repro.parallel import paremsp
from repro.parallel.boundary import boundary_rows, merge_boundary_row
from repro.parallel.partition import partition_rows
from repro.parallel.tiled import tiled_label
from repro.unionfind.remsp import merge as remsp_merge
from repro.verify import flood_fill_label, labelings_equivalent
from repro.verify.equivalence import canonicalize_labeling

BACKENDS = ["serial", "threads", "processes", "simulated"]
THREADS = [1, 2, 3, 5, 8]
ENGINES = ["interpreter", "vectorized"]
EXEC_BACKENDS = ["serial", "threads", "processes"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matches_oracle(backend, structural_image):
    expected, n = flood_fill_label(structural_image, 8)
    result = paremsp(structural_image, n_threads=3, backend=backend)
    assert result.n_components == n
    assert labelings_equivalent(result.labels, expected)


@pytest.mark.parametrize("n_threads", THREADS)
def test_thread_count_invariance(n_threads, structural_image):
    base = paremsp(structural_image, n_threads=1, backend="serial")
    result = paremsp(structural_image, n_threads=n_threads, backend="serial")
    assert np.array_equal(result.labels, base.labels)
    assert result.n_components == base.n_components


@pytest.mark.parametrize("backend", BACKENDS)
def test_backends_bit_identical_final_labels(backend, rng):
    """Provisional labels vary with interleaving; final labels must not."""
    img = (rng.random((26, 19)) < 0.5).astype(np.uint8)
    base = paremsp(img, n_threads=4, backend="serial")
    result = paremsp(img, n_threads=4, backend=backend)
    assert np.array_equal(result.labels, base.labels)


def test_matches_sequential_aremsp_partition(structural_image):
    seq = aremsp(structural_image, 8)
    par = paremsp(structural_image, n_threads=4, backend="serial")
    assert par.n_components == seq.n_components
    assert labelings_equivalent(par.labels, seq.labels)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_connectivity_variants(connectivity, rng):
    img = (rng.random((20, 20)) < 0.5).astype(np.uint8)
    expected, n = flood_fill_label(img, connectivity)
    result = paremsp(
        img, n_threads=3, backend="serial", connectivity=connectivity
    )
    assert result.n_components == n
    assert labelings_equivalent(result.labels, expected)


def test_component_spanning_all_chunks():
    """A vertical line through every chunk: the boundary merge is load-
    bearing for correctness here."""
    img = np.zeros((32, 8), dtype=np.uint8)
    img[:, 3] = 1
    for t in (2, 4, 8):
        result = paremsp(img, n_threads=t, backend="serial")
        assert result.n_components == 1


def test_horizontal_bands_aligned_with_chunks():
    """Components that end exactly at chunk boundaries must not merge."""
    img = np.zeros((16, 6), dtype=np.uint8)
    img[0:4, :] = 1
    img[5:8, :] = 1
    img[9:12, :] = 1
    result = paremsp(img, n_threads=4, backend="serial")
    assert result.n_components == 3


def test_diagonal_through_boundaries():
    img = np.eye(24, dtype=np.uint8)
    for t in (2, 3, 6):
        result = paremsp(img, n_threads=t, backend="serial")
        assert result.n_components == 1


@given(
    img=hnp.arrays(
        dtype=np.uint8,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=20),
        elements=st.integers(0, 1),
    ),
    n_threads=st.integers(1, 6),
)
@settings(max_examples=30)
def test_property_serial_backend_equals_oracle(img, n_threads):
    expected, n = flood_fill_label(img, 8)
    result = paremsp(img, n_threads=n_threads, backend="serial")
    assert result.n_components == n
    assert labelings_equivalent(result.labels, expected)


def test_result_metadata(rng):
    img = (rng.random((18, 11)) < 0.4).astype(np.uint8)
    result = paremsp(img, n_threads=3, backend="serial")
    assert result.backend == "serial"
    assert result.n_threads == 3
    assert result.n_chunks == 3
    assert set(result.phase_seconds) == {"scan", "merge", "flatten", "label"}
    assert "boundary_unions" in result.meta
    assert "chunk_seconds" in result.meta
    assert len(result.meta["chunk_seconds"]) == result.n_chunks


def test_simulated_result_metadata(rng):
    img = (rng.random((18, 11)) < 0.4).astype(np.uint8)
    result = paremsp(img, n_threads=3, backend="simulated")
    assert result.meta["simulated"] is True
    assert "spawn" in result.phase_seconds


def test_unknown_backend():
    with pytest.raises(BackendError):
        paremsp(np.ones((4, 4), dtype=np.uint8), backend="gpu")


def test_empty_image_all_backends():
    img = np.zeros((0, 0), dtype=np.uint8)
    for backend in ("serial", "threads", "simulated"):
        result = paremsp(img, n_threads=2, backend=backend)
        assert result.n_components == 0


class TestEngines:
    """The determinism contract: final labels are byte-identical to
    sequential AREMSP across every engine x backend x thread count."""

    # degenerate geometries first: single row/column, odd row count,
    # uniform images — the historical failure modes of chunked scans.
    SHAPES = [(1, 1), (1, 9), (9, 1), (5, 7), (8, 8), (13, 17)]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_engine_backend_matrix_matches_aremsp(self, engine, backend, rng):
        img = (rng.random((21, 14)) < 0.5).astype(np.uint8)
        seq = aremsp(img, 8)
        result = paremsp(img, n_threads=3, backend=backend, engine=engine)
        assert result.n_components == seq.n_components
        assert np.array_equal(result.labels, seq.labels)
        assert result.engine == engine
        assert result.meta["engine"] == engine

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("n_threads", [1, 2, 3, 7])
    def test_vectorized_thread_sweep_matches_aremsp(
        self, n_threads, connectivity, rng
    ):
        for shape in self.SHAPES:
            for density in (0.0, 0.45, 1.0):
                img = (rng.random(shape) < density).astype(np.uint8)
                seq = aremsp(img, connectivity)
                result = paremsp(
                    img,
                    n_threads=n_threads,
                    backend="serial",
                    connectivity=connectivity,
                    engine="vectorized",
                )
                assert result.n_components == seq.n_components
                assert np.array_equal(result.labels, seq.labels)

    @pytest.mark.parametrize("n_threads", [1, 3, 7])
    def test_vectorized_threads_backend_sweep_matches_aremsp(
        self, n_threads, rng
    ):
        for shape in self.SHAPES:
            for density in (0.0, 0.45, 1.0):
                img = (rng.random(shape) < density).astype(np.uint8)
                seq = aremsp(img, 8)
                result = paremsp(
                    img,
                    n_threads=n_threads,
                    backend="threads",
                    engine="vectorized",
                )
                assert result.n_components == seq.n_components
                assert np.array_equal(result.labels, seq.labels)

    @pytest.mark.parametrize("n_threads", range(1, 8))
    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_vectorized_pair_seams_match_aremsp(
        self, backend, n_threads, seam_images
    ):
        """Pair runs meet only across pair seams: odd row counts, 1- and
        2-row chunks, one column, and diagonal-only seam contacts."""
        for name, img in seam_images:
            seq = aremsp(img, 8)
            result = paremsp(
                img, n_threads=n_threads, backend=backend, engine="vectorized"
            )
            assert result.n_components == seq.n_components, name
            assert np.array_equal(result.labels, seq.labels), name

    @given(
        img=hnp.arrays(
            dtype=np.uint8,
            shape=hnp.array_shapes(
                min_dims=2, max_dims=2, min_side=1, max_side=20
            ),
            elements=st.integers(0, 1),
        ),
        n_threads=st.integers(1, 7),
        connectivity=st.sampled_from([4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_vectorized_byte_identical_to_aremsp(
        self, img, n_threads, connectivity
    ):
        seq = aremsp(img, connectivity)
        result = paremsp(
            img,
            n_threads=n_threads,
            backend="serial",
            connectivity=connectivity,
            engine="vectorized",
        )
        assert result.n_components == seq.n_components
        assert np.array_equal(result.labels, seq.labels)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_processes_engine_matches_interpreter_serial(self, engine, rng):
        img = (rng.random((24, 13)) < 0.4).astype(np.uint8)
        base = paremsp(img, n_threads=4, backend="serial")
        result = paremsp(
            img, n_threads=4, backend="processes", engine=engine
        )
        assert np.array_equal(result.labels, base.labels)
        assert result.meta["transport"] == "shared_memory"

    def test_processes_single_chunk_runs_inline(self):
        img = np.ones((4, 4), dtype=np.uint8)
        result = paremsp(
            img, n_threads=1, backend="processes", engine="vectorized"
        )
        assert result.n_components == 1
        assert result.meta["transport"] == "inline"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            paremsp(np.ones((4, 4), dtype=np.uint8), engine="gpu")

    def test_retired_blocks_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            paremsp(
                np.ones((4, 4), dtype=np.uint8), engine="vectorized-blocks"
            )

    def test_simulated_rejects_vectorized(self):
        with pytest.raises(ValueError, match="simulated"):
            paremsp(
                np.ones((4, 4), dtype=np.uint8),
                backend="simulated",
                engine="vectorized",
            )

    def test_empty_image_vectorized(self):
        img = np.zeros((0, 0), dtype=np.uint8)
        result = paremsp(
            img, n_threads=2, backend="serial", engine="vectorized"
        )
        assert result.n_components == 0


class TestDifferentialFuzz:
    """Differential harness: every registered algorithm and the full
    engine x backend x thread matrix against the AREMSP oracle on random
    rasters of varying density, including zero- and one-column widths.

    Two strengths of oracle relation are in play:

    * the paremsp matrix is *byte-identical* to sequential AREMSP (the
      library's determinism contract);
    * independent sequential algorithms number components in their own
      scan order, so they are compared after :func:`canonicalize_labeling`
      — byte-level equality of canonical forms, which is exactly
      partition identity plus count identity.
    """

    # degenerate widths first: (5, 0) and (0, 7) are the empty-edge
    # cases, (1, 1)/(7, 1)/(1, 13) the single-row/column scans.
    SHAPES = [
        (0, 0), (0, 7), (5, 0), (1, 1), (7, 1), (1, 13), (9, 14), (16, 16),
    ]
    DENSITIES = (0.0, 0.2, 0.5, 0.8, 1.0)

    @staticmethod
    def _rasters():
        rng = np.random.default_rng(20140519)
        for shape in TestDifferentialFuzz.SHAPES:
            for density in TestDifferentialFuzz.DENSITIES:
                yield (rng.random(shape) < density).astype(np.uint8)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_registry_algorithms_match_oracle(self, name, connectivity):
        if connectivity == 4 and name in EIGHT_CONNECTIVITY_ONLY:
            pytest.skip(f"{name} is 8-connectivity only")
        fn = ALGORITHMS[name]
        for img in self._rasters():
            ref = aremsp(img, connectivity)
            res = fn(img, connectivity)
            assert res.n_components == ref.n_components, (name, img.shape)
            assert np.array_equal(
                canonicalize_labeling(res.labels),
                canonicalize_labeling(ref.labels),
            ), (name, img.shape)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_engine_backend_matrix_byte_identical(self, engine, backend):
        # fork cost makes the processes sweep the slow axis: sample it.
        shapes = (
            [(5, 0), (7, 1), (9, 14), (16, 16)]
            if backend == "processes"
            else self.SHAPES
        )
        thread_counts = (1, 2, 5) if backend == "serial" else (3,)
        rng = np.random.default_rng(99)
        for shape in shapes:
            for density in (0.0, 0.5, 1.0):
                img = (rng.random(shape) < density).astype(np.uint8)
                ref = aremsp(img, 8)
                for n_threads in thread_counts:
                    res = paremsp(
                        img,
                        n_threads=n_threads,
                        backend=backend,
                        engine=engine,
                    )
                    assert res.n_components == ref.n_components
                    assert np.array_equal(res.labels, ref.labels), (
                        engine, backend, n_threads, shape, density,
                    )

    @given(
        img=hnp.arrays(
            dtype=np.uint8,
            shape=hnp.array_shapes(
                min_dims=2, max_dims=2, min_side=1, max_side=16
            ),
            elements=st.integers(0, 1),
        ),
        backend=st.sampled_from(EXEC_BACKENDS),
        engine=st.sampled_from(ENGINES),
        n_threads=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matrix_byte_identical(
        self, img, backend, engine, n_threads
    ):
        ref = aremsp(img, 8)
        res = paremsp(
            img, n_threads=n_threads, backend=backend, engine=engine
        )
        assert res.n_components == ref.n_components
        assert np.array_equal(res.labels, ref.labels)

    @pytest.mark.parametrize("tile_shape", [(4, 4), (5, 3), (16, 2)])
    def test_tiled_canonical_vs_oracle(self, tile_shape):
        for img in self._rasters():
            ref = aremsp(img, 8)
            res = tiled_label(img, tile_shape=tile_shape)
            assert res.n_components == ref.n_components, img.shape
            assert np.array_equal(
                canonicalize_labeling(res.labels),
                canonicalize_labeling(ref.labels),
            ), (tile_shape, img.shape)

    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_memmap_input(self, backend, tmp_path, rng):
        """np.memmap rasters flow through every backend unchanged."""
        img = (rng.random((33, 21)) < 0.5).astype(np.uint8)
        path = tmp_path / "raster.dat"
        mm = np.memmap(path, dtype=np.uint8, mode="w+", shape=img.shape)
        mm[:] = img
        mm.flush()
        ro = np.memmap(path, dtype=np.uint8, mode="r", shape=img.shape)
        ref = aremsp(img, 8)
        res = paremsp(ro, n_threads=3, backend=backend, engine="vectorized")
        assert np.array_equal(res.labels, ref.labels)

    def test_memmap_input_tiled(self, tmp_path, rng):
        img = (rng.random((40, 28)) < 0.5).astype(np.uint8)
        path = tmp_path / "raster.dat"
        mm = np.memmap(path, dtype=np.uint8, mode="w+", shape=img.shape)
        mm[:] = img
        mm.flush()
        ro = np.memmap(path, dtype=np.uint8, mode="r", shape=img.shape)
        ref = aremsp(img, 8)
        res = tiled_label(ro, tile_shape=(16, 16))
        assert res.n_components == ref.n_components
        assert np.array_equal(
            canonicalize_labeling(res.labels),
            canonicalize_labeling(ref.labels),
        )


class TestBoundaryMerge:
    def test_unions_counted(self):
        labels = [[1, 0, 2], [3, 0, 4]]
        p = list(range(8))
        ops = merge_boundary_row(labels, 1, 3, p, remsp_merge, 8)
        assert ops == 2  # 3-1 (b), 4-2 (b)

    def test_diagonal_only_unions(self):
        labels = [[1, 0, 2], [0, 3, 0]]
        p = list(range(8))
        ops = merge_boundary_row(labels, 1, 3, p, remsp_merge, 8)
        assert ops == 2  # a and c neighbours of the centre pixel

    def test_4conn_skips_diagonals(self):
        labels = [[1, 0, 2], [0, 3, 0]]
        p = list(range(8))
        ops = merge_boundary_row(labels, 1, 3, p, remsp_merge, 4)
        assert ops == 0

    def test_b_short_circuits_a_and_c(self):
        labels = [[1, 1, 1], [0, 2, 0]]
        p = list(range(8))
        ops = merge_boundary_row(labels, 1, 3, p, remsp_merge, 8)
        assert ops == 1  # b present: a/c skipped

    def test_boundary_rows_helper(self):
        chunks = partition_rows(12, 4, 3)
        assert boundary_rows(chunks) == [4, 8]
        assert boundary_rows(chunks[:1]) == []
