"""Run extraction and the two RUN engines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ccl.run_based import (
    extract_runs,
    row_runs,
    run_based,
    run_based_vectorized,
)
from repro.verify import flood_fill_label, labelings_equivalent


class TestRowRuns:
    def test_empty_row(self):
        assert row_runs(np.zeros(5, dtype=np.uint8)) == []

    def test_full_row(self):
        assert row_runs(np.ones(4, dtype=np.uint8)) == [(0, 4)]

    def test_single_pixel_runs(self):
        row = np.array([1, 0, 1, 0, 1], dtype=np.uint8)
        assert row_runs(row) == [(0, 1), (2, 3), (4, 5)]

    def test_runs_at_edges(self):
        row = np.array([1, 1, 0, 0, 1, 1], dtype=np.uint8)
        assert row_runs(row) == [(0, 2), (4, 6)]

    @given(
        row=hnp.arrays(
            dtype=np.uint8,
            shape=st.integers(1, 40),
            elements=st.integers(0, 1),
        )
    )
    def test_property_runs_reconstruct_row(self, row):
        painted = np.zeros_like(row)
        for s, e in row_runs(row):
            assert s < e
            painted[s:e] = 1
        assert np.array_equal(painted, row)


class TestExtractRuns:
    def test_matches_per_row_extraction(self, structural_image):
        img = np.asarray(structural_image, dtype=np.uint8)
        rr, ss, ee = extract_runs(img)
        per_row: list[tuple[int, int, int]] = []
        for r in range(img.shape[0]):
            for s, e in row_runs(img[r]):
                per_row.append((r, s, e))
        assert per_row == list(zip(rr.tolist(), ss.tolist(), ee.tolist()))

    def test_empty_image(self):
        rr, ss, ee = extract_runs(np.zeros((0, 0), dtype=np.uint8))
        assert len(rr) == len(ss) == len(ee) == 0

    def test_runs_in_raster_order(self, rng):
        img = (rng.random((12, 12)) < 0.5).astype(np.uint8)
        rr, ss, _ = extract_runs(img)
        keys = list(zip(rr.tolist(), ss.tolist()))
        assert keys == sorted(keys)


@pytest.mark.parametrize("engine", [run_based, run_based_vectorized])
@pytest.mark.parametrize("connectivity", [4, 8])
def test_engines_match_oracle(engine, connectivity, structural_image):
    expected, n = flood_fill_label(structural_image, connectivity)
    result = engine(structural_image, connectivity)
    assert result.n_components == n
    assert labelings_equivalent(result.labels, expected)


def pair_run_count(img: np.ndarray) -> int:
    """Runs of ``img[0::2] | img[1::2]``: the 8-connectivity
    provisional ids of the vectorised engine (an odd tail row pairs with
    nothing)."""
    img = np.asarray(img, dtype=np.uint8)
    pairs = img[0::2].copy()
    pairs[: img.shape[0] // 2] |= img[1::2]
    return len(extract_runs(pairs)[0])


def test_engines_bit_identical(structural_image):
    a = run_based(structural_image, 8)
    b = run_based_vectorized(structural_image, 8)
    assert np.array_equal(a.labels, b.labels)
    assert a.n_components == b.n_components
    # provisional semantics differ by design: the interpreter engine
    # allocates a label only for runs with no connected predecessor,
    # the vectorised engine ids every pair run.
    assert b.provisional_count == pair_run_count(structural_image)


@given(
    img=hnp.arrays(
        dtype=np.uint8,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24),
        elements=st.integers(0, 1),
    ),
    connectivity=st.sampled_from([4, 8]),
)
def test_property_engines_agree(img, connectivity):
    a = run_based(img, connectivity)
    b = run_based_vectorized(img, connectivity)
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_engines_bit_identical_on_seam_images(seam_images, connectivity):
    for name, img in seam_images:
        a = run_based(img, connectivity)
        b = run_based_vectorized(img, connectivity)
        assert np.array_equal(a.labels, b.labels), name
        assert a.n_components == b.n_components, name


def test_provisional_count_equals_run_count(rng):
    img = (rng.random((20, 20)) < 0.5).astype(np.uint8)
    # 8-connectivity: one id per pair run
    assert run_based_vectorized(img, 8).provisional_count == (
        pair_run_count(img)
    )
    # 4-connectivity: one id per row run
    _, ss, _ = extract_runs(img)
    assert run_based_vectorized(img, 4).provisional_count == len(ss)
    # two row runs the interpreter labels apart share one pair run
    hook = np.array([[1, 0, 1], [1, 1, 1]], dtype=np.uint8)
    assert run_based(hook, 8).provisional_count == 2
    assert run_based_vectorized(hook, 8).provisional_count == 1


def test_vectorized_4conn_touching_diagonal_runs_stay_separate():
    img = np.array(
        [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
        ],
        dtype=np.uint8,
    )
    r4 = run_based_vectorized(img, 4)
    r8 = run_based_vectorized(img, 8)
    assert r4.n_components == 2
    assert r8.n_components == 1


def test_large_random_against_scipy():
    from repro.verify import have_scipy, scipy_label

    if not have_scipy():
        pytest.skip("scipy not installed")
    rng = np.random.default_rng(7)
    img = (rng.random((300, 257)) < 0.42).astype(np.uint8)
    _, n = scipy_label(img, 8)
    result = run_based_vectorized(img, 8)
    assert result.n_components == n
