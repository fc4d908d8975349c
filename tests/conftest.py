"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.data import (
    blobs,
    checkerboard,
    diagonal_chains,
    diagonal_stripes,
    halves,
    hilbert_curve,
    maze,
    random_noise,
    solid,
    spiral,
)

# keep hypothesis fast and deterministic on the CI box; select the
# "thorough" profile (REPRO_HYPOTHESIS_PROFILE=thorough) for deep sweeps
import os

settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.register_profile(
    "thorough",
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "repro"))


#: (name, image) pairs covering the structural extremes; sizes stay small
#: because the interpreter engines are O(pixels) in Python.
def _structural_images() -> list[tuple[str, np.ndarray]]:
    return [
        ("empty", np.zeros((0, 0), dtype=np.uint8)),
        ("one_bg", np.zeros((1, 1), dtype=np.uint8)),
        ("one_fg", np.ones((1, 1), dtype=np.uint8)),
        ("row_fg", np.ones((1, 9), dtype=np.uint8)),
        ("col_fg", np.ones((9, 1), dtype=np.uint8)),
        ("row_alt", (np.arange(10) % 2).astype(np.uint8).reshape(1, 10)),
        ("all_bg", solid((6, 7), 0)),
        ("all_fg", solid((6, 7), 1)),
        ("all_fg_odd", solid((7, 7), 1)),
        ("halves_v", halves((8, 8), "vertical")),
        ("halves_h", halves((8, 8), "horizontal")),
        ("checker", checkerboard((9, 9))),
        ("checker2", checkerboard((12, 10), cell=2)),
        ("stripes", diagonal_stripes((16, 16), period=4)),
        ("spiral", spiral((21, 21), gap=2)),
        ("hilbert", hilbert_curve((16, 16))),
        ("diag_chains", diagonal_chains((16, 16), spacing=3, zigzag=True)),
        ("diag_straight", diagonal_chains((14, 15), spacing=3, zigzag=False)),
        ("noise_lo", random_noise((15, 17), 0.2, seed=11)),
        ("noise_mid", random_noise((16, 16), 0.5, seed=12)),
        ("noise_hi", random_noise((17, 15), 0.8, seed=13)),
        ("blobs", blobs((24, 24), 0.5, seed=14)),
        ("maze", maze((20, 20), 0.5, seed=15)),
        ("odd_rows", random_noise((9, 12), 0.5, seed=16)),
        ("tall", random_noise((31, 4), 0.5, seed=17)),
        ("wide", random_noise((4, 31), 0.5, seed=18)),
    ]


STRUCTURAL_IMAGES = _structural_images()


@pytest.fixture(params=STRUCTURAL_IMAGES, ids=[n for n, _ in STRUCTURAL_IMAGES])
def structural_image(request) -> np.ndarray:
    """One structural test image per parameterisation."""
    return request.param[1]


def _seam_images() -> list[tuple[str, np.ndarray]]:
    """Images that stress the seams between row pairs (rows 2k - 1 and
    2k): odd row counts, one and two rows, one column, and components
    that meet across a seam only diagonally."""
    near_miss = np.zeros((6, 5), dtype=np.uint8)
    near_miss[1, 0] = near_miss[2, 2] = 1  # two apart, one diagonal gap
    seam_diagonal = np.zeros((8, 6), dtype=np.uint8)
    seam_diagonal[[0, 1, 2, 3, 4, 5, 6, 7], [0, 0, 1, 1, 2, 2, 3, 3]] = 1
    return [
        ("checker_unit", checkerboard((13, 14))),
        ("diag_zigzag", diagonal_chains((17, 19), spacing=3, zigzag=True)),
        ("eye", np.eye(11, 9, dtype=np.uint8)),
        ("anti_eye", np.fliplr(np.eye(10, dtype=np.uint8)).copy()),
        ("seam_diagonal", seam_diagonal),
        ("near_miss", near_miss),
        ("one_row", random_noise((1, 13), 0.5, seed=21)),
        ("two_rows", random_noise((2, 13), 0.5, seed=22)),
        ("three_rows", random_noise((3, 13), 0.5, seed=23)),
        ("one_col_odd", random_noise((9, 1), 0.6, seed=24)),
        ("one_col_even", random_noise((10, 1), 0.6, seed=25)),
        ("pairs_x7", random_noise((14, 6), 0.5, seed=26)),
        ("odd_x7", random_noise((15, 6), 0.5, seed=27)),
        ("odd_noise", random_noise((21, 17), 0.45, seed=28)),
    ]


@pytest.fixture
def seam_images() -> list[tuple[str, np.ndarray]]:
    """The pair-seam edge cases, as ``(name, image)`` pairs."""
    return _seam_images()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20140519)
