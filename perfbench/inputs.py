"""Seeded inputs and their oracles, built before anything is timed.

Every workload's inputs are a pure function of ``--seed``. The
coordinator builds them (and the oracle answers the timed operations
are checked against) into the run's work directory, then records what
each workload is built from in ``manifest.json``:

* ``noise-4mpx`` — ``N_NOISE`` distinct-seed 2048² Bernoulli(0.5)
  images, each with its ``scipy.ndimage.label`` (8-connectivity)
  answer: the partition every timed call must reproduce;
* ``blobs-64mb`` / ``blobs-64mb-faults`` — one 8192² uint8 ``.npy``
  memmap of ``synthetic.blobs`` (density 0.6) written one 1024-row
  block at a time, plus the ``tiled_label`` answer file every sharded
  call must match byte for byte;
* ``service-small`` — a pool of 128² Bernoulli(0.45) and 256² blob
  images with their inline ``repro.label`` answers, and the seeded
  order the clients send them in.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from common import cache_sizes

NOISE_SIDE = 2048
N_NOISE = 8

RASTER_SIDE = 8192
RASTER_BLOCK = 1024
RASTER_DENSITY = 0.6
RASTER_TILE = (256, 256)

SERVICE_NOISE = (128, 0.45)
SERVICE_BLOBS = (256, 0.5)
N_SERVICE_EACH = 32
SERVICE_ORDER_LEN = 4096


def _runs(img: np.ndarray) -> int:
    """Horizontal foreground runs (a run starts at a 0->1 step)."""
    fg = img != 0
    starts = fg[:, 1:] & ~fg[:, :-1]
    return int(fg[:, 0].sum()) + int(starts.sum())


def _describe(seed, input_bytes, output_bytes, pixels, fg, runs, comps):
    return {
        "seed": seed,
        "input_bytes": int(input_bytes),
        "output_bytes": int(output_bytes),
        **cache_sizes(),
        "foreground_density": fg / pixels,
        "runs_per_mpx": runs / (pixels / 1e6),
        "components": int(comps),
    }


def build_noise(repro, work: pathlib.Path, seed: int) -> dict:
    from repro.data import synthetic
    from repro.verify.scipy_oracle import scipy_label

    images, fg, runs, comps = [], 0, 0, 0
    for i in range(N_NOISE):
        img = synthetic.random_noise(
            (NOISE_SIDE, NOISE_SIDE), 0.5, seed=[seed, i]
        )
        labels, n = scipy_label(img, 8)
        np.save(work / f"noise-{i}.npy", img)
        np.save(work / f"noise-{i}.oracle.npy", labels)
        images.append({"image": f"noise-{i}.npy",
                       "oracle": f"noise-{i}.oracle.npy", "n": n})
        fg += int(img.sum())
        runs += _runs(img)
        comps += n
    pixels = N_NOISE * NOISE_SIDE * NOISE_SIDE
    return {
        "images": images,
        "describe": _describe(
            seed, NOISE_SIDE ** 2, NOISE_SIDE ** 2 * 4, pixels, fg, runs,
            comps / N_NOISE,
        ),
    }


def build_raster(repro, work: pathlib.Path, seed: int) -> dict:
    from numpy.lib.format import open_memmap
    from repro.data import synthetic
    from repro.parallel import tiled_label

    side = RASTER_SIDE
    mm = open_memmap(
        work / "raster.npy", mode="w+", dtype=np.uint8, shape=(side, side)
    )
    fg = runs = 0
    for b, r0 in enumerate(range(0, side, RASTER_BLOCK)):
        block = synthetic.blobs(
            (RASTER_BLOCK, side), density=RASTER_DENSITY, seed=[seed, b]
        )
        mm[r0:r0 + RASTER_BLOCK] = block
        fg += int(block.sum())
        runs += _runs(block)
    mm.flush()
    del mm
    raster = np.load(work / "raster.npy", mmap_mode="r")
    t0 = time.perf_counter()
    oracle = tiled_label(
        raster, tile_shape=RASTER_TILE, out=work / "oracle.npy"
    )
    tiled_s = time.perf_counter() - t0
    n = int(oracle.n_components)
    del oracle, raster
    return {
        "raster": "raster.npy",
        "oracle": "oracle.npy",
        "n": n,
        "tile": list(RASTER_TILE),
        "oracle_tiled_s": tiled_s,
        "describe": _describe(
            seed, side * side, side * side * 4, side * side, fg, runs, n
        ),
    }


def build_service(repro, work: pathlib.Path, seed: int) -> dict:
    from repro.data import synthetic

    arrays = {}
    fg = runs = comps = pixels = in_bytes = 0
    for i in range(2 * N_SERVICE_EACH):
        if i % 2:
            side, density = SERVICE_BLOBS
            img = synthetic.blobs((side, side), density, seed=[seed, i])
        else:
            side, density = SERVICE_NOISE
            img = synthetic.random_noise((side, side), density, seed=[seed, i])
        labels, n = repro.label(img, engine="vectorized")
        arrays[f"img{i}"] = img
        arrays[f"lab{i}"] = labels
        fg += int(img.sum())
        runs += _runs(img)
        comps += n
        pixels += img.size
        in_bytes += img.nbytes
    np.savez(work / "service.npz", **arrays)
    n_images = 2 * N_SERVICE_EACH
    order = np.random.default_rng([seed, 1 << 20]).integers(
        0, n_images, SERVICE_ORDER_LEN
    )
    return {
        "pool": "service.npz",
        "n_images": n_images,
        "order": order.tolist(),
        "describe": _describe(
            seed, in_bytes / n_images, in_bytes * 4 / n_images, pixels,
            fg, runs, comps / n_images,
        ),
    }


def build(repro, workload: str, work: pathlib.Path, seed: int) -> dict:
    """Build *workload*'s inputs and oracles under *work*; return the
    manifest (also written to ``work/manifest.json``)."""
    if workload == "noise-4mpx":
        manifest = build_noise(repro, work, seed)
    elif workload in ("blobs-64mb", "blobs-64mb-faults"):
        manifest = build_raster(repro, work, seed)
    elif workload == "service-small":
        manifest = build_service(repro, work, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest["workload"] = workload
    (work / "manifest.json").write_text(json.dumps(manifest))
    return manifest
