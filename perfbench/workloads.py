"""The four workloads: set-up, the untraced timed loop, and the traced run.

Each workload class is built inside the fresh measuring process. Its
constructor is the set-up the ``setup_s`` metric times (imports, pool
and host start-up, one warm-up call on a small image); ``run`` is the
closed loop timed with tracing off; ``trace`` hands the same inputs to
:class:`layers.LayerSweep` for the per-layer numbers; ``close`` stops
everything the workload started.

Every loop is closed: each caller waits for its answer before sending
its next input. Every answer is checked against the oracle the
coordinator built (see ``inputs.py``) outside the timed interval.
"""

from __future__ import annotations

import os
import pathlib
import time

import numpy as np

from checks import Tally, files_identical, same_partition
from common import median
from layers import LayerSweep, closed_loop

#: bounded respawns, no backoff padding, a watchdog far above one call.
_RESILIENCE_KW = dict(max_retries=2, backoff_base=0.0, phase_timeout=120.0)
#: retry budget that rides out the injected 1 s partition.
_NET_KW = dict(max_retries=6, backoff_base=0.05, backoff_cap=0.5)

CHECKPOINT_EVERY = 4
PARTITION_SECONDS = 1.0


def kill_plan():
    """Kill rank 0 in the scan phase after its first snapshot batch."""
    from repro.faults import FaultPlan, FaultSpec

    return FaultPlan(
        [FaultSpec("kill_rank", phase="scan", rank=0, after_chunks=1)]
    )


def partition_plan():
    """Black out host 0 for 1 s as the reduce tree starts."""
    from repro.faults import FaultPlan, FaultSpec

    return FaultPlan([
        FaultSpec("partition", phase="reduce-0", rank=0,
                  delay_seconds=PARTITION_SECONDS),
    ])


def settle_disk() -> None:
    """Write back every dirty page before a timed call that writes and
    fsyncs a label file, so the call pays for its own writes only and
    not for whatever earlier calls left in the page cache."""
    os.sync()


class Samples:
    """What one timed loop hands back to the coordinator.

    Single-caller loops fill ``primary``/``alt`` with seconds per
    operation of ``op_mpx`` megapixels. The service loop also fills
    ``rates``/``alt_rates`` with Mpx/s per time block and ``wall`` with
    the seconds its clients ran.
    """

    def __init__(self, op_mpx: float) -> None:
        self.op_mpx = op_mpx
        self.primary: list[float] = []
        self.alt: list[float] = []
        self.rates: list[float] = []
        self.alt_rates: list[float] = []
        self.wall = 0.0

    def as_dict(self) -> dict:
        return dict(vars(self))


def crops(img, side: int = 256, n: int = 4) -> list:
    """*n* x *n* service-sized crops spread over *img*."""
    step = img.shape[0] // n
    return [np.ascontiguousarray(img[r:r + side, c:c + side])
            for r in range(0, n * step, step)
            for c in range(0, n * step, step)]


class NoiseWorkload:
    """2048² Bernoulli(0.5) images, one caller: ``paremsp`` over the
    threads backend (primary) and serial ``repro.label`` (second path)."""

    def __init__(self, repro, work, manifest, procs, tally) -> None:
        from repro.data import synthetic
        from repro.parallel import paremsp

        self.repro, self.work, self.procs, self.tally = (
            repro, work, procs, tally)
        self.manifest = manifest
        self._paremsp = paremsp
        warm = synthetic.random_noise((256, 256), 0.5, seed=0)
        self.threads(warm)
        self.serial(warm)

    def threads(self, img):
        r = self._paremsp(
            img, n_threads=self.procs, backend="threads", engine="vectorized"
        )
        return r.labels, r.n_components

    def serial(self, img):
        return self.repro.label(img, engine="vectorized")

    def _images(self):
        return [np.load(self.work / e["image"])
                for e in self.manifest["images"]]

    def _oracle(self, k: int):
        entry = self.manifest["images"][k]
        return np.load(self.work / entry["oracle"]), entry["n"]

    def run(self, seconds: float) -> Samples:
        images = self._images()
        out = Samples(images[0].size / 1e6)
        paths = [("threads", self.threads, out.primary),
                 ("serial", self.serial, out.alt)]
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            k = i % len(images)
            # alternate which path goes first so neither always runs
            # on a cache the other warmed
            for name, fn, sink in paths[:: 1 if i % 2 == 0 else -1]:
                try:
                    t0 = time.perf_counter()
                    labels, n = fn(images[k])
                    dt = time.perf_counter() - t0
                except Exception:
                    self.tally.error(f"{name} image {i}")
                    continue
                oracle, n_oracle = self._oracle(k)
                good = same_partition(labels, n, oracle, n_oracle)
                del labels, oracle  # keep only the inputs resident
                if self.tally.ok(good, f"{name} image {i} partition"):
                    sink.append(dt)
            i += 1
        return out

    def trace(self, seconds: float) -> dict:
        images = self._images()
        sweep = LayerSweep(
            self.repro, self.work, self.procs, self.tally,
            images=images, raster=images[0],
            runtimes=Runtimes(self.work, self.procs, (256, 256), False),
            requests=crops(images[0]), primary="paremsp",
        )
        return sweep.run(seconds)

    def close(self) -> None:
        pass


class Runtimes:
    """Callers of the two sharded runtimes with the benchmark's settings:
    ``n_shards=4`` over ``procs`` ranks or virtual hosts, bounded
    retries, and (when *faults*) one injected fault per call."""

    def __init__(self, work, procs, tile, faults: bool) -> None:
        from repro.faults import ResilienceConfig
        from repro.parallel import net_shard_label, shard_label
        from repro.parallel.net import NetConfig

        self.work, self.procs, self.tile, self.faults = (
            work, procs, tuple(tile), faults)
        self._shard_label = shard_label
        self._net_shard_label = net_shard_label
        self.resilience = ResilienceConfig(**_RESILIENCE_KW)
        self.net_config = NetConfig(**_NET_KW)

    def _ck_kwargs(self, ck):
        if ck is None:
            return {}
        return {"checkpoint_dir": self.work / ck,
                "checkpoint_every": CHECKPOINT_EVERY}

    def shard(self, raster, out, fault: bool, ck=None, recorder=None):
        plan = kill_plan() if fault else None
        res = self._shard_label(
            raster, n_shards=4, n_ranks=self.procs, tile_shape=self.tile,
            out=out, resilience=self.resilience, fault_plan=plan,
            recorder=recorder, **self._ck_kwargs(ck),
        )
        return res, plan

    def net(self, raster, out, fault: bool, ck=None, recorder=None):
        plan = partition_plan() if fault else None
        res = self._net_shard_label(
            raster, virtual_hosts=self.procs, n_shards=4,
            tile_shape=self.tile, out=out, resilience=self.resilience,
            net_config=self.net_config, fault_plan=plan, recorder=recorder,
            **self._ck_kwargs(ck),
        )
        return res, plan

    @staticmethod
    def fault_fired(kind: str, res, plan) -> bool:
        """A clean call stayed on its rung; an injected fault fired and
        the runtime observed it."""
        if plan is None:
            return not res.meta.get("degraded_from")
        if plan.injected != 1:
            return False
        if kind == "shard":
            return res.meta["rank_deaths"] >= 1
        return res.meta["net"]["partitions"] == 1


class RasterWorkload:
    """One 64 MB on-disk raster labeled into an on-disk label file by
    ``shard_label`` (primary) and ``net_shard_label`` (second path);
    with *faults*, one injected fault per call against a checkpoint
    directory."""

    def __init__(self, repro, work, manifest, procs, tally,
                 faults: bool) -> None:
        from repro.data import synthetic

        self.repro, self.work, self.procs, self.tally = (
            repro, work, procs, tally)
        self.manifest = manifest
        self.rt = Runtimes(work, procs, manifest["tile"], faults)
        warm = synthetic.blobs((1024, 1024), 0.6, seed=0)
        ck = "ck-warm" if faults else None
        self.rt.shard(warm, None, fault=False, ck=ck)
        self.rt.net(warm, None, fault=False, ck=ck)

    def checked_call(self, kind: str, raster, tag: str) -> float | None:
        """One timed call of *kind*; its seconds, or ``None`` if it
        raised, differed from the oracle file, or its fault never fired
        (a faulted call that ran clean must not pass as recovery)."""
        fn = self.rt.shard if kind == "shard" else self.rt.net
        out = self.work / f"out-{kind}.npy"
        ck = f"ck-{kind}" if self.rt.faults else None
        settle_disk()
        try:
            t0 = time.perf_counter()
            res, plan = fn(raster, out, self.rt.faults, ck=ck)
            dt = time.perf_counter() - t0
        except Exception:
            self.tally.error(f"{kind} {tag}")
            return None
        n = res.n_components
        fired = self.rt.fault_fired(kind, res, plan)
        del res  # drop the label memmap before reading the file back
        good = (fired and n == self.manifest["n"]
                and files_identical(out, self.work / "oracle.npy"))
        if self.tally.ok(good, f"{kind} {tag} identity / fault fired"):
            return dt
        return None

    def raster(self):
        return np.load(self.work / self.manifest["raster"], mmap_mode="r")

    def run(self, seconds: float) -> Samples:
        raster = self.raster()
        out = Samples(raster.size / 1e6)
        kinds = [("shard", out.primary), ("net", out.alt)]
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            for kind, sink in kinds[:: 1 if i % 2 == 0 else -1]:
                dt = self.checked_call(kind, raster, f"call {i}")
                if dt is not None:
                    sink.append(dt)
            i += 1
        return out

    def trace(self, seconds: float) -> dict:
        raster = self.raster()
        crop = np.ascontiguousarray(raster[:2048, :2048])
        sweep = LayerSweep(
            self.repro, self.work, self.procs, self.tally,
            images=[crop], raster=raster, runtimes=self.rt,
            requests=crops(crop), primary="shard",
        )
        return sweep.run(seconds)

    def close(self) -> None:
        pass


class ServiceWorkload:
    """``procs`` client threads calling a warm ``LabelService`` on a mix
    of small images (primary), and inline ``repro.label`` on the same
    images from one caller (second path)."""

    #: share of the run given to the service; the rest times inline.
    SERVICE_SHARE = 0.8
    #: the run alternates service and inline blocks, so both paths see
    #: the same stretches of host load; rates are medians over blocks.
    BLOCKS = 5

    def __init__(self, repro, work, manifest, procs, tally) -> None:
        from repro.data import synthetic
        from repro.service import LabelService, ServiceConfig

        self.repro, self.work, self.procs, self.tally = (
            repro, work, procs, tally)
        self.manifest = manifest
        self.svc = LabelService(ServiceConfig(workers=procs))
        for side in (128, 256):
            self.svc.label(synthetic.random_noise((side, side), 0.5, seed=0))

    def pool(self):
        with np.load(self.work / self.manifest["pool"]) as data:
            n = self.manifest["n_images"]
            return ([data[f"img{i}"] for i in range(n)],
                    [data[f"lab{i}"] for i in range(n)])

    def inline(self, images, oracles, seconds):
        """One caller, inline ``repro.label``; returns (latencies, pixels)."""
        order = self.manifest["order"]
        latencies, pixels = [], 0
        start = time.perf_counter()
        i = 0
        while i < len(images) or time.perf_counter() - start < seconds:
            idx = order[i % len(order)]
            i += 1
            try:
                t0 = time.perf_counter()
                labels, _n = self.repro.label(images[idx], engine="vectorized")
                dt = time.perf_counter() - t0
            except Exception:
                self.tally.error(f"inline image {i}")
                continue
            if self.tally.ok(np.array_equal(labels, oracles[idx]),
                             f"inline image {i} answer"):
                latencies.append(dt)
                pixels += images[idx].size
        return latencies, pixels

    def run(self, seconds: float) -> Samples:
        images, oracles = self.pool()
        out = Samples(median(img.size for img in images) / 1e6)
        block = seconds / self.BLOCKS
        for _ in range(self.BLOCKS):
            lat, px, wall = closed_loop(
                self.svc, images, oracles, self.manifest["order"],
                self.procs, block * self.SERVICE_SHARE, self.tally,
                "service")
            out.primary += lat
            out.wall += wall
            if lat:
                out.rates.append(px / wall / 1e6)
            lat, px = self.inline(
                images, oracles, block * (1 - self.SERVICE_SHARE))
            out.alt += lat
            if lat:
                out.alt_rates.append(px / sum(lat) / 1e6)
        return out

    def trace(self, seconds: float) -> dict:
        images, oracles = self.pool()
        blob = next(img for img in images if img.shape == (256, 256))
        sweep = LayerSweep(
            self.repro, self.work, self.procs, self.tally,
            images=images, raster=blob,
            runtimes=Runtimes(self.work, self.procs, (64, 64), False),
            requests=images, request_oracles=oracles,
            order=self.manifest["order"], primary="service",
            untraced_service=self.svc,
        )
        return sweep.run(seconds)

    def close(self) -> None:
        self.svc.drain()


def make(workload: str, repro, work: pathlib.Path, manifest, procs,
         tally: Tally):
    """Set up *workload* (the part ``setup_s`` times)."""
    if workload == "noise-4mpx":
        return NoiseWorkload(repro, work, manifest, procs, tally)
    if workload in ("blobs-64mb", "blobs-64mb-faults"):
        return RasterWorkload(repro, work, manifest, procs, tally,
                              faults=workload.endswith("-faults"))
    if workload == "service-small":
        return ServiceWorkload(repro, work, manifest, procs, tally)
    raise ValueError(f"unknown workload {workload!r}")
