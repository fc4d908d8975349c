"""The traced run: every layer's public entry point timed on one
workload's inputs, plus the spans and counters the layers already
return through their ``recorder=`` argument.

Layers, bottom up, and what is timed around their public calls:

* ``repro.ccl`` — ``run_based_vectorized`` against two references on
  the same image: ``scipy.ndimage.label`` and a widening copy of the
  image into a label-sized buffer (the memory traffic floor);
* ``repro.label`` — ``repro.label(engine="vectorized")``;
* ``repro.parallel.paremsp`` — the serial, threads and processes
  backends at ``n_threads=procs``, threads at ``n_threads=1``, and the
  phase spans of one traced threads call;
* ``repro.parallel.tiled`` — ``tiled_label(workers=1)``;
* ``repro.parallel.sharded`` — ``shard_label`` (clean, and with one
  ``kill_rank`` on the faults workload), spans plus ``meta`` counters;
* ``repro.parallel.net`` — ``net_shard_label`` (clean, and with one
  ``partition`` on the faults workload);
* ``repro.service`` — a traced ``LabelService`` under ``procs``
  closed-loop clients, against inline ``repro.label`` on the same
  images.

``repro.unionfind`` and ``repro.checkpoint`` show through the counters
of the layers that call them. Every layer runs on every workload, on
that workload's own inputs (a crop where an input is too large for the
layer), so every per-layer metric is a measurement on every workload.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from checks import files_identical, same_partition
from common import median


def closed_loop(svc, images, oracles, order, procs, seconds, tally, what):
    """*procs* client threads, each sending its next image only after
    its last answer; returns (latencies, pixels, wall seconds).

    ``ServiceOverloadedError``, ``QuotaExceededError``, timeouts and
    wrong answers all count as failed requests.
    """
    lock = threading.Lock()
    latencies: list[float] = []
    pixels = [0]
    stop = time.perf_counter() + seconds

    def client(k: int) -> None:
        j = k
        while time.perf_counter() < stop:
            idx = order[j % len(order)]
            j += procs
            img = images[idx]
            try:
                t0 = time.perf_counter()
                labels, _n = svc.label(img, timeout=30.0)
                dt = time.perf_counter() - t0
            except Exception:  # refused, timed out or raised: a failure
                with lock:
                    tally.error(f"{what} request {j}")
                continue
            good = np.array_equal(labels, oracles[idx])
            with lock:
                if tally.ok(good, f"{what} request {j} answer"):
                    latencies.append(dt)
                    pixels[0] += img.size

    threads = [threading.Thread(target=client, args=(k,))
               for k in range(procs)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return latencies, pixels[0], time.perf_counter() - t0


def _top_level_seconds(rec) -> float:
    """Sum of the coordinator's top-level phase spans."""
    return sum(s.duration for s in rec.spans
               if s.lane == "machine" and s.depth == 0)


def _phase_ms(rec, phase: str) -> float:
    return 1e3 * sum(s.duration for s in rec.spans
                     if s.lane == "machine" and s.depth == 0
                     and s.phase == phase)


def _counter(rec, name: str) -> int:
    return int(rec.metrics.as_dict()["counters"].get(name, 0))


class LayerSweep:
    """Time every layer on one workload's inputs.

    *images* feed the kernel, ``repro.label`` and PAREMSP layers;
    *raster* the tiled layer and, through *runtimes* (a
    ``workloads.Runtimes``), the sharded and net layers; *requests*
    (sent in *order*) the service layer. *primary* names the path whose
    traced and untraced rates give ``trace.overhead_frac``; for the
    service that compares against the already running
    *untraced_service*.
    """

    def __init__(self, repro, work, procs, tally, *, images, raster,
                 runtimes, requests, primary, request_oracles=None,
                 order=None, untraced_service=None) -> None:
        self.repro, self.work, self.procs, self.tally = (
            repro, work, procs, tally)
        self.images = images
        self.raster = raster
        self.rt = runtimes
        self.requests = requests
        self.request_oracles = request_oracles
        self.order = order if order is not None else range(len(requests))
        self.primary = primary
        self.untraced_service = untraced_service
        self.samples: dict[str, list[float]] = {}
        self.m: dict[str, float] = {}

    # -- helpers -----------------------------------------------------------

    def _time(self, key: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.samples.setdefault(key, []).append(time.perf_counter() - t0)
        return out

    def _ms(self, key: str) -> float:
        return 1e3 * median(self.samples[key])

    # -- repro.ccl, repro.label, repro.parallel.paremsp ------------------

    def image_round(self, img) -> None:
        from repro.ccl.run_based import run_based_vectorized
        from repro.obs import TraceRecorder
        from repro.parallel import paremsp
        from repro.verify.scipy_oracle import scipy_label

        oracle, n_oracle = self._time("scipy", scipy_label, img, 8)
        buf = np.empty(img.shape, dtype=np.int32)
        self._time("memcpy", np.copyto, buf, img)
        del buf

        def check(what, labels, n):
            self.tally.ok(same_partition(labels, n, oracle, n_oracle),
                          f"{what} partition")

        r = self._time("kernel", run_based_vectorized, img, 8)
        check("kernel", r.labels, r.n_components)
        check("label", *self._time("label", self.repro.label, img,
                                   engine="vectorized"))
        runs = [("serial", self.procs), ("threads", self.procs),
                ("processes", self.procs), ("threads.t1", 1)]
        for key, n_threads in runs:
            backend = key.split(".")[0]
            r = self._time(key, paremsp, img, n_threads=n_threads,
                           backend=backend, engine="vectorized")
            check(f"paremsp {key}", r.labels, r.n_components)
        rec = TraceRecorder()
        r = self._time("threads.traced", paremsp, img, n_threads=self.procs,
                       backend="threads", engine="vectorized", recorder=rec)
        check("paremsp threads traced", r.labels, r.n_components)
        wall = self.samples["threads.traced"][-1]
        for phase in ("scan", "merge", "flatten", "label"):
            self.samples.setdefault(f"paremsp.{phase}", []).append(
                _phase_ms(rec, phase) / 1e3)
        self.samples.setdefault("paremsp.unattributed", []).append(
            1.0 - _top_level_seconds(rec) / wall)
        self.samples.setdefault("paremsp.unions", []).append(
            _counter(rec, "unionfind.boundary_unions"))

    def image_metrics(self) -> None:
        m = self.m
        m["ref.scipy_ms"] = self._ms("scipy")
        m["ref.memcpy_ms"] = self._ms("memcpy")
        m["ccl.kernel_ms"] = self._ms("kernel")
        m["ccl.vs_scipy"] = m["ccl.kernel_ms"] / m["ref.scipy_ms"]
        m["ccl.vs_memcpy"] = m["ccl.kernel_ms"] / m["ref.memcpy_ms"]
        m["label.ms"] = self._ms("label")
        m["label.over_kernel"] = m["label.ms"] / m["ccl.kernel_ms"]
        for key in ("serial", "threads", "processes"):
            m[f"paremsp.{key}.ms"] = self._ms(key)
        m["paremsp.threads.t1_ms"] = self._ms("threads.t1")
        for key in ("threads", "processes"):
            m[f"paremsp.{key}.speedup"] = (
                m["label.ms"] / m[f"paremsp.{key}.ms"])
        for phase in ("scan", "merge", "flatten", "label"):
            m[f"paremsp.{phase}_ms"] = self._ms(f"paremsp.{phase}")
        m["paremsp.boundary_unions"] = median(
            self.samples["paremsp.unions"])
        m["paremsp.unattributed_frac"] = median(
            self.samples["paremsp.unattributed"])
        if self.primary == "paremsp":
            traced = median(self.samples["threads.traced"])
            m["trace.overhead_frac"] = (
                traced / median(self.samples["threads"]) - 1.0)

    # -- repro.parallel.{tiled,sharded,net} --------------------------------

    def raster_layers(self) -> None:
        from repro.obs import TraceRecorder
        from repro.parallel import tiled_label
        from workloads import settle_disk

        m = self.m
        on_disk = isinstance(self.raster, np.memmap)
        tiled_out = self.work / "sweep-tiled.npy" if on_disk else None
        settle_disk()
        tiled = self._time("tiled", tiled_label, self.raster,
                           tile_shape=self.rt.tile, workers=1,
                           recorder=TraceRecorder(), out=tiled_out)
        m["tiled.ms"] = self._ms("tiled")
        n_tiled = tiled.n_components
        if on_disk:
            del tiled
            reference = self.work / "oracle.npy"
            self.tally.ok(files_identical(tiled_out, reference),
                          "tiled byte-identity")
            expected = None
        else:
            from repro.verify.scipy_oracle import scipy_label

            expected = np.array(tiled.labels)
            oracle, n_oracle = scipy_label(self.raster, 8)
            self.tally.ok(same_partition(expected, n_tiled, oracle, n_oracle),
                          "tiled partition")

        rt = self.rt

        def call(kind, fault, rec=None):
            fn = rt.shard if kind == "shard" else rt.net
            out = self.work / f"sweep-{kind}.npy"
            ck = f"ck-sweep-{kind}" if fault else None
            settle_disk()
            t0 = time.perf_counter()
            res, plan = fn(self.raster, out, fault, ck=ck, recorder=rec)
            dt = time.perf_counter() - t0
            meta, n = res.meta, res.n_components
            fired = rt.fault_fired(kind, res, plan)
            del res
            if expected is None:
                same = files_identical(out, self.work / "oracle.npy")
            else:
                same = np.array_equal(np.load(out), expected)
            self.tally.ok(same and n == n_tiled and fired,
                          f"sweep {kind} fault={fault} identity/fault fired")
            return dt, meta, plan

        rec = TraceRecorder()
        shard_s, shard_meta, _ = call("shard", False, rec)
        m["sharded.over_tiled"] = shard_s / (m["tiled.ms"] / 1e3)
        for phase in ("scan", "seam", "reduce", "label"):
            m[f"sharded.{phase}_ms"] = _phase_ms(rec, phase)
        m["sharded.unattributed_frac"] = (
            1.0 - _top_level_seconds(rec) / shard_s)
        m["sharded.ranks_forked"] = _counter(rec, "shard.ranks_forked")
        m["sharded.tasks_completed"] = _counter(rec, "shard.tasks_completed")
        if self.primary == "shard":
            untraced_s, _, _ = call("shard", False)
            m["trace.overhead_frac"] = shard_s / untraced_s - 1.0

        rec = TraceRecorder()
        net_s, net_meta, _ = call("net", False, rec)
        m["net.over_shard"] = net_s / shard_s
        m["net.rtt_ms"] = float(
            rec.metrics.as_dict()["gauges"].get("net.rtt_ms", 0.0))

        recovery_meta, injected = shard_meta, 0
        net_stats = net_meta["net"]
        m["sharded.recovery_over_clean"] = 0.0
        m["net.recovery_over_clean"] = 0.0
        ck_rec = TraceRecorder()
        if rt.faults:
            fault_s, recovery_meta, plan = call("shard", True, ck_rec)
            injected = plan.injected
            m["sharded.recovery_over_clean"] = fault_s / shard_s
            fault_s, fault_meta, _ = call("net", True, ck_rec)
            net_stats = fault_meta["net"]
            m["net.recovery_over_clean"] = fault_s / net_s
        for key in ("rank_deaths", "rescan_chunks", "respawns",
                    "claims_released"):
            m[f"sharded.{key}"] = int(recovery_meta[key])
        m["sharded.deaths_minus_injected"] = (
            int(recovery_meta["rank_deaths"]) - injected)
        for key in ("net_tasks", "tasks_deduped", "partitions",
                    "lease_expired"):
            m[f"net.{key}"] = int(net_stats[key])
        m["checkpoint.saves"] = _counter(ck_rec, "checkpoint.saves")
        m["checkpoint.resumes"] = _counter(ck_rec, "checkpoint.resumes")
        m["checkpoint.shards_resumed"] = len(
            recovery_meta.get("shards_resumed", ()))

    # -- repro.service -------------------------------------------------

    def service_layer(self, seconds: float) -> None:
        from repro.obs import TraceRecorder
        from repro.service import LabelService, ServiceConfig

        m = self.m
        oracles = self.request_oracles
        if oracles is None:
            oracles = [self.repro.label(img, engine="vectorized")[0]
                       for img in self.requests]
        order = self.order
        inline = []
        for idx in order[: max(len(self.requests), 64)]:
            img = self.requests[idx]
            t0 = time.perf_counter()
            labels, _n = self.repro.label(img, engine="vectorized")
            inline.append(time.perf_counter() - t0)
            self.tally.ok(np.array_equal(labels, oracles[idx]),
                          "sweep inline answer")

        rec = TraceRecorder()
        svc = LabelService(ServiceConfig(workers=self.procs), recorder=rec)
        try:
            lat, _px, wall = closed_loop(
                svc, self.requests, oracles, order, self.procs, seconds,
                self.tally, "sweep service")
            respawns = svc.stats().pool_respawns
        finally:
            svc.drain()
        if self.primary == "service":
            lat0, _px0, wall0 = closed_loop(
                self.untraced_service, self.requests, oracles, order,
                self.procs, seconds, self.tally, "sweep untraced service")
            m["trace.overhead_frac"] = (
                (len(lat0) / wall0) / (len(lat) / wall) - 1.0)

        worker, front = {}, {}
        for s in rec.spans:
            rid = (s.attrs or {}).get("request_id")
            if rid is None:
                continue
            if s.phase == "request" and s.lane.startswith("worker"):
                worker[rid] = s.duration
            elif s.phase == "service.request" and s.lane == "frontend":
                front[rid] = s.duration
        both = [rid for rid in front if rid in worker]
        counters = rec.metrics.as_dict()["counters"]
        batches = counters.get("service.batches", 0)
        m["service.over_inline"] = median(lat) / median(inline)
        m["service.worker_ms"] = 1e3 * median(worker[r] for r in both)
        m["service.wait_ms"] = 1e3 * median(front[r] - worker[r]
                                            for r in both)
        m["service.batches"] = int(batches)
        m["service.mean_batch"] = (
            counters.get("service.batch_images", 0) / max(1, batches))
        m["service.rejected"] = int(
            counters.get("service.rejected.overload", 0)
            + counters.get("service.rejected.quota", 0))
        m["service.pool_respawns"] = int(respawns)

    # -- the sweep ---------------------------------------------------------

    def run(self, seconds: float) -> dict:
        start = time.perf_counter()
        self.raster_layers()
        self.service_layer(max(1.0, 0.15 * seconds))
        rounds = 0
        while rounds < 2 or time.perf_counter() - start < seconds:
            self.image_round(self.images[rounds % len(self.images)])
            rounds += 1
        self.image_metrics()
        return self.m
