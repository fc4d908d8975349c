"""The multi-host coordinator (:mod:`repro.parallel.net.cluster`).

The acceptance bar mirrors the sharded suite's: byte-identity with
serial :func:`~repro.parallel.tiled.tiled_label` across loopback
virtual hosts — through partitions that heal, hosts whose leases expire
mid-phase (their work migrating to survivors), and quorum loss that
walks the degradation ladder (multi-host → single-host sharded →
inline) with a reasoned ``meta["degraded_from"]``. No external hosts:
everything runs on loopback.
"""

from __future__ import annotations

import copy
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.errors import ClusterQuorumError
from repro.faults import FaultPlan, FaultSpec, ResilienceConfig
from repro.obs import TraceRecorder
from repro.obs.runtime import RuntimeAggregator, use_runtime_aggregator
from repro.parallel import net_shard_label, shard_label, tiled_label
from repro.parallel.net import NetConfig, VirtualHostPool
from repro.parallel.net.cluster import parse_hosts

TILE = (8, 8)

FAST = ResilienceConfig(max_retries=2, backoff_base=0.0, phase_timeout=60.0)

#: snappy transport for loopback: no backoff padding, short deadlines.
NET_FAST = NetConfig(
    connect_timeout=2.0, call_timeout=2.0, exec_timeout=30.0,
    max_retries=2, backoff_base=0.0,
)

#: transport aimed at dead addresses: fail fast, don't retry.
NET_DEAD = NetConfig(
    connect_timeout=0.2, call_timeout=0.3, max_retries=0, backoff_base=0.0,
)


def _image(rng, rows=40, cols=24, density=0.5):
    arr = (rng.random((rows, cols)) < density).astype(np.uint8)
    arr[0, :] = arr[-1, :] = arr[:, 0] = arr[:, -1] = 1
    return arr


def _no_leaked_hosts():
    return not [
        p for p in multiprocessing.active_children()
        if p.name.startswith("net-vhost")
    ]


# ---------------------------------------------------------------------------
# host parsing
# ---------------------------------------------------------------------------


def test_parse_hosts_string_and_sequence():
    assert parse_hosts("127.0.0.1:7071, 10.0.0.2:7072") == [
        ("127.0.0.1", 7071), ("10.0.0.2", 7072),
    ]
    assert parse_hosts(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]


@pytest.mark.parametrize("bad", ["", "nocolon", "host:", ":7071", "h:port"])
def test_parse_hosts_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_hosts(bad)


# ---------------------------------------------------------------------------
# the clean path
# ---------------------------------------------------------------------------


def test_two_virtual_hosts_match_serial(rng):
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    result = net_shard_label(
        img, virtual_hosts=2, n_shards=4, tile_shape=TILE,
        net_config=NET_FAST, resilience=FAST,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert result.algorithm == "net-sharded"
    assert result.meta["n_hosts"] == 2
    assert result.meta["net"]["net_tasks"] > 0
    assert "degraded_from" not in result.meta
    assert _no_leaked_hosts()


def test_virtual_hosts_on_memmap_with_out(rng, tmp_path):
    from numpy.lib.format import open_memmap

    src = tmp_path / "img.npy"
    mm = open_memmap(src, mode="w+", dtype=np.uint8, shape=(64, 48))
    mm[:] = _image(rng, 64, 48)
    mm.flush()
    img = np.load(src, mmap_mode="r")
    oracle = np.asarray(tiled_label(np.asarray(img), tile_shape=TILE).labels)
    out = tmp_path / "labels.npy"
    result = net_shard_label(
        img, virtual_hosts=2, n_shards=3, tile_shape=TILE, out=out,
        net_config=NET_FAST, resilience=FAST,
    )
    assert out.exists()
    assert np.array_equal(np.asarray(result.labels), oracle)


def test_single_virtual_host_works(rng):
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    result = net_shard_label(
        img, virtual_hosts=1, n_shards=3, tile_shape=TILE,
        net_config=NET_FAST, resilience=FAST,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)


def test_hosts_and_virtual_hosts_are_exclusive(rng):
    img = _image(rng)
    with pytest.raises(ValueError):
        net_shard_label(img, hosts="127.0.0.1:1", virtual_hosts=2)
    with pytest.raises(ValueError):
        net_shard_label(img)


def test_checkpoint_scratch_removed_on_success(rng, tmp_path):
    img = _image(rng)
    net_shard_label(
        img, virtual_hosts=2, n_shards=3, tile_shape=TILE,
        checkpoint_dir=tmp_path / "ck",
        net_config=NET_FAST, resilience=FAST,
    )
    assert not (tmp_path / "ck" / "scratch").exists()


# ---------------------------------------------------------------------------
# partitions: injected blackout, lease expiry, migration, heal
# ---------------------------------------------------------------------------


@pytest.mark.chaos
def test_partition_at_reduce_level_0_heals_byte_identical(rng):
    """The ISSUE's named case: a host partitioned as the reduce tree
    starts, the survivor finishing the level, output identical."""
    img = _image(rng, 96, 48)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    plan = FaultPlan([
        FaultSpec("partition", phase="reduce-0", rank=0, delay_seconds=0.8),
    ])
    rec = TraceRecorder()
    result = net_shard_label(
        img, virtual_hosts=2, n_shards=4, tile_shape=TILE,
        fault_plan=plan, recorder=rec,
        net_config=NET_FAST, resilience=FAST,
        lease_duration=0.3, heartbeat_interval=0.1,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert plan.injected == 1
    assert result.meta["net"]["partitions"] == 1
    assert "degraded_from" not in result.meta
    counters = rec.report().metrics["counters"]
    assert counters.get("net.partitions", 0) == 1
    assert _no_leaked_hosts()


@pytest.mark.chaos
def test_partition_expires_lease_and_work_migrates(rng):
    """A long blackout mid-scan: the host's lease expires, its claimed
    shards migrate to the survivor, bytes still identical."""
    img = _image(rng, 2048, 1024)
    oracle = np.asarray(tiled_label(img, tile_shape=(64, 64)).labels)
    plan = FaultPlan([
        FaultSpec("partition", phase="scan", rank=0, delay_seconds=30.0),
    ])
    result = net_shard_label(
        img, virtual_hosts=2, n_shards=8, tile_shape=(64, 64),
        fault_plan=plan,
        net_config=NetConfig(
            connect_timeout=2.0, call_timeout=2.0, exec_timeout=30.0,
            max_retries=1, backoff_base=0.0,
        ),
        resilience=FAST,
        lease_duration=0.25, heartbeat_interval=0.08,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert result.meta["net"]["lease_expired"] >= 1
    assert "degraded_from" not in result.meta
    assert _no_leaked_hosts()


@pytest.mark.chaos
def test_partition_heals_and_host_rejoins(rng):
    """A short blackout: the lease expires, then the partition heals
    while the run is still going — the host rejoins (bumped
    incarnation) and its stale re-sent work dedups on done markers."""
    img = _image(rng, 256, 96)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    # slow the survivor's work channel so the scan phase reliably
    # outlives both the lease and the blackout
    plan = FaultPlan([
        FaultSpec("partition", phase="scan", rank=0, delay_seconds=0.4),
        FaultSpec("slow_link", phase="net", rank=1,
                  delay_seconds=0.08, times=12),
    ])
    result = net_shard_label(
        img, virtual_hosts=2, n_shards=8, tile_shape=TILE,
        fault_plan=plan,
        net_config=NET_FAST, resilience=FAST,
        lease_duration=0.15, heartbeat_interval=0.05,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    net = result.meta["net"]
    assert net["partitions"] == 1
    assert net["lease_expired"] >= 1
    assert net["rejoined"] >= 1
    assert "degraded_from" not in result.meta
    assert _no_leaked_hosts()


@pytest.mark.chaos
def test_client_fault_kinds_recover_byte_identical(rng):
    """drop_conn / corrupt_frame / dup_msg / slow_link on the work
    channel: all absorbed by retry + CRC + replay cache."""
    img = _image(rng, 96, 48)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    plan = FaultPlan([
        FaultSpec("drop_conn", phase="net", rank=0),
        FaultSpec("corrupt_frame", phase="net", rank=1),
        FaultSpec("dup_msg", phase="net", rank=0),
        FaultSpec("slow_link", phase="net", rank=1, delay_seconds=0.05),
    ])
    rec = TraceRecorder()
    result = net_shard_label(
        img, virtual_hosts=2, n_shards=4, tile_shape=TILE,
        fault_plan=plan, recorder=rec,
        net_config=NET_FAST, resilience=FAST,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert plan.injected == 4
    counters = rec.report().metrics["counters"]
    assert counters.get("net.retries", 0) >= 1
    assert counters.get("net.frames_corrupt", 0) >= 1
    assert _no_leaked_hosts()


@pytest.mark.chaos
def test_phase_threads_stop_before_run_phase_returns(rng, monkeypatch):
    """Under the reduce-0 partition, once ``NetPool.run_phase`` returns
    none of the phase's monitor or dispatcher threads is alive, and
    neither the phase's stats nor the run-wide tallies change after."""
    from repro.parallel.net import NetPool

    returned = []
    run_phase = NetPool.run_phase

    def audited(self, phase, *args, **kwargs):
        stats = run_phase(self, phase, *args, **kwargs)
        alive = [
            t.name for t in threading.enumerate()
            if t.name.startswith(
                (f"net-dispatch-{phase}-", f"net-monitor-{phase}")
            )
        ]
        returned.append((phase, stats, copy.deepcopy(stats), alive))
        return stats

    monkeypatch.setattr(NetPool, "run_phase", audited)
    img = _image(rng, 96, 48)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    plan = FaultPlan([
        FaultSpec("partition", phase="reduce-0", rank=0, delay_seconds=0.8),
    ])
    result = net_shard_label(
        img, virtual_hosts=2, n_shards=4, tile_shape=TILE,
        fault_plan=plan, net_config=NET_FAST, resilience=FAST,
        lease_duration=0.3, heartbeat_interval=0.1,
    )
    totals = copy.deepcopy(result.meta["net"])
    time.sleep(1.0)  # room for a straggling thread to count
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert plan.injected == 1
    assert "reduce-0" in [phase for phase, *_ in returned]
    for phase, stats, snapshot, alive in returned:
        assert not alive, (phase, alive)
        assert stats == snapshot, phase
    assert result.meta["net"] == totals


# ---------------------------------------------------------------------------
# the degradation ladder
# ---------------------------------------------------------------------------


@pytest.mark.chaos
def test_unreachable_hosts_at_start_degrade_with_reason(rng):
    """No host reachable: the run steps down to the single-host
    sharded pool and says why."""
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    result = net_shard_label(
        img, hosts="127.0.0.1:9,127.0.0.1:10", n_shards=3,
        tile_shape=TILE, net_config=NET_DEAD, resilience=FAST,
        lease_duration=0.3,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    reason = result.meta["degraded_from"]
    assert reason["backend"] == "net-sharded"
    assert reason["error"] == "ClusterQuorumError"
    assert "unreachable" in reason["message"]


@pytest.mark.chaos
def test_midrun_quorum_loss_degrades_with_reason(rng):
    """Both hosts blacked out at scan start with quorum=2: no task can
    move, the leases run out, the cluster rung is abandoned and the
    local pool finishes everything — bytes identical."""
    img = _image(rng, 96, 48)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    plan = FaultPlan([
        FaultSpec("partition", phase="scan", rank=0, delay_seconds=30.0),
        FaultSpec("partition", phase="scan", rank=1, delay_seconds=30.0),
    ])
    result = net_shard_label(
        img, virtual_hosts=2, n_shards=4, tile_shape=TILE,
        fault_plan=plan, quorum_hosts=2,
        net_config=NET_FAST, resilience=FAST,
        lease_duration=0.2, heartbeat_interval=0.05,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    reason = result.meta["degraded_from"]
    assert reason["backend"] == "net-sharded"
    assert reason["error"] == "ClusterQuorumError"
    # the scan phase records both rungs it crossed
    assert result.meta["phases"]["scan"]["net"]["degraded"] is not None
    # the local rung's recovery is reported at the top level, as for
    # shard_label
    for key in ("rank_deaths", "respawns", "reassigned", "claims_released",
                "rescan_chunks", "seam_recovered", "shards_resumed"):
        assert key in result.meta, key
    assert _no_leaked_hosts()


def test_degrade_false_raises_typed_quorum_error(rng):
    img = _image(rng)
    with pytest.raises(ClusterQuorumError) as err:
        net_shard_label(
            img, hosts="127.0.0.1:9", n_shards=2, tile_shape=TILE,
            net_config=NET_DEAD, degrade=False, lease_duration=0.3,
        )
    assert err.value.quorum == 1
    assert err.value.unreachable == ("127.0.0.1:9",)


@pytest.mark.chaos
def test_partial_start_quorum_holds_with_one_dead_address(rng):
    """One real virtual host plus one dead address with the default
    quorum (majority of 2 = 1): no degradation, identical output."""
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    with VirtualHostPool(1) as vpool:
        host, port = vpool.addrs[0]
        result = net_shard_label(
            img, hosts=f"{host}:{port},127.0.0.1:9",
            n_shards=3, tile_shape=TILE,
            net_config=NetConfig(
                connect_timeout=0.3, call_timeout=2.0, exec_timeout=30.0,
                max_retries=0, backoff_base=0.0,
            ),
            resilience=FAST, lease_duration=30.0,
        )
    assert np.array_equal(np.asarray(result.labels), oracle)
    assert "degraded_from" not in result.meta


# ---------------------------------------------------------------------------
# metrics plumbing
# ---------------------------------------------------------------------------


def test_net_counters_reach_the_metrics_endpoint(rng):
    """The net.* labelled counters land on the ambient aggregator, so
    a ``/metrics`` scrape sees them per host."""
    img = _image(rng, 96, 48)
    agg = RuntimeAggregator()
    plan = FaultPlan([
        FaultSpec("partition", phase="scan", rank=0, delay_seconds=0.5),
    ])
    with use_runtime_aggregator(agg):
        net_shard_label(
            img, virtual_hosts=2, n_shards=4, tile_shape=TILE,
            fault_plan=plan, net_config=NET_FAST, resilience=FAST,
            lease_duration=0.15, heartbeat_interval=0.05,
        )
    assert agg.counter_value("net.partitions") == 1
    text = agg.render_prometheus()
    assert "net_partitions_total" in text


def test_resume_crosses_runtimes(rng, tmp_path):
    """A net-mode scratch is the sharded scratch: shard_label can
    resume it (same fingerprint) after the cluster run is interrupted —
    here simulated by sharing the checkpoint dir across modes."""
    img = _image(rng)
    oracle = np.asarray(tiled_label(img, tile_shape=TILE).labels)
    result = net_shard_label(
        img, virtual_hosts=2, n_shards=3, tile_shape=TILE,
        checkpoint_dir=tmp_path / "ck",
        net_config=NET_FAST, resilience=FAST,
    )
    assert np.array_equal(np.asarray(result.labels), oracle)
    # the scratch is gone (success) — a fresh local run in the same
    # checkpoint dir must be clean, proving the fingerprints agree
    again = shard_label(
        img, n_shards=3, tile_shape=TILE,
        checkpoint_dir=tmp_path / "ck", resilience=FAST,
    )
    assert np.array_equal(np.asarray(again.labels), oracle)
