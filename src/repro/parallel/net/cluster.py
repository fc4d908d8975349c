"""The worker-host pool: ``shard_label``'s pipeline across hosts.

:func:`net_shard_label` is the second entry point of the one sharded
job runner in :mod:`repro.parallel.sharded`; what it adds is a worker
pool, :class:`NetPool`, whose workers are **hosts** —
``repro-shard-worker`` daemons reached over the :mod:`.transport`
channels, or loopback "virtual hosts" forked by :class:`VirtualHostPool`
so CI can exercise every multi-host failure mode on one machine. The
pool runs under the same phase supervisor as the local ranks
(watchdog, quorum, raise-or-degrade, done-marker fold); what differs
is how it moves work:

* **bulk data stays on the shared filesystem** — the image memmap, the
  provisional-label memmap, forests, seam pairs, checkpoints and the
  durable done markers all live in the same scratch tree local ranks
  use; the sockets carry *control* only (task dispatch, replies,
  liveness), so the wire cost is independent of the raster size;
* **dispatch is an in-memory task board** (:class:`_TaskBoard`) drained
  by one dispatcher thread per host, instead of claim files;
* **liveness is lease-based** (:class:`~.membership.LeaseTable` on the
  coordinator's monotonic clock): a host that stops answering pings
  loses its lease and its claimed tasks migrate to the survivors; when
  the partition heals it rejoins with a bumped incarnation, its stale
  work deduplicated by the done markers.

The hosts are the top rung of the degradation ladder: quorum loss hands
the job to local ranks, then inline execution, each drop recorded as a
reasoned ``meta["degraded_from"]``. Byte-identity with serial
``tiled_label`` is inherited: hosts execute exactly the tasks local
ranks would, against the same scratch tree.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import tempfile
import threading
import time

import numpy as np

from ...ccl.labeling import CCLResult
from ...errors import ClusterQuorumError, NetError, PeerUnreachableError
from ...faults import DEFAULT_RESILIENCE, NULL_PLAN, record_injection
from ...obs import NULL_RECORDER
from ..backends.executor import executor_context
from ..sharded import (
    _count,
    _RankPool,
    _run_job,
    _save_npy_atomic,
    _supervise_phase,
    _undone,
)
from ..supervisor import kill_workers
from .membership import LeaseTable
from .transport import NetConfig, PartitionLink, PeerClient
from .worker import serve

__all__ = ["parse_hosts", "VirtualHostPool", "NetPool", "net_shard_label"]

#: idle dispatcher / coordinator poll tick (seconds).
_NET_POLL = 0.02

#: default lease duration (seconds) — a partitioned host is declared
#: dead and its work migrated after this much ping silence.
DEFAULT_LEASE_DURATION = 2.0


def parse_hosts(spec) -> list[tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or an iterable of ``host:port``
    strings / ``(host, port)`` pairs) into address tuples.

    >>> parse_hosts("127.0.0.1:7071, 10.0.0.2:7071")
    [('127.0.0.1', 7071), ('10.0.0.2', 7071)]
    """
    if isinstance(spec, str):
        parts: list = [p.strip() for p in spec.split(",") if p.strip()]
    else:
        parts = list(spec)
    addrs: list[tuple[str, int]] = []
    for part in parts:
        if isinstance(part, (tuple, list)) and len(part) == 2:
            host, port = part
        else:
            host, _, port = str(part).strip().rpartition(":")
        if not host or not str(port).strip():
            raise ValueError(
                f"host entry {part!r} is not host:port (in {spec!r})"
            )
        try:
            addrs.append((str(host), int(port)))
        except ValueError:
            raise ValueError(
                f"host entry {part!r} has a non-numeric port"
            ) from None
    if not addrs:
        raise ValueError(f"no hosts in {spec!r}")
    return addrs


# ---------------------------------------------------------------------------
# loopback virtual hosts
# ---------------------------------------------------------------------------


def _virtual_host_main(port_file: str, parent_pid: int) -> None:
    server = serve(
        "127.0.0.1", 0, port_file=port_file, parent_pid=parent_pid
    )
    server.wait()


class VirtualHostPool:
    """N loopback worker hosts as forked local processes.

    The CI stand-in for real machines: each "host" is a
    :class:`~.worker.WorkerServer` in its own process on an ephemeral
    loopback port, sharing the coordinator's filesystem — so the full
    multi-host protocol (framing, leases, partitions, migration) runs
    unchanged, just with zero-latency links. Hosts watch the
    coordinator's pid and self-terminate if orphaned.
    """

    def __init__(self, n: int, spawn_timeout: float = 10.0) -> None:
        if n < 1:
            raise ValueError(f"need at least 1 virtual host, got {n}")
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-vhost-")
        ctx = executor_context()
        parent = os.getpid()
        self.procs = []
        port_files = []
        for i in range(n):
            pf = pathlib.Path(self._tmp.name) / f"host-{i}.port"
            proc = ctx.Process(
                target=_virtual_host_main,
                args=(str(pf), parent),
                name=f"net-vhost-{i}",
                daemon=True,
            )
            proc.start()
            self.procs.append(proc)
            port_files.append(pf)
        self.addrs: list[tuple[str, int]] = []
        deadline = time.monotonic() + spawn_timeout
        try:
            for pf in port_files:
                while not pf.exists():
                    if time.monotonic() > deadline:
                        raise PeerUnreachableError(
                            f"virtual host never published {pf.name} "
                            f"within {spawn_timeout:.1f}s",
                            peer=pf.name,
                            attempts=0,
                        )
                    time.sleep(0.01)
                host, _, port = pf.read_text().rpartition(":")
                self.addrs.append((host, int(port)))
        except Exception:
            self.close()
            raise

    def close(self) -> None:
        kill_workers(self.procs)
        self._tmp.cleanup()

    def __enter__(self) -> "VirtualHostPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------------------
# the task board (coordinator-side work queue over the done markers)
# ---------------------------------------------------------------------------


class _TaskBoard:
    """Thread-safe claim/done/release tracking for one phase.

    The in-memory twin of the scratch tree's done-marker directory:
    markers on disk are the *durable* record (they survive coordinator
    restarts and deduplicate migrated work), the board is the live
    dispatch state shared by the per-host dispatcher threads.
    """

    def __init__(self, pdir: pathlib.Path, tasks: list[str]) -> None:
        self._order = list(tasks)
        undone = set(_undone(pdir, tasks))
        self._pending = set(undone)
        self._claims: dict[str, int] = {}
        self._done = set(tasks) - undone
        self._failures: dict[str, int] = {}
        self._lock = threading.Lock()

    def claim(self, host: int) -> str | None:
        with self._lock:
            for task in self._order:
                if task in self._pending:
                    self._pending.discard(task)
                    self._claims[task] = host
                    return task
        return None

    def done(self, task: str) -> None:
        with self._lock:
            self._claims.pop(task, None)
            self._pending.discard(task)
            self._done.add(task)

    def release(self, task: str, host: int) -> None:
        with self._lock:
            if self._claims.get(task) == host and task not in self._done:
                del self._claims[task]
                self._pending.add(task)

    def release_host(self, host: int) -> int:
        """Migrate every task *host* holds back to pending."""
        with self._lock:
            mine = [t for t, h in self._claims.items() if h == host]
            for task in mine:
                del self._claims[task]
                self._pending.add(task)
            return len(mine)

    def fail(self, task: str) -> int:
        with self._lock:
            self._failures[task] = self._failures.get(task, 0) + 1
            return self._failures[task]

    def finished(self) -> bool:
        with self._lock:
            return not self._pending and not self._claims


# ---------------------------------------------------------------------------
# the host pool
# ---------------------------------------------------------------------------


class _Host:
    __slots__ = ("index", "addr", "name", "link", "ping", "work")

    def __init__(self, index: int, addr: tuple[str, int], run_id: str,
                 ping_config: NetConfig, work_config: NetConfig,
                 recorder, fault_plan) -> None:
        self.index = index
        self.addr = addr
        self.name = f"{addr[0]}:{addr[1]}"
        # one blackout switch covers both channels: a partition takes
        # out pings and work alike, exactly like a vanished route.
        self.link = PartitionLink()
        self.ping = PeerClient(
            addr, f"{run_id}:ping:{index}", ping_config,
            recorder=recorder, link=self.link,
        )
        self.work = PeerClient(
            addr, f"{run_id}:exec:{index}", work_config,
            recorder=recorder, fault_plan=fault_plan,
            fault_rank=index, link=self.link,
        )


class NetPool:
    """A set of worker hosts, their channels, leases and dispatchers.

    One pool spans the whole run; :meth:`run_phase` drives one shard
    phase across every host whose lease is alive, migrating work off
    hosts that go silent and welcoming back hosts that rejoin.
    """

    backend = "net-sharded"
    ranks: tuple[int, ...] = ()
    counters = (
        "net_tasks", "tasks_deduped", "task_errors", "lease_expired",
        "rejoined", "partitions", "claims_released",
    )

    def __init__(
        self,
        addrs,
        *,
        config: NetConfig | None = None,
        recorder=None,
        fault_plan=None,
        lease_duration: float = DEFAULT_LEASE_DURATION,
        heartbeat_interval: float | None = None,
        quorum: int | None = None,
    ) -> None:
        addrs = [(h, int(p)) for h, p in addrs]
        if not addrs:
            raise ValueError("NetPool needs at least one host")
        self.config = config if config is not None else NetConfig()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.fault_plan = fault_plan if fault_plan is not None else NULL_PLAN
        if lease_duration <= 0:
            raise ValueError(
                f"lease_duration must be > 0, got {lease_duration}"
            )
        self.lease_duration = float(lease_duration)
        self.heartbeat_interval = (
            float(heartbeat_interval)
            if heartbeat_interval is not None
            else max(0.05, self.lease_duration / 4.0)
        )
        self.quorum = (
            int(quorum) if quorum is not None
            else max(1, (len(addrs) + 1) // 2)
        )
        self.leases = LeaseTable(self.lease_duration)
        # liveness probes must resolve well inside one lease period, so
        # the ping channel gets its own sharp-deadline, no-retry config
        # (the call loop's retries would stretch one probe across the
        # whole lease and mask a dead host).
        ping_timeout = max(0.1, min(
            self.config.call_timeout, self.lease_duration / 2.0
        ))
        ping_config = NetConfig(
            connect_timeout=min(self.config.connect_timeout, ping_timeout),
            call_timeout=ping_timeout,
            exec_timeout=self.config.exec_timeout,
            max_retries=0,
        )
        run_id = f"{os.getpid():x}-{os.urandom(3).hex()}"
        self.hosts = [
            _Host(i, addr, run_id, ping_config, self.config,
                  self.recorder, self.fault_plan)
            for i, addr in enumerate(addrs)
        ]
        #: run-wide recovery tallies (mirrored into result meta).
        self.stats = {
            "net_tasks": 0,
            "tasks_deduped": 0,
            "task_errors": 0,
            "lease_expired": 0,
            "rejoined": 0,
            "partitions": 0,
        }
        self._stats_lock = threading.Lock()

    # -- membership -------------------------------------------------------

    def connect(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Probe every host once; returns (reachable, unreachable)."""
        dead: list[str] = []
        for host in self.hosts:
            self.leases.add(host.name)
            try:
                host.ping.call({"t": "ping"})
                self.leases.renew(host.name)
            except (NetError, OSError):
                self.leases.expire(host.name)
                dead.append(host.name)
        return self.leases.alive_members(), tuple(dead)

    def close(self) -> None:
        for host in self.hosts:
            host.ping.close()
            host.work.close()

    # -- one phase, under the shared phase supervisor ---------------------

    def run_phase(
        self,
        phase: str,
        tasks: list[str],
        payload: dict | None,
        ctx_wire: dict,
        *,
        phase_timeout: float,
        degrade: bool,
    ) -> dict:
        """Drive one phase's tasks across the alive hosts.

        Runs under the shared phase supervisor
        (:func:`repro.parallel.sharded._supervise_phase`). On quorum
        loss, a task every host rejects, or watchdog expiry with
        *degrade* allowed, the returned stats carry a reasoned
        ``degraded`` record and the caller finishes the remaining tasks
        down the ladder. Task completion truth is the done markers, so
        a later local continuation (or a healed host's stale reply) can
        never double-run work. Once this returns, the phase's monitor
        and dispatcher threads have stopped counting: its stats are
        final.
        """
        return _supervise_phase(
            self, ctx_wire, phase, tasks, payload,
            timeout=phase_timeout, degrade=degrade,
        )

    def _begin(self, ctx_wire, pdir, phase, tasks, payload, agg) -> None:
        stop = self._stop = threading.Event()
        thread_lock = self._thread_lock = threading.Lock()
        threads: list[threading.Thread] = []
        self._threads, self._agg, self._phase = threads, agg, phase
        poison = self._poison = []
        board = self._board = _TaskBoard(pdir, tasks)
        dispatchers: dict[int, threading.Thread] = {}

        def tally(key: str, n: int = 1) -> None:
            # after _end sets `stop` the phase is accounted: a dispatcher
            # still blocked in a host call by then can no longer count.
            with self._stats_lock:
                if not stop.is_set():
                    agg[key] += n
                    if key in self.stats:
                        self.stats[key] += n

        def spawn(target, name: str, *args) -> threading.Thread | None:
            # callers hold thread_lock: once _end has set `stop` and
            # listed the threads to join, no new one can be born.
            if stop.is_set():
                return None
            thread = threading.Thread(
                target=target, args=args, name=name, daemon=True
            )
            threads.append(thread)
            thread.start()
            return thread

        # partition directives are arbitrated here, at the phase
        # boundary: the fault names the shard phase it blacks out and
        # `delay_seconds` is the outage duration before the link heals.
        if self.fault_plan.enabled:
            for host in self.hosts:
                spec = self.fault_plan.take(
                    "partition", phase, rank=host.index
                )
                if spec is not None:
                    record_injection(self.recorder, spec)
                    host.link.cut(spec.delay_seconds)
                    tally("partitions")
                    _count(self.recorder, "net.partitions",
                           labels={"host": host.name})

        def dispatch(host: _Host) -> None:
            while not stop.is_set():
                if not self.leases.is_alive(host.name):
                    return
                task = board.claim(host.index)
                if task is None:
                    if board.finished():
                        return
                    time.sleep(_NET_POLL)
                    continue
                msg = {
                    "t": "exec",
                    "ctx": ctx_wire,
                    "phase": phase,
                    "task": task,
                    "node": (payload or {}).get(task),
                }
                try:
                    reply = host.work.call(
                        msg, timeout=self.config.exec_timeout
                    )
                except (NetError, OSError):
                    board.release(task, host.index)
                    time.sleep(_NET_POLL)
                    continue
                if reply.get("ok"):
                    if reply.get("cached"):
                        # the task was already done-marked (a migrated
                        # duplicate, or pre-partition work that landed):
                        # idempotency made the re-send a no-op.
                        tally("tasks_deduped")
                        _count(self.recorder, "net.tasks_deduped",
                               labels={"host": host.name})
                    else:
                        tally("net_tasks")
                    board.done(task)
                else:
                    tally("task_errors")
                    board.release(task, host.index)
                    if board.fail(task) > self.config.max_retries:
                        # every host rejects this task: a deterministic
                        # task error, not a transport problem. Hand it
                        # down the ladder where the real exception can
                        # surface in-process.
                        poison.append(
                            f"{task}: {reply.get('etype', 'Error')}: "
                            f"{reply.get('error', '?')}"
                        )
                        return
                    time.sleep(_NET_POLL)

        def start_dispatcher(host: _Host) -> None:
            with thread_lock:
                existing = dispatchers.get(host.index)
                if existing is None or not existing.is_alive():
                    dispatchers[host.index] = spawn(
                        dispatch, f"net-dispatch-{phase}-{host.index}", host
                    )

        def monitor() -> None:
            while not stop.is_set():
                for host in self.hosts:
                    if stop.is_set():
                        return
                    try:
                        host.ping.call({"t": "ping"})
                    except (NetError, OSError):
                        continue
                    if self.leases.renew(host.name):
                        # expired -> renewed: the partition healed. New
                        # incarnation, fresh dispatcher; its first
                        # re-claims dedup against the done markers.
                        tally("rejoined")
                        _count(self.recorder, "net.rejoined",
                               labels={"host": host.name})
                        start_dispatcher(host)
                for name in self.leases.sweep():
                    host = next(h for h in self.hosts if h.name == name)
                    released = board.release_host(host.index)
                    tally("lease_expired")
                    tally("claims_released", released)
                    _count(self.recorder, "net.lease_expired",
                           labels={"host": host.name})
                    _count(self.recorder, "shard.claims_released", released,
                           labels={"rank": f"host{host.index}"})
                stop.wait(self.heartbeat_interval)

        with thread_lock:
            spawn(monitor, f"net-monitor-{phase}")
        for host in self.hosts:
            if self.leases.is_alive(host.name):
                start_dispatcher(host)

    def _finished(self) -> bool:
        return self._board.finished()

    def _step(self, deadline: float) -> Exception | None:
        if self._poison:
            return NetError(
                f"net phase {self._phase!r}: task failed on every host "
                f"({self._poison[0]})"
            )
        alive = self.leases.alive_members()
        if len(alive) < self.quorum:
            unreachable = tuple(
                h.name for h in self.hosts if h.name not in alive
            )
            return ClusterQuorumError(
                f"net phase {self._phase!r} lost quorum: "
                f"{len(alive)} of {len(self.hosts)} host(s) reachable "
                f"(need {self.quorum}); unreachable: {list(unreachable)}",
                reachable=alive,
                unreachable=unreachable,
                quorum=self.quorum,
            )
        self._stop.wait(_NET_POLL)
        return None

    def _end(self) -> None:
        with self._stats_lock:
            self._stop.set()
        with self._thread_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=1.0)
        if self._agg["degraded"]:
            _count(self.recorder, "net.degraded")


# ---------------------------------------------------------------------------
# the multi-host label entry point
# ---------------------------------------------------------------------------


def _wire_image_path(image, scratch: pathlib.Path) -> str:
    """A filesystem path every host can ``np.load(mmap_mode='r')``.

    A ``.npy``-backed memmap is referenced in place; anything else is
    copied once into the scratch tree (which must be shared anyway).
    """
    filename = getattr(image, "filename", None)
    if filename:
        try:
            np.load(filename, mmap_mode="r")
            return str(filename)
        except (OSError, ValueError):
            pass  # raw (non-.npy) memmap: fall through to the copy
    path = scratch / "input.npy"
    if not path.exists():
        _save_npy_atomic(path, np.asarray(image))
    return str(path)


def net_shard_label(
    image,
    hosts=None,
    *,
    virtual_hosts: int | None = None,
    n_shards: int = 4,
    tile_shape: tuple[int, int] = (256, 256),
    connectivity: int = 8,
    checkpoint_dir: str | os.PathLike | None = None,
    checkpoint_every: int = 8,
    resume: bool = False,
    out: str | pathlib.Path | None = None,
    recorder=None,
    resilience=None,
    fault_plan=None,
    net_config: NetConfig | None = None,
    lease_duration: float = DEFAULT_LEASE_DURATION,
    heartbeat_interval: float | None = None,
    quorum_hosts: int | None = None,
    degrade: bool = True,
) -> CCLResult:
    """Label *image* with shard tasks spread across worker hosts.

    Output is byte-identical to
    ``tiled_label(image, tile_shape, connectivity)`` — under any number
    of hosts, partitions that heal, hosts that die, and every network
    fault of the chaos matrix; see docs/SHARDED.md ("Multi-host").

    Parameters
    ----------
    hosts:
        ``"host:port,host:port"`` (or a list) of running
        ``repro-shard-worker`` daemons sharing this coordinator's
        filesystem. Mutually exclusive with *virtual_hosts*.
    virtual_hosts:
        Spawn this many loopback worker processes instead — the CI
        harness for the full multi-host protocol on one machine.
    quorum_hosts:
        Minimum reachable hosts to keep the cluster rung running
        (default ``max(1, (n_hosts + 1) // 2)`` — an unreachable
        *majority* degrades). Below it the run steps down to the
        single-host elastic pool, then inline, each drop recorded as a
        reasoned ``meta["degraded_from"]`` — unless ``degrade=False``,
        in which case :class:`~repro.errors.ClusterQuorumError`
        propagates.
    lease_duration:
        Ping silence (seconds, coordinator's monotonic clock) after
        which a host is declared dead and its claimed tasks migrate.
    net_config:
        Transport knobs (:class:`~.transport.NetConfig`): timeouts
        (argument > ``REPRO_NET_*`` env > default), retry budget,
        backoff shape.

    Everything else (sharding, checkpoints, ``resume``, ``out``) means
    exactly what it means for :func:`repro.parallel.sharded.shard_label`.
    """
    if (hosts is None) == (virtual_hosts is None):
        raise ValueError(
            "exactly one of hosts= or virtual_hosts= must be given"
        )
    resilience = resilience if resilience is not None else DEFAULT_RESILIENCE
    fault_plan = fault_plan if fault_plan is not None else NULL_PLAN

    @contextlib.contextmanager
    def hosts_then_ranks(ctx: dict, rec):
        with contextlib.ExitStack() as stack:
            if virtual_hosts is not None:
                addrs = stack.enter_context(
                    VirtualHostPool(int(virtual_hosts))
                ).addrs
            else:
                addrs = parse_hosts(hosts)
            pool = NetPool(
                addrs,
                config=net_config,
                recorder=rec,
                fault_plan=fault_plan,
                lease_duration=lease_duration,
                heartbeat_interval=heartbeat_interval,
                quorum=quorum_hosts,
            )
            stack.callback(pool.close)
            # too few reachable hosts fails the first phase's quorum
            # check, which steps the job down to the local ranks.
            pool.connect()
            plan = ctx["plan"]
            wire = {
                key: ctx[key]
                for key in ("scratch", "connectivity", "checkpoint_every",
                            "use_checkpoint", "fingerprint")
            }
            wire.update(
                image_path=_wire_image_path(
                    ctx["image"], pathlib.Path(ctx["scratch"])
                ),
                rows=plan.rows,
                cols=plan.cols,
                tile_shape=list(plan.tile_shape),
                bands=[list(band) for band in plan.bands],
            )
            local = _RankPool(
                max(1, min(plan.n_shards, 8)),
                resilience=resilience, fault_plan=fault_plan, recorder=rec,
                quorum=1, heartbeat_timeout=None,
            )
            if rec.enabled:
                rec.gauge("net.n_hosts", len(addrs))
            yield [(pool, wire), (local, ctx)], {
                "n_hosts": len(addrs),
                "hosts": [f"{h}:{p}" for h, p in addrs],
                "virtual_hosts": virtual_hosts is not None,
                "quorum_hosts": pool.quorum,
                "net": pool.stats,
            }

    return _run_job(
        image, algorithm="net-sharded", open_pools=hosts_then_ranks,
        tile_shape=tile_shape, connectivity=connectivity, n_shards=n_shards,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
        resume=resume, out=out, recorder=recorder, resilience=resilience,
        degrade=degrade,
    )
