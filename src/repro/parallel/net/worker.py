"""The shard worker host: a framed-RPC server executing shard tasks.

One :class:`WorkerServer` is one **host** of a multi-host sharded run
(``repro-shard-worker`` on a real machine, a forked loopback process
for CI "virtual hosts"). It is deliberately *stateless between
requests*: every ``exec`` message carries the full job context (scratch
path, image path, shard geometry), the worker rebuilds the context,
runs the task through the same :func:`repro.parallel.sharded`
machinery a local rank uses, and writes the same durable **done
marker** into the shared scratch tree. Statelessness is what makes the
failure story compose:

* a worker that comes back after a partition needs no session
  re-establishment — the next ``exec`` is self-contained;
* a task re-sent to a second host after the first's lease expired is
  simply re-executed (idempotent by construction: atomic writes of
  pure-function outputs), and if the first host's result *did* land,
  the done marker short-circuits the re-execution (``cached`` reply) —
  the partition-heal dedup of docs/SHARDED.md;
* duplicate/retried *frames* are absorbed one layer down by the
  :class:`~.framing.ReplayCache`.

Requires the scratch directory (and the image file) to be reachable at
the same path on every host — a shared filesystem, or loopback.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import socket
import sys
import threading

import numpy as np

from ...errors import FrameCorruptError, FrameTruncatedError
from ..sharded import ShardPlan, _execute_task, _mark_done, _phase_dir
from .framing import ReplayCache, dumps_payload, encode_frame, loads_payload, read_frame

__all__ = ["WorkerServer", "ctx_from_wire", "main"]

#: how long an orphan-watch tick sleeps (seconds).
_ORPHAN_TICK = 0.5


def ctx_from_wire(wire: dict) -> dict:
    """Rebuild the task-execution context from its wire form."""
    plan = ShardPlan(
        int(wire["rows"]),
        int(wire["cols"]),
        tuple(wire["tile_shape"]),
        tuple(tuple(band) for band in wire["bands"]),
    )
    return {
        "scratch": wire["scratch"],
        "image": np.load(wire["image_path"], mmap_mode="r"),
        "plan": plan,
        "connectivity": int(wire["connectivity"]),
        "checkpoint_every": int(wire["checkpoint_every"]),
        "use_checkpoint": bool(wire["use_checkpoint"]),
        "fingerprint": wire["fingerprint"],
    }


class WorkerServer:
    """Framed request/reply server for one worker host.

    Thread-per-connection over a plain TCP listener; concurrent
    connections are expected (the coordinator keeps a fast liveness
    channel open next to the slow work channel, so a minutes-long shard
    scan never blocks a heartbeat).
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, replay_capacity: int = 512
    ) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.host, self.port = self._listener.getsockname()[:2]
        self._cache = ReplayCache(replay_capacity)
        self._stop = threading.Event()
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        #: tasks executed / answered from a durable done marker.
        self.executed = 0
        self.deduped_tasks = 0

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server is shut down (or *timeout* passes)."""
        return self._stop.wait(timeout)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        accept = threading.Thread(
            target=self._accept_loop, name="net-worker-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)

    def serve_forever(self) -> None:
        self.start()
        self._stop.wait()

    def shutdown(self) -> None:
        """Stop accepting, cut every live connection, wake the server."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - racing the handler
                pass

    # -- the wire loop ----------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conn_lock:
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve_conn,
                args=(conn,),
                name="net-worker-conn",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                try:
                    seq, payload = read_frame(conn)
                except (FrameTruncatedError, OSError):
                    return  # peer gone / connection cut
                except FrameCorruptError as exc:
                    if exc.fatal:
                        return  # stream desynchronised: drop the conn
                    # payload CRC mismatch: NACK this frame, keep the
                    # stream — the sender resends the intact bytes.
                    self._reply(
                        conn, exc.seq or 0, {"ok": False, "corrupt": True}
                    )
                    continue
                try:
                    msg = loads_payload(payload)
                except ValueError:
                    self._reply(conn, seq, {"ok": False, "corrupt": True})
                    continue
                peer = str(msg.get("peer", "?"))
                state, val = self._cache.start(peer, seq)
                if state == "cached":
                    reply = {**val, "deduped": True}
                elif state == "wait":
                    # the same frame is executing right now (a retry
                    # raced a slow handler): wait, then serve its reply.
                    val.wait()
                    cached = self._cache.get(peer, seq)
                    reply = (
                        {**cached, "deduped": True}
                        if cached is not None
                        else {"ok": False, "error": "in-flight race lost"}
                    )
                else:
                    reply = self._handle(msg)
                    self._cache.done(peer, seq, reply)
                self._reply(conn, seq, reply)
                if msg.get("t") == "shutdown":
                    self._stop.set()
                    self.shutdown()
                    return
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _reply(self, conn: socket.socket, seq: int, reply: dict) -> None:
        try:
            conn.sendall(encode_frame(seq, dumps_payload(reply)))
        except OSError:  # pragma: no cover - peer vanished mid-reply
            pass

    # -- message handlers -------------------------------------------------

    def _handle(self, msg: dict) -> dict:
        kind = msg.get("t")
        if kind == "ping":
            return {"ok": True, "t": "pong", "pid": os.getpid()}
        if kind == "shutdown":
            return {"ok": True, "t": "bye"}
        if kind == "exec":
            return self._handle_exec(msg)
        return {"ok": False, "error": f"unknown message type {kind!r}"}

    def _handle_exec(self, msg: dict) -> dict:
        try:
            phase = msg["phase"]
            task = msg["task"]
            ctx = ctx_from_wire(msg["ctx"])
            pdir = _phase_dir(pathlib.Path(ctx["scratch"]), phase)
            done = pdir / "done" / task
            if done.exists():
                # another host (or our pre-partition self) already
                # finished this task: the durable marker wins — this is
                # the dedup that makes a healed partition harmless.
                try:
                    stats = json.loads(done.read_text())
                except (OSError, ValueError):
                    stats = {}
                self.deduped_tasks += 1
                return {"ok": True, "stats": stats, "cached": True}
            payload = None
            if msg.get("node") is not None:
                payload = {task: msg["node"]}
            stats = _execute_task(ctx, phase, task, payload)
            _mark_done(pdir, task, stats)
            self.executed += 1
            return {"ok": True, "stats": stats}
        except Exception as exc:  # noqa: BLE001 - typed on the wire
            return {
                "ok": False,
                "error": str(exc),
                "etype": type(exc).__name__,
            }


def _watch_orphan(parent_pid: int, server: WorkerServer) -> None:
    """Virtual hosts self-terminate when their coordinator dies, so a
    SIGKILLed coordinator leaks neither processes nor sockets."""
    while True:
        if os.getppid() != parent_pid:
            server.shutdown()
            os._exit(3)
        if server._stop.wait(_ORPHAN_TICK):
            return


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    port_file: str | os.PathLike | None = None,
    parent_pid: int | None = None,
) -> WorkerServer:
    """Bind, start serving, optionally publish the bound port and watch
    for coordinator death. Returns the running server."""
    server = WorkerServer(host, port)
    server.start()
    if port_file is not None:
        path = pathlib.Path(port_file)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        tmp.write_text(f"{server.host}:{server.port}")
        os.replace(tmp, path)
    if parent_pid is not None:
        threading.Thread(
            target=_watch_orphan,
            args=(parent_pid, server),
            name="net-worker-orphan-watch",
            daemon=True,
        ).start()
    return server


def main(argv: list[str] | None = None) -> int:
    """``repro-shard-worker`` — run one worker host until interrupted.

    The scratch/image paths arrive with each task, so the only thing to
    configure is where to listen::

        repro-shard-worker --listen 0.0.0.0:7071
    """
    parser = argparse.ArgumentParser(
        prog="repro-shard-worker",
        description="Shard worker host for multi-host repro-label "
        "--hosts runs (see docs/SHARDED.md). Requires the run's "
        "checkpoint/scratch directory on a shared filesystem.",
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address (default 127.0.0.1:0 = loopback, ephemeral)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write the bound host:port here once listening (used by "
        "coordinators spawning loopback virtual hosts)",
    )
    args = parser.parse_args(argv)
    host, _, port = args.listen.rpartition(":")
    try:
        server = serve(host or "127.0.0.1", int(port), port_file=args.port_file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot listen on {args.listen!r}: {exc}", file=sys.stderr)
        return 2
    print(f"repro-shard-worker listening on {server.endpoint}", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
