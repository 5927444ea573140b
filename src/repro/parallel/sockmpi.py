"""SockMPI — the TCP SimMPI backend: rank worlds that can span hosts.

Star topology: a *coordinator* (the launcher process) binds a TCP port,
accepts one connection per rank, hands out rank assignments, and then
routes every message frame between workers — each worker holds exactly
one socket, to the coordinator.  Workers are either spawned locally
(loopback, the default) or started anywhere with::

    repro-paper worker --connect host:port

Every message travels as one length-prefixed frame
(:mod:`repro.parallel.frames`): magic, kind, a pickled ``(chan, source,
dest, tag, dtype, shape)`` header and the raw payload bytes.  The
router forwards ``head + payload`` verbatim — frames are validated
structurally on every read (truncation, bad magic, shape/byte-count
disagreement all raise
:class:`~repro.checkers.sanitize.ProtocolViolation`), but array
payloads are only materialised at the destination rank.

The communicator, the matching loop and the collective rendezvous
(gather-to-root + rebroadcast on the ``"\\x00coll"`` channel) are the
shared ones (:mod:`repro.parallel.simmpi`,
:mod:`repro.parallel.transport`), so reductions associate in rank
order exactly as on the thread and process backends and the parallel
solver stays bitwise-equal to the serial one.

Control protocol (``"\\x00ctl"`` channel, coordinator ``dest = -3``):
``HELLO`` (worker → coordinator, with protocol version), ``ASSIGN``
(coordinator → worker: rank, world size, timeout, pickled rank
function), ``RESULT`` (worker → coordinator: return value or packed
exception), ``STUCK`` (worker → coordinator: the op a timed-out rank is
blocked in), ``ABORT`` (coordinator → workers: the world is going down,
with the reason).  A worker that disconnects mid-run aborts the world:
every surviving rank raises :class:`ProtocolViolation` naming the dead
rank instead of hanging until the timeout guard.

Environment
-----------
``REPRO_SOCKMPI_BIND``
    Coordinator bind address (default ``127.0.0.1:0`` — loopback,
    ephemeral port).  Bind to a private interface for multi-host runs;
    the frame protocol authenticates nothing (see
    :mod:`repro.parallel.frames`).
``REPRO_SOCKMPI_SPAWN``
    Set to ``0`` to *not* spawn local workers: the coordinator
    announces its address and waits for external ``repro-paper worker``
    processes instead.
``REPRO_SIMMPI_TIMEOUT``
    Blocking-operation guard, shared with the other backends.
"""

from __future__ import annotations

import contextlib
import os
import queue as _queue
import socket as _socket
import threading
import time as _time
from collections.abc import Callable
from typing import Any

from repro.checkers.sanitize import ProtocolViolation
from repro.parallel.frames import Frame, encode_frame, read_frame
from repro.parallel.simmpi import DeadlockTimeout, resolve_timeout
from repro.parallel.transport import (
    SPAWN,
    RankRuntime,
    WorkerError,
    collect,
    pack_outcome,
    reap,
    serve_rank,
    unpack_outcome,
)

__all__ = ["SockMPI", "worker_join"]

#: Control traffic (handshake, results, aborts) rides its own channel.
CTL_CHANNEL = "\x00ctl"
#: Frame ``dest`` addressing the coordinator itself (not a rank).
COORD_DEST = -3
#: Bumped on any incompatible wire-format change; checked at HELLO.
PROTOCOL_VERSION = 1

# ---- launcher registration (repro.parallel.backends) ------------------------------

LAUNCHER_NAME = "socket"

#: Registry capabilities record (see ``backends.LauncherCapabilities``).
LAUNCHER_CAPABILITIES = dict(picklable_fn=True, cross_host=True, self_launch=True)


def launcher_detect() -> tuple[bool, str]:
    """Availability probe: can we bind a loopback TCP socket?"""
    try:
        probe = _socket.socket()
        probe.bind(("127.0.0.1", 0))
        probe.listen(1)
        probe.close()
    except OSError as exc:
        return False, f"cannot bind a loopback TCP socket: {exc}"
    return True, (
        "TCP frame transport via a coordinator "
        "(spawns loopback workers; cross-host with `repro-paper worker`)"
    )


def open_launcher(**opts):
    """Registry hook: a configured :class:`SockMPI` launcher."""
    return SockMPI(**opts)


def _parse_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"address must be host:port, got {address!r}")
    return host or "127.0.0.1", int(port)


def _recv_exactly_fn(sock: _socket.socket, who: str):
    """``recv_exactly(n)`` over a socket, with the failure modes the
    frame reader expects: truncation/closure raise
    :class:`ProtocolViolation`, the socket timeout raises
    :class:`DeadlockTimeout`."""

    def recv_exactly(n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = sock.recv(n - len(buf))
            except TimeoutError as exc:
                raise DeadlockTimeout(
                    f"{who}: timed out waiting for frame bytes "
                    f"({len(buf)}/{n} B read)"
                ) from exc
            except OSError as exc:
                raise ProtocolViolation(
                    f"{who}: connection error mid-frame: {exc}"
                ) from exc
            if not chunk:
                raise ProtocolViolation(
                    f"{who}: connection closed after {len(buf)}/{n} B of a frame"
                )
            buf += chunk
        return bytes(buf)

    return recv_exactly


def _send_frame(sock: _socket.socket, lock: threading.Lock, chan: str,
                source: int, dest: int, tag: int, payload: Any) -> None:
    """Encode and write one frame."""
    head, body = encode_frame(chan, source, dest, tag, payload)
    with lock:
        sock.sendall(head)
        sock.sendall(body)


# ---- worker side -----------------------------------------------------------------


class _SockRuntime(RankRuntime):
    """One rank's view of the star transport: a single coordinator socket.

    Frames read off the socket that match nothing yet are parked in
    ``pending`` by the shared matching loop until a receive asks for
    them; a timed-out rank sends its STUCK notice to the coordinator.
    """

    def __init__(self, sock: _socket.socket, world_rank: int, nprocs: int,
                 timeout: float):
        super().__init__(world_rank, nprocs, timeout)
        self.sock = sock
        self._wlock = threading.Lock()
        self._read = _recv_exactly_fn(sock, f"rank {world_rank}")

    def send(self, dest_world: int, chan: str, src_rank: int, tag: int,
             payload: Any, move: bool) -> None:
        """Write one frame: the coordinator buffers, so ``move`` needs
        no special handling."""
        try:
            _send_frame(self.sock, self._wlock, chan, src_rank, dest_world,
                        tag, payload)
        except OSError as exc:
            raise ProtocolViolation(
                f"rank {self.world_rank}: coordinator connection lost "
                f"during send: {exc}"
            ) from exc

    def _fetch(self, remaining: float) -> Frame | None:
        self.sock.settimeout(remaining)
        try:
            frame = read_frame(self._read)
        except DeadlockTimeout:
            return None
        if frame.chan == CTL_CHANNEL:
            msg = frame.materialise()
            if isinstance(msg, tuple) and msg and msg[0] == "ABORT":
                raise ProtocolViolation(f"world aborted: {msg[1]}")
            raise ProtocolViolation(
                f"rank {self.world_rank}: unexpected control message "
                f"{msg!r} mid-run"
            )
        return frame

    def _materialise(self, frame: Frame) -> Any:
        return frame.materialise()

    def _post_stuck(self, op: dict | None) -> None:
        self.send_ctl(("STUCK", self.world_rank, op))

    def send_ctl(self, payload: Any) -> None:
        _send_frame(self.sock, self._wlock, CTL_CHANNEL, self.world_rank,
                    COORD_DEST, 0, payload)

    def close(self) -> None:
        super().close()
        with contextlib.suppress(OSError):
            self.sock.close()


def worker_join(address: str, *, timeout: float | None = None) -> Any:
    """Connect to a coordinator at ``host:port`` and serve one rank.

    This is the whole worker: handshake, receive the rank assignment
    (with the pickled rank function), run it over a
    :class:`~repro.parallel.simmpi.Communicator`, report the result.
    ``repro-paper worker --connect`` is a thin wrapper; tests call it in
    threads for an in-process loopback world.  Returns the rank
    function's value (and re-raises its exception after reporting it to
    the coordinator).
    """
    timeout = resolve_timeout(timeout)
    host, port = _parse_address(address)
    sock = _socket.create_connection((host, port), timeout=timeout)
    runtime: _SockRuntime | None = None
    try:
        sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        sock.settimeout(timeout)
        hello_lock = threading.Lock()
        _send_frame(sock, hello_lock, CTL_CHANNEL, -1, COORD_DEST, 0,
                    ("HELLO", PROTOCOL_VERSION))
        frame = read_frame(_recv_exactly_fn(sock, "worker"))
        if frame.chan != CTL_CHANNEL:
            raise ProtocolViolation(
                f"expected a control frame from the coordinator, got "
                f"channel {frame.chan!r}"
            )
        msg = frame.materialise()
        if msg[0] == "ABORT":
            raise ProtocolViolation(f"coordinator refused worker: {msg[1]}")
        if msg[0] != "ASSIGN":
            raise ProtocolViolation(f"expected ASSIGN, got {msg[0]!r}")
        _, rank, nprocs, run_timeout, fn, fn_args, fn_kwargs = msg
        runtime = _SockRuntime(sock, rank, nprocs, run_timeout)
        return serve_rank(
            runtime, fn, fn_args, fn_kwargs,
            lambda status, outcome: runtime.send_ctl(
                ("RESULT", rank, status, pack_outcome(status, outcome))),
        )
    finally:
        if runtime is not None:
            runtime.close()
        else:
            with contextlib.suppress(OSError):
                sock.close()


def _spawned_worker(address: str, timeout: float) -> None:
    """Spawn-mode process entry (module-level: spawn-picklable).
    Failures already travel to the coordinator via RESULT frames, so
    the process itself exits quietly."""
    with contextlib.suppress(BaseException):
        worker_join(address, timeout=timeout)


# ---- coordinator side ------------------------------------------------------------


class _Router:
    """The coordinator's frame switchboard: one reader thread per worker
    socket; frames addressed to a rank are forwarded verbatim
    (``head + payload``), frames addressed to :data:`COORD_DEST` are
    control traffic.  Any mid-run connection failure aborts the world —
    every surviving worker gets an ABORT frame naming the reason."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.socks: list[_socket.socket | None] = [None] * nprocs
        self.wlocks = [threading.Lock() for _ in range(nprocs)]
        self.finished = [False] * nprocs
        #: the launcher's record queue (``transport.collect``): results,
        #: STUCK notices and the abort
        self.records: _queue.Queue = _queue.Queue()
        self.abort_reason: str | None = None
        self._abort_lock = threading.Lock()

    def serve(self, rank: int) -> None:
        sock = self.socks[rank]
        read = _recv_exactly_fn(sock, f"coordinator<-rank {rank}")
        # no read deadline: a rank may compute for as long as it likes;
        # EOF or a socket error is what marks a dead worker
        sock.settimeout(None)
        try:
            while True:
                frame = read_frame(read)
                if frame.dest == COORD_DEST:
                    if frame.chan != CTL_CHANNEL:
                        raise ProtocolViolation(
                            f"rank {rank} sent a non-control frame to the "
                            f"coordinator (channel {frame.chan!r})"
                        )
                    msg = frame.materialise()
                    if msg[0] == "RESULT":
                        self.finished[rank] = True
                        self.records.put((msg[2], msg[1], msg[3]))
                        continue  # drain until the worker closes
                    if msg[0] == "STUCK":
                        self.records.put(("stuck", msg[1], msg[2]))
                        continue
                    raise ProtocolViolation(
                        f"unexpected control message {msg[0]!r} from rank {rank}"
                    )
                if not 0 <= frame.dest < self.nprocs:
                    raise ProtocolViolation(
                        f"rank {rank} addressed nonexistent rank {frame.dest}"
                    )
                dst = self.socks[frame.dest]
                with self.wlocks[frame.dest]:
                    dst.sendall(frame.head)
                    dst.sendall(frame.payload)
        except (ProtocolViolation, DeadlockTimeout, OSError) as exc:
            if self.finished[rank]:
                return  # clean EOF after RESULT
            self.abort(f"rank {rank} connection failed mid-run: {exc}")

    def abort(self, reason: str) -> None:
        with self._abort_lock:
            if self.abort_reason is not None:
                return
            self.abort_reason = reason
        head, body = encode_frame(CTL_CHANNEL, COORD_DEST, COORD_DEST, 0,
                                  ("ABORT", reason))
        for r, s in enumerate(self.socks):
            if s is None or self.finished[r]:
                continue
            with contextlib.suppress(OSError):
                with self.wlocks[r]:
                    s.sendall(head)
                    s.sendall(body)
        self.records.put(("abort", -1, reason))

    def close_all(self) -> None:
        for s in self.socks:
            if s is not None:
                with contextlib.suppress(OSError):
                    s.close()


class SockMPI:
    """Launcher: run an SPMD function over a TCP coordinator world.

    Mirrors :meth:`repro.parallel.threadmpi.SimMPI.run` — ``fn``, its
    arguments and its per-rank return values travel by pickle, so they
    must be picklable.  By default the launcher binds loopback and
    spawns its own local worker processes; with ``spawn=False`` (or
    ``REPRO_SOCKMPI_SPAWN=0``) it announces the bound address and waits
    for ``nprocs`` external ``repro-paper worker --connect`` processes,
    which may run on other hosts.
    """

    name = "socket"

    def __init__(self, bind: str | None = None, spawn: bool | None = None,
                 announce: Callable[[str], None] | None = None):
        self.bind = bind or os.environ.get("REPRO_SOCKMPI_BIND", "127.0.0.1:0")
        if spawn is None:
            spawn = os.environ.get("REPRO_SOCKMPI_SPAWN", "1").strip().lower() not in (
                "0", "false", "off", "no",
            )
        self.spawn = spawn
        self.announce = announce

    def run(self, nprocs: int, fn: Callable[..., Any], *args: Any,
            timeout: float = None, **kwargs: Any) -> list[Any]:
        timeout = resolve_timeout(timeout)
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        host, port = _parse_address(self.bind)
        listener = _socket.socket()
        listener.setsockopt(_socket.SOL_SOCKET, _socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(nprocs)
        bound = listener.getsockname()
        addr = f"{bound[0]}:{bound[1]}"
        router = _Router(nprocs)
        procs: list[Any] = []
        threads: list[threading.Thread] = []
        error: BaseException | None = None
        try:
            if self.spawn:
                procs = [
                    SPAWN.Process(
                        target=_spawned_worker, args=(addr, timeout),
                        name=f"sockmpi-rank-{r}", daemon=True,
                    )
                    for r in range(nprocs)
                ]
                for p in procs:
                    p.start()
            elif self.announce is not None:
                self.announce(addr)
            else:
                print(
                    f"sockmpi coordinator listening on {addr} — start "
                    f"{nprocs} worker(s) with: repro-paper worker "
                    f"--connect {addr}",
                    flush=True,
                )
            self._accept_workers(listener, router, nprocs, timeout, procs, addr)
            for rank, sock in enumerate(router.socks):
                head, body = encode_frame(
                    CTL_CHANNEL, COORD_DEST, COORD_DEST, 0,
                    ("ASSIGN", rank, nprocs, timeout, fn, args, kwargs),
                )
                sock.sendall(head)
                sock.sendall(body)
            threads = [
                threading.Thread(target=router.serve, args=(r,),
                                 name=f"sockmpi-router-{r}", daemon=True)
                for r in range(nprocs)
            ]
            for t in threads:
                t.start()
            results, error = collect(router.records, nprocs, unpack=unpack_outcome)
        except BaseException as exc:  # noqa: BLE001 - re-raised after teardown
            error = exc
        finally:
            if error is not None:
                router.abort(f"world shutting down: {error}")
            listener.close()
            for t in threads:
                t.join(timeout=5.0)
            router.close_all()
            reap(procs, error is not None, timeout)
        if error is not None:
            raise error
        return results

    @staticmethod
    def _accept_workers(listener, router: _Router, nprocs: int,
                        timeout: float, procs: list, addr: str) -> None:
        """Accept connections until ``nprocs`` workers said HELLO; a
        connection speaking garbage is refused and does not count."""
        startup = 2 * timeout + (60.0 * nprocs if procs else 0.0)
        deadline = _time.monotonic() + startup
        listener.settimeout(1.0)
        n = 0
        while n < nprocs:
            if _time.monotonic() > deadline:
                raise DeadlockTimeout(
                    f"only {n}/{nprocs} workers connected to {addr} "
                    f"within {startup:.0f}s"
                )
            dead = [r for r, p in enumerate(procs) if p.exitcode not in (None, 0)]
            if dead:
                raise WorkerError(
                    f"spawned worker process(es) {dead} died before "
                    f"connecting (exit codes {[procs[r].exitcode for r in dead]})"
                )
            try:
                sock, _peer = listener.accept()
            except TimeoutError:
                continue
            try:
                sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
                sock.settimeout(timeout)
                frame = read_frame(_recv_exactly_fn(sock, "coordinator handshake"))
                msg = frame.materialise() if frame.chan == CTL_CHANNEL else None
                if not (isinstance(msg, tuple) and msg[:1] == ("HELLO",)):
                    raise ProtocolViolation("first frame was not HELLO")
                if msg[1] != PROTOCOL_VERSION:
                    raise ProtocolViolation(
                        f"protocol version mismatch: worker speaks {msg[1]}, "
                        f"coordinator speaks {PROTOCOL_VERSION}"
                    )
            except (ProtocolViolation, DeadlockTimeout, OSError) as exc:
                # a confused or hostile client must not take the world down
                with contextlib.suppress(OSError):
                    head, body = encode_frame(
                        CTL_CHANNEL, COORD_DEST, COORD_DEST, 0,
                        ("ABORT", f"handshake rejected: {exc}"),
                    )
                    sock.sendall(head)
                    sock.sendall(body)
                    sock.close()
                continue
            router.socks[n] = sock
            n += 1
