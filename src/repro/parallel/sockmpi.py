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

Collectives come from the shared
:class:`~repro.parallel.transport.RootedRendezvous` (gather-to-root +
rebroadcast on the ``"\\x00coll"`` control channel), so reductions
associate in rank order exactly as on the thread and process backends
and the parallel solver stays bitwise-equal to the serial one.

Control protocol (``"\\x00ctl"`` channel, coordinator ``dest = -3``):
``HELLO`` (worker → coordinator, with protocol version), ``ASSIGN``
(coordinator → worker: rank, world size, timeout, pickled rank
function), ``RESULT`` (worker → coordinator: return value or packed
exception), ``ABORT`` (coordinator → workers: the world is going down,
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
import pickle
import queue as _queue
import socket as _socket
import threading
import time as _time
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.checkers.hb import PendingOp, WaitForGraph
from repro.checkers.sanitize import (
    ProtocolRecorder,
    ProtocolViolation,
    freeze_payload,
    sanitize_enabled,
)
from repro.parallel.frames import Frame, encode_frame, read_frame
from repro.parallel.fuzz import ScheduleFuzzer
from repro.parallel.procmpi import _pack_exception, _pack_result
from repro.parallel.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    CommunicatorBase,
    DeadlockError,
    DeadlockTimeout,
    SimMPIError,
    resolve_timeout,
)
from repro.parallel.transport import RootedRendezvous, verify_protocol

__all__ = ["SockCommunicator", "SockMPI", "SockWorkerError", "worker_join"]

#: Control traffic (handshake, results, aborts) rides its own channel.
CTL_CHANNEL = "\x00ctl"
#: Frame ``dest`` addressing the coordinator itself (not a rank).
COORD_DEST = -3
#: Bumped on any incompatible wire-format change; checked at HELLO.
PROTOCOL_VERSION = 1

# ---- launcher registration (repro.parallel.backends) ------------------------------

LAUNCHER_NAME = "socket"

#: Registry capabilities record (see ``backends.LauncherCapabilities``).
LAUNCHER_CAPABILITIES = dict(
    picklable_fn=True, cross_host=True, self_launch=True, max_ranks=None,
)


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


class SockWorkerError(SimMPIError):
    """A socket-world rank failed with an exception that could not be
    re-raised directly (unpicklable); carries the formatted traceback."""


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
                source: int, dest: int, tag: int, payload: Any) -> int:
    """Encode and write one frame; returns the array byte count."""
    head, body = encode_frame(chan, source, dest, tag, payload)
    with lock:
        sock.sendall(head)
        sock.sendall(body)
    return payload.nbytes if isinstance(payload, np.ndarray) else 0


# ---- worker side -----------------------------------------------------------------


class _SockRuntime:
    """One rank's view of the star transport: a single coordinator socket.

    Exposes the two transport primitives :class:`RootedRendezvous`
    builds on — ``send(dest_world, chan, src_rank, tag, payload)`` and
    ``recv(chan, source, tag)`` — with the same matching semantics as
    the shared-memory runtime: frames read off the socket that match
    nothing yet are parked in ``pending`` until a receive asks for them.
    """

    def __init__(self, sock: _socket.socket, world_rank: int, nprocs: int,
                 timeout: float):
        self.sock = sock
        self.world_rank = world_rank
        self.nprocs = nprocs
        self.timeout = timeout
        self.pending: list[Frame] = []
        self._wlock = threading.Lock()
        self._read = _recv_exactly_fn(sock, f"rank {world_rank}")
        #: one recorder per rank runtime (REPRO_SANITIZE=1) — per-rank
        #: snapshots merge at finalize via :func:`verify_protocol`
        self.recorder: ProtocolRecorder | None = (
            ProtocolRecorder() if sanitize_enabled() else None
        )
        #: blocking ops can nest (a collective recv inside the
        #: rendezvous); the innermost one names why this rank is stuck
        self._op_stack: list[PendingOp] = []

    # ---- wait-for registration (shared with RootedRendezvous) -----------------

    def wfg_enter(self, op: PendingOp) -> PendingOp:
        self._op_stack.append(op)
        return op

    def wfg_exit(self, rank: int | None = None) -> None:
        if self._op_stack:
            self._op_stack.pop()

    def deadlock_error(self, base: str) -> DeadlockError:
        """Upgrade a bare timeout: tell the coordinator why this rank is
        stuck (a STUCK control notice with the innermost blocking op),
        so the launcher can merge every rank's notice into the world
        wait-for graph; the local error carries this rank's view."""
        op = self._op_stack[-1] if self._op_stack else None
        d = op.as_dict() if op is not None else None
        with contextlib.suppress(OSError, ProtocolViolation, DeadlockTimeout):
            self.send_ctl(("STUCK", self.world_rank, d))
        detail = op.describe() if op is not None else "an unregistered blocking op"
        return DeadlockError(
            f"{base}\nrank {self.world_rank} blocked in {detail}",
            pending={self.world_rank: d},
        )

    def send(self, dest_world: int, chan: str, src_rank: int, tag: int,
             payload: Any) -> int:
        try:
            return _send_frame(self.sock, self._wlock, chan, src_rank,
                               dest_world, tag, payload)
        except OSError as exc:
            raise ProtocolViolation(
                f"rank {self.world_rank}: coordinator connection lost "
                f"during send: {exc}"
            ) from exc

    def _next_frame(self) -> Frame:
        frame = read_frame(self._read)
        if frame.chan == CTL_CHANNEL:
            msg = frame.materialise()
            if isinstance(msg, tuple) and msg and msg[0] == "ABORT":
                raise ProtocolViolation(f"world aborted: {msg[1]}")
            raise ProtocolViolation(
                f"rank {self.world_rank}: unexpected control message "
                f"{msg!r} mid-run"
            )
        return frame

    def recv(self, chan: str, source: int, tag: int) -> tuple[int, int, Any]:
        """Match and return ``(source_rank, matched_tag, payload)``."""

        def match_idx() -> int | None:
            for i, f in enumerate(self.pending):
                if f.chan != chan:
                    continue
                if (source == ANY_SOURCE or f.source == source) and (
                    tag == ANY_TAG or f.tag == tag
                ):
                    return i
            return None

        # deadlock-timeout bookkeeping, not numerics
        deadline = _time.monotonic() + self.timeout  # repro: noqa-REP015
        while True:
            idx = match_idx()
            if idx is not None:
                f = self.pending.pop(idx)
                return f.source, f.tag, f.materialise()
            remaining = deadline - _time.monotonic()  # repro: noqa-REP015
            if remaining <= 0:
                raise self.deadlock_error(
                    f"Recv(chan={chan!r}, source={source}, tag={tag}) timed "
                    f"out after {self.timeout}s on world rank {self.world_rank}"
                )
            self.sock.settimeout(remaining)
            try:
                self.pending.append(self._next_frame())
            except DeadlockError:
                raise
            except DeadlockTimeout:
                raise self.deadlock_error(
                    f"Recv(chan={chan!r}, source={source}, tag={tag}) timed "
                    f"out after {self.timeout}s on world rank {self.world_rank}"
                ) from None

    def send_ctl(self, payload: Any) -> None:
        _send_frame(self.sock, self._wlock, CTL_CHANNEL, self.world_rank,
                    COORD_DEST, 0, payload)

    def close(self) -> None:
        self.pending.clear()
        with contextlib.suppress(OSError):
            self.sock.close()


class SockCommunicator(RootedRendezvous, CommunicatorBase):
    """MPI-style communicator whose transport is the coordinator socket.

    Point-to-point payloads travel as frames through the router;
    collectives come from :class:`CommunicatorBase` over the shared
    :class:`~repro.parallel.transport.RootedRendezvous`, identically to
    the process backend."""

    def __init__(self, runtime: _SockRuntime, comm_id: str,
                 members: Sequence[int], world_rank: int):
        self._rt = runtime
        self._init_base(comm_id, members, world_rank)
        self._recorder = runtime.recorder

    # ---- point-to-point -------------------------------------------------------

    def Send(self, data: Any, dest: int, tag: int = 0, *, move: bool = False) -> None:
        """Blocking standard send: the frame write decouples sender and
        receiver (the coordinator buffers), so ``move=True`` needs no
        special handling beyond the sanitizer freeze."""
        if not 0 <= dest < self.size:
            raise SimMPIError(f"dest {dest} out of range for comm of size {self.size}")
        nbytes = self._rt.send(self.members[dest], self.id, self.rank, tag, data)
        self.bytes_sent += nbytes
        self.messages_sent += 1
        if self._recorder is not None:
            self._recorder.note_send(self.id, self.rank, dest, tag)
            if move:
                freeze_payload(data)

    def Recv(self, buf: np.ndarray | None = None, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Any:
        self._rt.wfg_enter(PendingOp(
            rank=self._rt.world_rank, kind="Recv", comm=self.id,
            source=self.members[source] if source >= 0 else None,
            tag=None if tag == ANY_TAG else tag,
        ))
        try:
            src, matched_tag, payload = self._rt.recv(self.id, source, tag)
        finally:
            self._rt.wfg_exit()
        if self._recorder is not None:
            self._recorder.note_recv(self.id, src, self.rank, matched_tag)
        if buf is not None:
            arr = np.asarray(payload)
            if buf.shape != arr.shape:
                raise SimMPIError(
                    f"Recv buffer shape {buf.shape} != message shape {arr.shape}"
                )
            buf[...] = arr
        return payload

    # ---- collective rendezvous: RootedRendezvous over self._rt ----------------

    def _make_child(self, comm_id: str, members: Sequence[int]) -> SockCommunicator:
        return SockCommunicator(self._rt, comm_id, members, self.world_rank)


def worker_join(address: str, *, timeout: float | None = None) -> Any:
    """Connect to a coordinator at ``host:port`` and serve one rank.

    This is the whole worker: handshake, receive the rank assignment
    (with the pickled rank function), run it over a
    :class:`SockCommunicator`, report the result.  ``repro-paper worker
    --connect`` is a thin wrapper; tests call it in threads for an
    in-process loopback world.  Returns the rank function's value (and
    re-raises its exception after reporting it to the coordinator).
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
        comm = SockCommunicator(runtime, "world", list(range(nprocs)), rank)
        try:
            value = fn(comm, *fn_args, **fn_kwargs)
            if runtime.recorder is not None:
                verify_protocol(comm, runtime.recorder)
        except BaseException as exc:  # noqa: BLE001 - reported to coordinator
            with contextlib.suppress(OSError):
                runtime.send_ctl(("RESULT", rank, "err", _pack_exception(exc)))
            raise
        runtime.send_ctl(("RESULT", rank, "ok", _pack_result(value)))
        return value
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

    def __init__(self, nprocs: int, timeout: float):
        self.nprocs = nprocs
        self.timeout = timeout
        self.socks: list[_socket.socket | None] = [None] * nprocs
        self.wlocks = [threading.Lock() for _ in range(nprocs)]
        self.finished = [False] * nprocs
        self.result_q: _queue.Queue = _queue.Queue()
        self.abort_reason: str | None = None
        self._abort_lock = threading.Lock()
        #: seeded schedule perturbation (REPRO_SCHED_FUZZ): random
        #: jitter before each forwarded frame; the sleep happens in this
        #: reader thread, so senders never block
        self.fuzz = ScheduleFuzzer.from_env()
        #: rank -> blocked-op dict from STUCK notices (ranks whose
        #: blocking op timed out); merged into the world wait-for
        #: graph by the launcher's collector
        self.stuck: dict[int, dict | None] = {}

    def serve(self, rank: int) -> None:
        sock = self.socks[rank]
        read = _recv_exactly_fn(sock, f"coordinator<-rank {rank}")
        sock.settimeout(2 * self.timeout + 60.0)
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
                        self.result_q.put(("result", msg[1], msg[2], msg[3]))
                        continue  # drain until the worker closes
                    if msg[0] == "STUCK":
                        self.stuck[msg[1]] = msg[2]
                        continue
                    raise ProtocolViolation(
                        f"unexpected control message {msg[0]!r} from rank {rank}"
                    )
                if not 0 <= frame.dest < self.nprocs:
                    raise ProtocolViolation(
                        f"rank {rank} addressed nonexistent rank {frame.dest}"
                    )
                if self.fuzz is not None:
                    self.fuzz.sleep_jitter()
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
        self.result_q.put(("abort", -1, None, None))

    def close_all(self) -> None:
        for s in self.socks:
            if s is not None:
                with contextlib.suppress(OSError):
                    s.close()


class SockMPI:
    """Launcher: run an SPMD function over a TCP coordinator world.

    Mirrors :meth:`repro.parallel.simmpi.SimMPI.run` — ``fn``, its
    arguments and its per-rank return values travel by pickle, so they
    must be picklable.  By default the launcher binds loopback and
    spawns its own local worker processes; with ``spawn=False`` (or
    ``REPRO_SOCKMPI_SPAWN=0``) it announces the bound address and waits
    for ``nprocs`` external ``repro-paper worker --connect`` processes,
    which may run on other hosts.
    """

    name = "socket"

    def __init__(self, bind: str | None = None, spawn: bool | None = None,
                 start_method: str | None = None,
                 announce: Callable[[str], None] | None = None):
        self.bind = bind or os.environ.get("REPRO_SOCKMPI_BIND", "127.0.0.1:0")
        if spawn is None:
            spawn = os.environ.get("REPRO_SOCKMPI_SPAWN", "1").strip().lower() not in (
                "0", "false", "off", "no",
            )
        self.spawn = spawn
        self.start_method = start_method
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
        router = _Router(nprocs, timeout)
        procs: list[Any] = []
        threads: list[threading.Thread] = []
        results: list[Any] = [None] * nprocs
        error: BaseException | None = None
        try:
            if self.spawn:
                import multiprocessing as mp

                method = self.start_method or os.environ.get(
                    "REPRO_PROCMPI_START", "spawn"
                )
                ctx = mp.get_context(method)
                procs = [
                    ctx.Process(
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
            error = self._collect(router, results, nprocs, timeout)
        except BaseException as exc:  # noqa: BLE001 - re-raised after teardown
            error = exc
        finally:
            if error is not None:
                router.abort(f"world shutting down: {error}")
            listener.close()
            for t in threads:
                t.join(timeout=5.0)
            router.close_all()
            grace = 1.0 if error is not None else timeout
            for p in procs:
                p.join(timeout=grace)
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5.0)
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
                raise SockWorkerError(
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

    @staticmethod
    def _merge_deadlock(router: _Router, err: DeadlockError,
                        nprocs: int) -> DeadlockError:
        """One rank timed out; merge every rank's STUCK notice into the
        world wait-for graph.  Peers share the same guard, so their
        notices land within moments of the first — give them a beat."""
        grace = _time.monotonic() + 1.5
        while _time.monotonic() < grace:
            blocked = {r for r in range(nprocs) if not router.finished[r]}
            if blocked <= set(router.stuck):
                break
            _time.sleep(0.05)
        merged = {
            r: router.stuck.get(r, err.pending.get(r)) for r in range(nprocs)
        }
        snap = WaitForGraph.snapshot_from_dicts(merged, nprocs)
        cycle = WaitForGraph.find_cycle(snap)
        first_line = str(err.args[0]).splitlines()[0]
        return DeadlockError(
            first_line + "\n" + WaitForGraph.describe(snap, cycle),
            pending=merged,
            cycle=cycle,
        )

    @staticmethod
    def _collect(router: _Router, results: list[Any], nprocs: int,
                 timeout: float) -> BaseException | None:
        """Wait for every rank's RESULT (or the first failure/abort)."""
        deadline = _time.monotonic() + 2 * timeout + 60.0
        got = 0
        while got < nprocs:
            try:
                kind, rank, status, packed = router.result_q.get(timeout=0.2)
            except _queue.Empty:
                if router.abort_reason is not None:
                    return ProtocolViolation(router.abort_reason)
                if _time.monotonic() > deadline:
                    # ranks that timed out said why (STUCK notices);
                    # merge them into the world wait-for graph
                    raw = {r: router.stuck.get(r) for r in range(nprocs)}
                    snap = WaitForGraph.snapshot_from_dicts(raw, nprocs)
                    cycle = WaitForGraph.find_cycle(snap)
                    return DeadlockError(
                        f"socket world of {nprocs} did not report within "
                        f"{2 * timeout:.0f}s run guard\n"
                        + WaitForGraph.describe(snap, cycle),
                        pending=raw,
                        cycle=cycle,
                    )
                continue
            if kind == "abort":
                return ProtocolViolation(router.abort_reason or "world aborted")
            got += 1
            if status == "ok":
                how, blob = packed
                results[rank] = pickle.loads(blob) if how == "pickle" else blob
            else:
                how, payload = packed
                if how == "exc":
                    blob, tb = payload
                    try:
                        error = pickle.loads(blob)
                    except Exception:
                        return SockWorkerError(f"rank {rank} failed:\n{tb}")
                    if isinstance(error, DeadlockError):
                        error = SockMPI._merge_deadlock(router, error, nprocs)
                    return error
                return SockWorkerError(f"rank {rank} failed:\n{payload}")
        return None
