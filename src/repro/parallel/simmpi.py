"""SimMPI — an MPI look-alike with interchangeable rank runtimes.

Runs an SPMD rank function on one *worker per rank* and provides the
MPI subset yycore needs (paper Section IV):

* point-to-point: ``Send`` / ``Isend`` / ``Recv`` / ``Irecv`` with
  ``(source, tag)`` matching, NumPy-buffer payloads copied eagerly
  (buffered-send semantics, so no rendezvous deadlocks).  Every
  ``Isend``/``Irecv`` returns a :class:`Request` that **must** be
  completed with ``wait()``/``Wait()`` or ``comm.Waitall`` — the
  protocol recorder tracks request lifetimes and an abandoned handle
  fails the sanitized finalize;
* collectives: ``barrier``, ``bcast``, ``gather``, ``allgather``,
  ``allreduce``, ``alltoall``;
* communicator management: ``split`` (the paper's ``MPI_COMM_SPLIT``
  dividing the world into the Yin and Yang panel groups) and ``dup``.

There is one :class:`Communicator`; what differs per backend is only
its *runtime* — how one tagged message gets from rank a to rank b.
Select a backend with :func:`repro.parallel.backends.get_backend`:

* ``"thread"`` (this module) — one thread per rank, in-process
  mailboxes.  A *correctness* substrate: the GIL serialises
  NumPy-light work, so it performs no real parallel speedup.
* ``"process"`` (:mod:`repro.parallel.procmpi`) — one OS process per
  rank; message payloads travel through a ``multiprocessing.
  shared_memory`` arena by memcpy, so the ranks genuinely use
  multiple cores.
* ``"socket"`` (:mod:`repro.parallel.sockmpi`) — ranks joined over TCP
  through a coordinator, possibly on other hosts.

Semantics notes
---------------
* SPMD discipline: all members of a communicator must call collectives
  in the same order (as with real MPI); the runtime matches collective
  calls by a per-communicator sequence number.
* Message ordering between a fixed (sender, receiver, tag) pair is FIFO,
  as MPI guarantees.
* ``Send(..., move=True)`` is a zero-copy handoff: the sender promises
  never to touch the buffer again, so the thread backend may enqueue
  the array itself instead of paying the eager copy.  Use it only for
  freshly packed buffers (the halo/overset packed paths qualify); the
  process and socket runtimes copy anyway and ignore the flag.

Environment
-----------
``REPRO_SIMMPI_TIMEOUT`` overrides :data:`DEFAULT_TIMEOUT` (seconds),
the wall-clock guard on blocking receives and collectives.  Raise it on
slow or heavily shared CI machines where the default could misreport a
busy world as a :class:`DeadlockTimeout`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.checkers.hb import HBTracker, PendingOp, WaitForGraph
from repro.checkers.hb import activate_tracker, deactivate_tracker
from repro.checkers.sanitize import (
    ProtocolRecorder,
    ProtocolViolation,
    _send_site,
    freeze_payload,
    sanitize_enabled,
    set_last_protocol_report,
)
from repro.parallel.fuzz import ScheduleFuzzer

ANY_SOURCE = -2
ANY_TAG = -1

# ---- launcher registration (repro.parallel.backends) ------------------------------

LAUNCHER_NAME = "thread"

#: Registry capabilities record (see ``backends.LauncherCapabilities``).
LAUNCHER_CAPABILITIES = dict(picklable_fn=False, cross_host=False, self_launch=True)


def launcher_detect() -> tuple[bool, str]:
    """Availability probe: threads always work — this is the registry's
    graceful fallback on any machine with an interpreter."""
    return True, "one thread per rank, in-process mailboxes (always available)"


def open_launcher(**opts):
    """Registry hook: the launcher object (``.run(nprocs, fn, ...)``)."""
    if opts:
        raise TypeError(f"thread launcher takes no options, got {sorted(opts)}")
    return SimMPI


def _timeout_from_env(default: float = 120.0) -> float:
    """``REPRO_SIMMPI_TIMEOUT`` (seconds), or ``default`` when unset/bad."""
    raw = os.environ.get("REPRO_SIMMPI_TIMEOUT", "")
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


#: Default wall-clock guard for blocking operations; a deadlocked test
#: fails fast instead of hanging the suite.  Overridable through the
#: ``REPRO_SIMMPI_TIMEOUT`` environment variable (read at import).
DEFAULT_TIMEOUT = _timeout_from_env()


def resolve_timeout(timeout: float | None = None) -> float:
    """The single ``timeout=None -> DEFAULT_TIMEOUT`` resolution point.

    Every launcher (thread, process, socket — including the socket
    worker side) funnels through here instead of repeating the dance,
    so the env-var default stays consistent across backends.
    """
    return DEFAULT_TIMEOUT if timeout is None else timeout


class SimMPIError(RuntimeError):
    pass


class DeadlockTimeout(SimMPIError):
    """A blocking receive/collective did not complete within the guard."""


class DeadlockError(DeadlockTimeout):
    """A blocking op timed out, with the wait-for graph attached.

    ``pending`` maps world rank to the op dict it was blocked in (or
    ``None`` for ranks that were still running); ``cycle`` is the
    blocked waits-on cycle when one exists (``[r0, r1, ..., r0]``).
    Subclasses :class:`DeadlockTimeout` so existing ``except``/
    ``pytest.raises`` sites keep working — the upgrade is diagnosis,
    not a new failure mode.
    """

    def __init__(self, message: str, pending: dict | None = None,
                 cycle: list[int] | None = None):
        super().__init__(message)
        self.pending = pending or {}
        self.cycle = list(cycle) if cycle else None

    def __reduce__(self):
        # picklable across the process/socket result channels
        return (type(self), (self.args[0], self.pending, self.cycle))


@dataclass
class _Message:
    source: int
    tag: int
    payload: Any
    #: sender's vector clock at send time (sanitize runs only)
    clock: tuple | None = None


class _MailBox:
    """Per-(comm, receiver-rank) queue with (source, tag) matching.

    With a :class:`~repro.parallel.fuzz.ScheduleFuzzer` attached,
    deliveries are jittered and may be *held back* until the next
    ``get`` — reordering visibility across (source, tag) streams while
    preserving MPI's per-stream FIFO (a held message blocks later
    same-stream deliveries from overtaking it, and every ``get`` flushes
    the held set first, so no artificial deadlock is introduced).
    """

    def __init__(self, fuzz: ScheduleFuzzer | None = None):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._messages: list[_Message] = []
        self._held: list[_Message] = []
        self._fuzz = fuzz

    def put(self, msg: _Message) -> None:
        fuzz = self._fuzz
        if fuzz is not None:
            fuzz.sleep_jitter()
        with self._cond:
            # a stream with a held message must queue behind it (the
            # get-time flush appends held messages last, so letting a
            # same-stream follower into the visible list would reorder
            # the stream); only otherwise is holding a free choice
            same_stream_held = any(
                h.source == msg.source and h.tag == msg.tag
                for h in self._held
            )
            if fuzz is not None and (same_stream_held or fuzz.hold()):
                self._held.append(msg)
            else:
                self._messages.append(msg)
            self._cond.notify_all()

    def get(self, source: int, tag: int, timeout: float) -> _Message:
        def match():
            for i, m in enumerate(self._messages):
                if (source == ANY_SOURCE or m.source == source) and (
                    tag == ANY_TAG or m.tag == tag
                ):
                    return i
            return None

        with self._cond:
            while True:
                if self._held:
                    self._messages.extend(self._held)
                    self._held.clear()
                idx = match()
                if idx is not None:
                    return self._messages.pop(idx)
                if not self._cond.wait(timeout=timeout):
                    raise DeadlockTimeout(
                        f"Recv(source={source}, tag={tag}) timed out after {timeout}s"
                    )


class _World:
    """Shared state of one thread world: mailboxes and collective slots."""

    def __init__(self, nprocs: int, timeout: float):
        self.nprocs = nprocs
        self.timeout = timeout
        self._boxes: dict[tuple[str, int], _MailBox] = {}
        self._boxes_lock = threading.Lock()
        self._coll_lock = threading.Lock()
        self._coll_cond = threading.Condition(self._coll_lock)
        self._coll_slots: dict[tuple[str, int], dict[int, Any]] = {}
        self._coll_done: dict[tuple[str, int], dict[int, Any]] = {}
        self.failures: list[BaseException] = []
        #: shared across ranks (threads), so the protocol recorder sees
        #: the global message flow — full collision detection
        self.recorder: ProtocolRecorder | None = (
            ProtocolRecorder() if sanitize_enabled() else None
        )
        #: wait-for graph: always on (two dict writes per blocking op)
        self.wfg = WaitForGraph(nprocs)
        #: happens-before tracker: armed with the sanitizer
        self.hb: HBTracker | None = (
            HBTracker(nprocs) if self.recorder is not None else None
        )
        #: schedule-perturbation fuzzer (REPRO_SCHED_FUZZ)
        self.fuzz = ScheduleFuzzer.from_env()

    def mailbox(self, chan: str, world_rank: int) -> _MailBox:
        key = (chan, world_rank)
        with self._boxes_lock:
            if key not in self._boxes:
                self._boxes[key] = _MailBox(self.fuzz)
            return self._boxes[key]

    def deadlock_error(self, base: str) -> DeadlockError:
        """Upgrade a bare timeout into a wait-for-graph diagnosis.

        Called from ``except DeadlockTimeout`` blocks *before* the
        blocked op is popped, so the failing rank's own op is in the
        snapshot too."""
        snap = self.wfg.pending_snapshot()
        cycle = WaitForGraph.find_cycle(snap)
        return DeadlockError(
            base + "\n" + WaitForGraph.describe(snap, cycle),
            pending={r: (op.as_dict() if op is not None else None)
                     for r, op in snap.items()},
            cycle=cycle,
        )

    def exchange(
        self, comm: Communicator, seq: int, payload: Any
    ) -> dict[int, Any]:
        """Deposit ``payload`` and wait until every member of ``comm`` has
        deposited for the same sequence number; returns all payloads."""
        key = (comm.id, seq)
        size = comm.size
        hb = self.hb
        if hb is not None:
            payload = (hb.send_event(comm.world_rank), payload)
        self.wfg.enter(PendingOp(
            rank=comm.world_rank, kind="collective", comm=comm.id, seq=seq,
            members=tuple(comm.members),
        ))
        try:
            with self._coll_cond:
                slot = self._coll_slots.setdefault(key, {})
                slot[comm.rank] = payload
                if len(slot) == size:
                    self._coll_done[key] = self._coll_slots.pop(key)
                    self._coll_cond.notify_all()
                else:
                    while key not in self._coll_done:
                        if not self._coll_cond.wait(timeout=self.timeout):
                            raise self.deadlock_error(
                                f"collective seq={seq} on comm {comm.id} timed out "
                                f"({len(slot)}/{size} ranks arrived)"
                            )
                result = self._coll_done[key]
                # last rank to leave cleans up
                slot_readers = self._coll_slots.setdefault(("readers",) + key, {})  # type: ignore[arg-type]
                slot_readers[comm.rank] = True
                if len(slot_readers) == size:
                    del self._coll_done[key]
                    del self._coll_slots[("readers",) + key]  # type: ignore[arg-type]
        finally:
            self.wfg.exit(comm.world_rank)
        if hb is not None:
            # the rendezvous orders every member after every deposit
            hb.collective_event(comm.world_rank,
                                [v[0] for v in result.values()])
            result = {r: v[1] for r, v in result.items()}
        return result


@dataclass
class Request:
    """Handle for a non-blocking operation.

    Every request must be completed exactly once with :meth:`wait` (or
    its MPI-style alias :meth:`Wait`, or through
    ``Communicator.Waitall``) — the protocol recorder notes the request
    at creation and clears it at completion, so a handle that is
    dropped without a wait shows up as an ``unwaited request`` in the
    sanitized finalize report.
    """

    _complete: Callable[[], Any]
    _done: bool = False
    _value: Any = None
    #: recorder lifetime tracking (None when the sanitizer is off)
    _recorder: Any = None
    _token: int | None = None

    def wait(self) -> Any:
        if not self._done:
            self._value = self._complete()
            self._done = True
            if self._recorder is not None:
                self._recorder.note_request_done(self._token)
        return self._value

    def Wait(self) -> Any:
        """MPI-style alias of :meth:`wait`."""
        return self.wait()

    def test(self) -> bool:
        """Whether the request has completed (requests complete on wait)."""
        return self._done


def _copy_payload(data: Any) -> Any:
    """Eager copy giving buffered-send semantics."""
    if isinstance(data, np.ndarray):
        return data.copy()
    return data


class Communicator:
    """An MPI-style communicator over a subset of world ranks.

    The one communicator of every backend.  Point-to-point, the
    collectives, ``split``/``dup`` and the non-blocking wrappers are
    written here once, over a per-rank *runtime* that supplies the
    transport:

    ``send(dest_world, chan, src_rank, tag, payload, move)``
        post one message to a world rank on a channel (the comm id);
    ``recv(chan, source, tag) -> (source_rank, matched_tag, payload)``
        block until a matching message arrives, raising
        :class:`DeadlockError` past the guard;
    ``wfg_enter(op)`` / ``wfg_exit()``
        wait-for registration, which a timeout turns into the
        diagnosis;
    ``exchange`` / ``gather`` / ``bcast`` ``(comm, seq, ...)``
        the collective rendezvous;
    ``isolate(data)`` / ``hb_clock()`` / ``recorder``.

    The thread runtime is :class:`_ThreadRuntime` below; the process
    and socket runtimes share :class:`repro.parallel.transport.
    RankRuntime`.  Reductions associate in rank order on every runtime,
    which keeps results bit-reproducible and identical across backends.
    """

    def __init__(self, runtime: Any, comm_id: str, members: Sequence[int],
                 world_rank: int):
        self._rt = runtime
        self.id = comm_id
        self.members = list(members)
        try:
            self.rank = self.members.index(world_rank)
        except ValueError as exc:
            raise SimMPIError(
                f"world rank {world_rank} is not a member of comm {comm_id}"
            ) from exc
        self.world_rank = world_rank
        self.size = len(self.members)
        self._seq = 0
        self._child_count = 0
        # communication accounting (used by tests and the perf model hooks)
        self.bytes_sent = 0
        self.messages_sent = 0
        #: protocol recorder (REPRO_SANITIZE=1), owned by the runtime
        self._recorder: ProtocolRecorder | None = runtime.recorder

    def _note_collective(self, op: str) -> None:
        if self._recorder is not None:
            self._recorder.note_collective(self.id, self.rank, op)

    def hb_clock(self) -> tuple | None:
        """This rank's current vector clock, when happens-before tracking
        is armed (thread backend under ``REPRO_SANITIZE=1``); ``None``
        otherwise.  Consumed by the tracing wrapper so message records
        carry their causal timestamps."""
        return self._rt.hb_clock()

    # ---- point-to-point -------------------------------------------------------

    def Send(self, data: Any, dest: int, tag: int = 0, *, move: bool = False) -> None:
        """Blocking standard send (buffered: the runtime copies or
        serialises the payload and returns).

        With ``move=True`` the caller promises never to reuse the buffer:
        the thread runtime enqueues it without the eager copy, and the
        sanitizer freezes it so a write-after-move raises.
        """
        if not 0 <= dest < self.size:
            raise SimMPIError(f"dest {dest} out of range for comm of size {self.size}")
        if isinstance(data, np.ndarray):
            self.bytes_sent += data.nbytes
        self.messages_sent += 1
        if self._recorder is not None:
            self._recorder.note_send(self.id, self.rank, dest, tag)
            if move:
                freeze_payload(data)
        self._rt.send(self.members[dest], self.id, self.rank, tag, data, move)

    def Recv(self, buf: np.ndarray | None = None, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Any:
        """Blocking receive.  With an ndarray ``buf`` the payload is copied
        into it (the upper-case buffer convention); the payload is returned
        either way."""
        rt = self._rt
        rt.wfg_enter(PendingOp(
            rank=self.world_rank, kind="Recv", comm=self.id,
            source=self.members[source] if source >= 0 else None,
            tag=None if tag == ANY_TAG else tag,
        ))
        try:
            src, matched_tag, payload = rt.recv(self.id, source, tag)
        finally:
            rt.wfg_exit()
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

    def _make_request(self, kind: str, complete: Callable[[], Any]) -> Request:
        """Build a :class:`Request`, registering its lifetime with the
        protocol recorder so an abandoned handle is caught at finalize."""
        recorder = self._recorder
        token = recorder.note_request_open(kind) if recorder is not None else None
        return Request(_complete=complete, _recorder=recorder, _token=token)

    def Isend(self, data: Any, dest: int, tag: int = 0, *, move: bool = False) -> Request:
        """Non-blocking send.  The transfer is buffered eagerly (these
        transports never rendezvous), but the returned request must
        still be waited — the wait is where the sanitizer closes the
        request's lifetime record."""
        self.Send(data, dest, tag, move=move)
        return self._make_request("Isend", lambda: None)

    def Irecv(self, buf: np.ndarray | None = None, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; the transfer happens in ``wait()``."""
        return self._make_request("Irecv", lambda: self.Recv(buf, source, tag))

    def Waitall(self, requests: Sequence[Request]) -> list[Any]:
        """Complete every request; returns their values in order."""
        return [req.wait() for req in requests]

    def Sendrecv(self, senddata: Any, dest: int, recvsource: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Any:
        req = self.Irecv(source=recvsource, tag=recvtag)
        self.Send(senddata, dest, sendtag)
        return req.wait()

    # ---- collectives ----------------------------------------------------------

    def _next_seq(self) -> int:
        s = self._seq
        self._seq += 1
        return s

    def _exchange(self, seq: int, payload: Any) -> dict[int, Any]:
        """The rendezvous every collective is built on: deposit
        ``payload`` and return every member's, keyed by comm rank."""
        return self._rt.exchange(self, seq, payload)

    def barrier(self) -> None:
        self._note_collective("barrier")
        self._exchange(self._next_seq(), None)

    def bcast(self, data: Any, root: int = 0) -> Any:
        self._note_collective("bcast")
        return self._rt.bcast(
            self, self._next_seq(),
            self._rt.isolate(data) if self.rank == root else None, root,
        )

    def gather(self, data: Any, root: int = 0) -> list[Any] | None:
        self._note_collective("gather")
        return self._rt.gather(self, self._next_seq(), self._rt.isolate(data), root)

    def allgather(self, data: Any) -> list[Any]:
        self._note_collective("allgather")
        all_data = self._exchange(self._next_seq(), self._rt.isolate(data))
        return [all_data[r] for r in range(self.size)]

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None) -> Any:
        """Reduce with ``op`` (default: elementwise/scalar sum) to all ranks.

        The reduction is applied in rank order, making the result
        bit-reproducible across runs (fixed association order).
        """
        parts = self.allgather(value)
        if op is None:
            acc = parts[0]
            for p in parts[1:]:
                acc = acc + p
            return acc
        acc = parts[0]
        for p in parts[1:]:
            acc = op(acc, p)
        return acc

    def alltoall(self, data: Sequence[Any]) -> list[Any]:
        self._note_collective("alltoall")
        if len(data) != self.size:
            raise SimMPIError(f"alltoall needs {self.size} items, got {len(data)}")
        matrix = self._exchange(
            self._next_seq(), [self._rt.isolate(d) for d in data]
        )
        return [matrix[r][self.rank] for r in range(self.size)]

    # ---- communicator management ----------------------------------------------

    def split(self, color: int, key: int | None = None) -> Communicator:
        """``MPI_COMM_SPLIT``: partition members by ``color``, order each
        group by ``(key, old rank)``.  The paper splits the world into the
        Yin group and the Yang group this way."""
        if key is None:
            key = self.rank
        self._note_collective("split")
        pairs = self._exchange(self._next_seq(), (color, key))
        self._child_count += 1
        group = sorted(
            (r for r in range(self.size) if pairs[r][0] == color),
            key=lambda r: (pairs[r][1], r),
        )
        members = [self.members[r] for r in group]
        child_id = f"{self.id}/s{self._child_count}c{color}"
        return Communicator(self._rt, child_id, members, self.world_rank)

    def dup(self) -> Communicator:
        self._note_collective("dup")
        self.barrier()
        self._child_count += 1
        return Communicator(
            self._rt, f"{self.id}/d{self._child_count}", self.members,
            self.world_rank,
        )


# ---- thread runtime ------------------------------------------------------------------


class _ThreadRuntime:
    """One thread rank's view of its :class:`_World`: in-process
    mailboxes, happens-before clocks and in-flight windows, ``move=``
    zero-copy, and the in-memory collective rendezvous."""

    def __init__(self, world: _World, world_rank: int):
        self.world = world
        self.world_rank = world_rank
        self.recorder = world.recorder

    def send(self, dest_world: int, chan: str, src_rank: int, tag: int,
             payload: Any, move: bool) -> None:
        if not move:
            payload = _copy_payload(payload)
        clock = None
        hb = self.world.hb
        if hb is not None:
            clock = hb.send_event(self.world_rank)
            if move and isinstance(payload, np.ndarray):
                # in-flight window: the sender's pool must not recycle
                # this buffer until the receipt happens-before the release
                hb.open_window(self.world_rank, payload, dest_world, _send_site())
        self.world.mailbox(chan, dest_world).put(
            _Message(source=src_rank, tag=tag, payload=payload, clock=clock)
        )

    def recv(self, chan: str, source: int, tag: int) -> tuple[int, int, Any]:
        world = self.world
        try:
            msg = world.mailbox(chan, self.world_rank).get(source, tag, world.timeout)
        except DeadlockError:
            raise
        except DeadlockTimeout as exc:
            raise world.deadlock_error(str(exc)) from None
        if world.hb is not None:
            world.hb.recv_event(self.world_rank, msg.clock)
            if isinstance(msg.payload, np.ndarray):
                world.hb.mark_received(self.world_rank, msg.payload)
        return msg.source, msg.tag, msg.payload

    def wfg_enter(self, op: PendingOp) -> None:
        self.world.wfg.enter(op)

    def wfg_exit(self) -> None:
        self.world.wfg.exit(self.world_rank)

    def exchange(self, comm: Communicator, seq: int, payload: Any) -> dict[int, Any]:
        return self.world.exchange(comm, seq, payload)

    def gather(self, comm: Communicator, seq: int, data: Any,
               root: int) -> list[Any] | None:
        all_data = self.world.exchange(comm, seq, data)
        if comm.rank == root:
            return [all_data[r] for r in range(comm.size)]
        return None

    def bcast(self, comm: Communicator, seq: int, data: Any, root: int) -> Any:
        return self.world.exchange(comm, seq, data)[root]

    def isolate(self, data: Any) -> Any:
        """Collective payloads share the address space: copy them."""
        return _copy_payload(data)

    def hb_clock(self) -> tuple | None:
        hb = self.world.hb
        return hb.clock_of(self.world_rank) if hb is not None else None


class SimMPI:
    """Launcher: run an SPMD function on ``nprocs`` thread ranks.

    >>> def program(comm):
    ...     return comm.allreduce(comm.rank)
    >>> SimMPI.run(4, program)
    [6, 6, 6, 6]

    The other backends are reached through
    :func:`repro.parallel.backends.get_backend`.
    """

    @staticmethod
    def run(
        nprocs: int,
        fn: Callable[..., Any],
        *args: Any,
        timeout: float = None,
        **kwargs: Any,
    ) -> list[Any]:
        """Execute ``fn(comm, *args, **kwargs)`` on every rank; returns the
        per-rank return values in rank order.  Any rank exception aborts
        the world and is re-raised (with all failures noted)."""
        timeout = resolve_timeout(timeout)
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        world = _World(nprocs, timeout)
        results: list[Any] = [None] * nprocs

        def runner(rank: int) -> None:
            if world.hb is not None:
                world.hb.register_thread(rank)
            comm = Communicator(_ThreadRuntime(world, rank), "world",
                                list(range(nprocs)), rank)
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to launcher
                world.failures.append(exc)
                raise

        threads = [
            threading.Thread(target=runner, args=(r,), name=f"simmpi-rank-{r}", daemon=True)
            for r in range(nprocs)
        ]
        if world.hb is not None:
            activate_tracker(world.hb)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=timeout * 2)
                if t.is_alive():
                    raise world.deadlock_error(
                        f"{t.name} did not terminate"
                    )
        finally:
            if world.hb is not None:
                deactivate_tracker(world.hb)
        if world.failures:
            # concurrent timeouts race to snapshot the wait-for graph;
            # surface the failure that caught the cycle when one did
            fail = world.failures[0]
            for f in world.failures:
                if isinstance(f, DeadlockError) and f.cycle:
                    fail = f
                    break
            raise fail
        if world.recorder is not None:
            report = world.recorder.report()
            if world.hb is not None:
                report.races.extend(world.hb.races())
            set_last_protocol_report(report)
            if not report.ok:
                raise ProtocolViolation(report.summary())
        return results
