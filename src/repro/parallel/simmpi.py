"""SimMPI — an MPI look-alike with interchangeable rank backends.

Runs an SPMD rank function on one *worker per rank* and provides the
MPI subset yycore needs (paper Section IV):

* point-to-point: ``Send`` / ``Isend`` / ``Recv`` / ``Irecv`` with
  ``(source, tag)`` matching, NumPy-buffer payloads copied eagerly
  (buffered-send semantics, so no rendezvous deadlocks).  Every
  ``Isend``/``Irecv`` returns a :class:`Request` that **must** be
  completed with ``wait()``/``Wait()`` or ``comm.Waitall`` — the
  protocol recorder tracks request lifetimes and an abandoned handle
  fails the sanitized finalize (see REP009);
* collectives: ``barrier``, ``bcast``, ``gather``, ``allgather``,
  ``allreduce``, ``alltoall``;
* communicator management: ``split`` (the paper's ``MPI_COMM_SPLIT``
  dividing the world into the Yin and Yang panel groups) and ``dup``.

Two backends share this API (select with ``SimMPI.run(..., backend=)``
or :func:`repro.parallel.backends.get_backend`):

* ``"thread"`` (this module) — one thread per rank, in-process
  mailboxes.  A *correctness* substrate: the GIL serialises
  NumPy-light work, so it performs no real parallel speedup.
* ``"process"`` (:mod:`repro.parallel.procmpi`) — one OS process per
  rank; message payloads travel through a ``multiprocessing.
  shared_memory`` arena by memcpy, so the ranks genuinely use
  multiple cores.

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
  process backend always copies into shared memory and ignores the
  flag.

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
LAUNCHER_CAPABILITIES = dict(
    picklable_fn=False, cross_host=False, self_launch=True, max_ranks=None,
)


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


class _Runtime:
    """Shared state of one SimMPI world: mailboxes and collective slots."""

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

    def mailbox(self, comm_id: str, rank: int) -> _MailBox:
        key = (comm_id, rank)
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
    its mpi4py-style alias :meth:`Wait`, or through
    ``CommunicatorBase.Waitall``) — the protocol recorder notes the
    request at creation and clears it at completion, so a handle that
    is dropped without a wait shows up as an ``unwaited request`` in
    the sanitized finalize report.
    """

    _complete: Callable[[], Any]
    _done: bool = False
    _value: Any = None
    #: recorder lifetime tracking (None when the sanitizer is off or the
    #: backend has no recorder, e.g. mpi4py)
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
        """mpi4py-style alias of :meth:`wait`."""
        return self.wait()

    def test(self) -> bool:
        """Whether the request has completed (requests complete on wait)."""
        return self._done


def _copy_payload(data: Any) -> Any:
    """Eager copy giving buffered-send semantics."""
    if isinstance(data, np.ndarray):
        return data.copy()
    return data


class CommunicatorBase:
    """The backend-independent communicator contract.

    Subclasses provide the transport — ``Send`` / ``Recv`` / ``Irecv``,
    the collective rendezvous ``_exchange(seq, payload) -> {rank:
    payload}`` and the child factory ``_make_child(comm_id, members)``.
    Everything above that (the collectives, ``split``/``dup``, the
    non-blocking wrappers) is shared here, so both the thread and the
    process backend run the *same* collective algorithms: reductions
    associate in rank order, which keeps results bit-reproducible and
    identical across backends.
    """

    id: str
    members: list[int]
    rank: int
    world_rank: int
    size: int

    def _init_base(self, comm_id: str, members: Sequence[int], world_rank: int) -> None:
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
        #: protocol recorder (REPRO_SANITIZE=1), installed by the backend
        self._recorder: ProtocolRecorder | None = None

    def _note_collective(self, op: str) -> None:
        if self._recorder is not None:
            self._recorder.note_collective(self.id, self.rank, op)

    def hb_clock(self) -> tuple | None:
        """This rank's current vector clock, when happens-before tracking
        is armed (thread backend under ``REPRO_SANITIZE=1``); ``None``
        otherwise.  Consumed by the tracing wrapper so message records
        carry their causal timestamps."""
        return None

    # ---- transport hooks (backend-specific) -----------------------------------

    def Send(self, data: Any, dest: int, tag: int = 0, *, move: bool = False) -> None:
        raise NotImplementedError

    def Recv(self, buf: np.ndarray | None = None, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Any:
        raise NotImplementedError

    def _exchange(self, seq: int, payload: Any) -> dict[int, Any]:
        raise NotImplementedError

    def _make_child(self, comm_id: str, members: Sequence[int]) -> CommunicatorBase:
        raise NotImplementedError

    def _isolate(self, data: Any) -> Any:
        """Decouple a collective payload from the caller's buffer.  The
        thread backend must copy (shared address space); transports that
        serialise anyway override this with the identity."""
        return _copy_payload(data)

    # ---- point-to-point wrappers ----------------------------------------------

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

    def barrier(self) -> None:
        self._note_collective("barrier")
        self._exchange(self._next_seq(), None)

    def bcast(self, data: Any, root: int = 0) -> Any:
        self._note_collective("bcast")
        all_data = self._exchange(
            self._next_seq(), self._isolate(data) if self.rank == root else None
        )
        return all_data[root]

    def gather(self, data: Any, root: int = 0) -> list[Any] | None:
        self._note_collective("gather")
        all_data = self._exchange(self._next_seq(), self._isolate(data))
        if self.rank == root:
            return [all_data[r] for r in range(self.size)]
        return None

    def allgather(self, data: Any) -> list[Any]:
        self._note_collective("allgather")
        all_data = self._exchange(self._next_seq(), self._isolate(data))
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
            self._next_seq(), [self._isolate(d) for d in data]
        )
        return [matrix[r][self.rank] for r in range(self.size)]

    # ---- communicator management ----------------------------------------------

    def split(self, color: int, key: int | None = None) -> CommunicatorBase:
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
        return self._make_child(child_id, members)

    def dup(self) -> CommunicatorBase:
        self._note_collective("dup")
        self.barrier()
        self._child_count += 1
        return self._make_child(f"{self.id}/d{self._child_count}", self.members)


class Communicator(CommunicatorBase):
    """The thread-backend communicator over a subset of world ranks."""

    def __init__(self, runtime: _Runtime, comm_id: str, members: Sequence[int],
                 world_rank: int):
        self._runtime = runtime
        self._init_base(comm_id, members, world_rank)
        self._recorder = runtime.recorder

    # ---- point-to-point -------------------------------------------------------

    def Send(self, data: Any, dest: int, tag: int = 0, *, move: bool = False) -> None:
        """Blocking standard send (buffered: copies and returns).

        With ``move=True`` the payload is enqueued without the eager
        copy — the caller promises never to reuse the buffer (zero-copy
        handoff for freshly packed messages).
        """
        if not 0 <= dest < self.size:
            raise SimMPIError(f"dest {dest} out of range for comm of size {self.size}")
        payload = data if move else _copy_payload(data)
        if isinstance(payload, np.ndarray):
            self.bytes_sent += payload.nbytes
        self.messages_sent += 1
        clock = None
        hb = self._runtime.hb
        if hb is not None:
            clock = hb.send_event(self.world_rank)
            if move and isinstance(payload, np.ndarray):
                # in-flight window: the sender's pool must not recycle
                # this buffer until the receipt happens-before the release
                hb.open_window(self.world_rank, payload,
                               self.members[dest], _send_site())
        if self._recorder is not None:
            self._recorder.note_send(self.id, self.rank, dest, tag)
            if move:
                freeze_payload(payload)
        box = self._runtime.mailbox(self.id, dest)
        box.put(_Message(source=self.rank, tag=tag, payload=payload,
                         clock=clock))

    def Recv(self, buf: np.ndarray | None = None, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Any:
        """Blocking receive.  With an ndarray ``buf`` the payload is copied
        into it (mpi4py upper-case convention); the payload is returned
        either way."""
        rt = self._runtime
        rt.wfg.enter(PendingOp(
            rank=self.world_rank, kind="Recv", comm=self.id,
            source=self.members[source] if source >= 0 else None,
            tag=None if tag == ANY_TAG else tag,
        ))
        try:
            msg = rt.mailbox(self.id, self.rank).get(source, tag, rt.timeout)
        except DeadlockError:
            raise
        except DeadlockTimeout as exc:
            raise rt.deadlock_error(str(exc)) from None
        finally:
            rt.wfg.exit(self.world_rank)
        if rt.hb is not None:
            rt.hb.recv_event(self.world_rank, msg.clock)
            if isinstance(msg.payload, np.ndarray):
                rt.hb.mark_received(self.world_rank, msg.payload)
        if self._recorder is not None:
            self._recorder.note_recv(self.id, msg.source, self.rank, msg.tag)
        if buf is not None:
            arr = np.asarray(msg.payload)
            if buf.shape != arr.shape:
                raise SimMPIError(
                    f"Recv buffer shape {buf.shape} != message shape {arr.shape}"
                )
            buf[...] = arr
        return msg.payload

    # ---- collective rendezvous / children -------------------------------------

    def _exchange(self, seq: int, payload: Any) -> dict[int, Any]:
        return self._runtime.exchange(self, seq, payload)

    def _make_child(self, comm_id: str, members: Sequence[int]) -> Communicator:
        return Communicator(self._runtime, comm_id, members, self.world_rank)

    def hb_clock(self) -> tuple | None:
        hb = self._runtime.hb
        return hb.clock_of(self.world_rank) if hb is not None else None


class SimMPI:
    """Launcher: run an SPMD function on ``nprocs`` simulated ranks.

    >>> def program(comm):
    ...     return comm.allreduce(comm.rank)
    >>> SimMPI.run(4, program)
    [6, 6, 6, 6]

    ``backend="thread"`` (default) runs one thread per rank in this
    process; ``backend="process"`` delegates to
    :class:`repro.parallel.procmpi.ProcMPI` — one OS process per rank
    with shared-memory message transport (the rank function and its
    arguments must then be picklable, i.e. defined at module level).
    """

    @staticmethod
    def run(
        nprocs: int,
        fn: Callable[..., Any],
        *args: Any,
        timeout: float = None,
        backend: str = "thread",
        **kwargs: Any,
    ) -> list[Any]:
        """Execute ``fn(comm, *args, **kwargs)`` on every rank; returns the
        per-rank return values in rank order.  Any rank exception aborts
        the world and is re-raised (with all failures noted)."""
        timeout = resolve_timeout(timeout)
        if backend != "thread":
            from repro.parallel.backends import get_backend

            return get_backend(backend).run(
                nprocs, fn, *args, timeout=timeout, **kwargs
            )
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        runtime = _Runtime(nprocs, timeout)
        results: list[Any] = [None] * nprocs

        def runner(rank: int) -> None:
            if runtime.hb is not None:
                runtime.hb.register_thread(rank)
            comm = Communicator(runtime, "world", list(range(nprocs)), rank)
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to launcher
                runtime.failures.append(exc)
                raise

        threads = [
            threading.Thread(target=runner, args=(r,), name=f"simmpi-rank-{r}", daemon=True)
            for r in range(nprocs)
        ]
        if runtime.hb is not None:
            activate_tracker(runtime.hb)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=timeout * 2)
                if t.is_alive():
                    raise runtime.deadlock_error(
                        f"{t.name} did not terminate"
                    )
        finally:
            if runtime.hb is not None:
                deactivate_tracker(runtime.hb)
        if runtime.failures:
            # concurrent timeouts race to snapshot the wait-for graph;
            # surface the failure that caught the cycle when one did
            fail = runtime.failures[0]
            for f in runtime.failures:
                if isinstance(f, DeadlockError) and f.cycle:
                    fail = f
                    break
            raise fail
        if runtime.recorder is not None:
            report = runtime.recorder.report()
            if runtime.hb is not None:
                report.races.extend(runtime.hb.races())
            set_last_protocol_report(report)
            if not report.ok:
                raise ProtocolViolation(report.summary())
        return results
