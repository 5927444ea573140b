"""SimMPI — an MPI look-alike: one communicator over interchangeable wires.

Provides the MPI subset yycore needs (paper Section IV) to an SPMD rank
function running on one *worker per rank*:

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

There is one :class:`Communicator` over one runtime contract
(:class:`repro.parallel.transport.RankRuntime`: the matching loop, the
collective rendezvous and the wait-for protocol); what differs per
backend is only the wire — how one tagged message gets from rank a to
rank b.  Select a backend with
:func:`repro.parallel.backends.get_backend`:

* ``"thread"`` (:mod:`repro.parallel.threadmpi`) — one thread per
  rank, one in-process queue per rank.  A *correctness* substrate: the
  GIL serialises NumPy-light work, so it performs no real parallel
  speedup.
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
the wall-clock guard on blocking receives and collectives, wherever no
explicit ``timeout=`` is given.  Raise it on slow or heavily shared CI
machines where the default could misreport a busy world as a
:class:`DeadlockTimeout`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.checkers.hb import PendingOp
from repro.checkers.sanitize import ProtocolRecorder

ANY_SOURCE = -2
ANY_TAG = -1

def _timeout_from_env(default: float = 120.0) -> float:
    """``REPRO_SIMMPI_TIMEOUT`` (seconds), or ``default`` when unset/bad."""
    raw = os.environ.get("REPRO_SIMMPI_TIMEOUT", "")
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


#: Wall-clock guard for blocking operations when neither ``timeout=``
#: nor ``REPRO_SIMMPI_TIMEOUT`` sets one; a deadlocked test fails fast
#: instead of hanging the suite.
DEFAULT_TIMEOUT = 120.0


def resolve_timeout(timeout: float | None = None) -> float:
    """The single timeout resolution point: an explicit ``timeout``,
    else ``REPRO_SIMMPI_TIMEOUT`` (read at call time), else
    :data:`DEFAULT_TIMEOUT`.

    Every launcher (thread, process, socket — including the socket
    worker side) funnels through here instead of repeating the dance,
    so the env-var default stays consistent across backends.
    """
    return _timeout_from_env(DEFAULT_TIMEOUT) if timeout is None else timeout


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
    ``isolate(data)`` / ``recorder``.

    Every backend's runtime is a :class:`repro.parallel.transport.
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

    # ---- point-to-point -------------------------------------------------------

    def Send(self, data: Any, dest: int, tag: int = 0, *, move: bool = False) -> None:
        """Blocking standard send (buffered: the runtime copies or
        serialises the payload and returns).

        With ``move=True`` the caller promises never to reuse the buffer:
        the thread runtime enqueues it without the eager copy.
        """
        if not 0 <= dest < self.size:
            raise SimMPIError(f"dest {dest} out of range for comm of size {self.size}")
        if isinstance(data, np.ndarray):
            self.bytes_sent += data.nbytes
        self.messages_sent += 1
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
            payload = rt.recv(self.id, source, tag)[2]
        finally:
            rt.wfg_exit()
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
