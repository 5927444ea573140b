"""SimMPI — the thread-backed launcher: one thread per rank, one process.

Each rank has one ``queue.Queue`` inbox; a send puts a message tuple on
the destination's inbox.  ``Send(..., move=True)`` enqueues the array
itself (zero-copy: the sender promised never to touch it again), any
other send enqueues an eager copy, so the sender may reuse its buffer at
once.  Collective payloads are copied once when they are deposited,
because every rank shares the one address space.

That is all this module adds: the communicator, the matching loop, the
collective rendezvous, the STUCK-notice wait-for protocol and the
launcher loop are the shared ones (:mod:`repro.parallel.simmpi`,
:mod:`repro.parallel.transport`).  Rank results and exceptions come back
as the rank's own objects — nothing is pickled — and the first failure
posts an abort to every inbox, so no rank thread outlives
:meth:`SimMPI.run`.

A *correctness* substrate: the GIL serialises NumPy-light work, so the
thread backend performs no real parallel speedup.
"""

from __future__ import annotations

import contextlib
import queue as _queue
import threading
from collections.abc import Callable
from typing import Any, NamedTuple

import numpy as np

from repro.checkers.sanitize import ProtocolViolation
from repro.parallel.simmpi import resolve_timeout
from repro.parallel.transport import RankRuntime, collect, serve_rank

__all__ = ["SimMPI"]

# ---- launcher registration (repro.parallel.backends) ------------------------------

LAUNCHER_NAME = "thread"

#: Registry capabilities record (see ``backends.LauncherCapabilities``).
LAUNCHER_CAPABILITIES = dict(picklable_fn=False, cross_host=False, self_launch=True)


def launcher_detect() -> tuple[bool, str]:
    """Availability probe: threads always work — this is the registry's
    graceful fallback on any machine with an interpreter."""
    return True, "one thread per rank, in-process queues (always available)"


def open_launcher(**opts):
    """Registry hook: the launcher object (``.run(nprocs, fn, ...)``)."""
    if opts:
        raise TypeError(f"thread launcher takes no options, got {sorted(opts)}")
    return SimMPI


#: Channel of the abort message the launcher posts to every inbox when
#: the world fails (no communicator id can start with a NUL byte).
_ABORT_CHANNEL = "\x00abort"


class _Msg(NamedTuple):
    """One message as posted to the receiver's inbox."""

    chan: str
    source: int
    tag: int
    payload: Any


def _copy_payload(data: Any) -> Any:
    """Eager copy giving buffered-send semantics."""
    if isinstance(data, np.ndarray):
        return data.copy()
    return data


class _ThreadRuntime(RankRuntime):
    """One rank thread's view of the world's inboxes."""

    def __init__(self, world_rank: int, nprocs: int, timeout: float,
                 inboxes: list[_queue.Queue], records: _queue.Queue):
        super().__init__(world_rank, nprocs, timeout)
        self.inboxes = inboxes
        self.records = records

    def send(self, dest_world: int, chan: str, src_rank: int, tag: int,
             payload: Any, move: bool) -> None:
        if not move:
            payload = _copy_payload(payload)
        self.inboxes[dest_world].put(_Msg(chan, src_rank, tag, payload))

    def _fetch(self, remaining: float) -> _Msg | None:
        inbox = self.inboxes[self.world_rank]
        try:
            msg = inbox.get(timeout=remaining)
        except _queue.Empty:
            return None
        if msg.chan == _ABORT_CHANNEL:
            inbox.put(msg)  # every later receive of this rank aborts too
            raise ProtocolViolation(f"world aborted: {msg.payload}")
        return msg

    def _materialise(self, msg: _Msg) -> Any:
        return msg.payload

    def _post_stuck(self, op: dict | None) -> None:
        self.records.put(("stuck", self.world_rank, op))

    def isolate(self, data: Any) -> Any:
        """Collective payloads share the address space: copy them."""
        return _copy_payload(data)


def _rank_main(runtime: _ThreadRuntime, fn: Callable[..., Any], args: tuple,
               kwargs: dict) -> None:
    """Body of one rank thread.  The outcome travels to the launcher as
    a record, so an exception is not left to the thread machinery (which
    would print a second traceback per rank)."""
    with contextlib.suppress(BaseException):
        serve_rank(runtime, fn, args, kwargs,
                   lambda status, outcome: runtime.records.put(
                       (status, runtime.world_rank, outcome)))


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
        per-rank return values in rank order.  The first rank exception
        aborts the world and is re-raised."""
        timeout = resolve_timeout(timeout)
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        inboxes = [_queue.Queue() for _ in range(nprocs)]
        records: _queue.Queue = _queue.Queue()
        threads = [
            threading.Thread(
                target=_rank_main,
                args=(_ThreadRuntime(r, nprocs, timeout, inboxes, records),
                      fn, args, kwargs),
                name=f"simmpi-rank-{r}", daemon=True,
            )
            for r in range(nprocs)
        ]
        error: BaseException | None = None
        try:
            for t in threads:
                t.start()
            results, error = collect(records, nprocs)
        except BaseException as exc:  # noqa: BLE001 - re-raised after teardown
            error = exc
        finally:
            if error is not None:
                for inbox in inboxes:
                    inbox.put(_Msg(_ABORT_CHANNEL, -1, -1,
                                   f"world shutting down: {error}"))
            for t in threads:
                if t.ident is not None:  # started
                    t.join(timeout=timeout)
        if error is not None:
            raise error
        return results
