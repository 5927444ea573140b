"""What every rank runtime shares: everything but the wire.

The thread, process and socket backends differ only in how one tagged
message gets from rank a to rank b.  Everything else is written once
here:

* :class:`RankRuntime` — the per-rank runtime behind
  :class:`~repro.parallel.simmpi.Communicator`: the ``pending``-list /
  deadline matching loop of ``recv``, the wait-for op stack, the
  timeout diagnosis (a STUCK notice to the launcher plus this rank's
  view), and the collective rendezvous (gather-to-root + rebroadcast on
  a private control channel, with root-only ``gather`` / one-to-all
  ``bcast``), and the closing barrier that names every message no
  receive matched (:meth:`RankRuntime.close_world`).  A backend supplies
  ``send``, ``_fetch`` (the next message descriptor within ``remaining``
  seconds), ``_materialise`` and ``_post_stuck``, plus ``isolate`` where
  collective payloads would otherwise be shared and ``_discard`` where
  a message holds resources until it is received.
* The launcher skeleton — :data:`SPAWN` (the one ``multiprocessing``
  context), :func:`serve_rank` on the rank side, and on the launcher
  side :func:`collect` (one loop over one record queue for results,
  STUCK notices and aborts, with the dead-worker check and the merged
  :class:`~repro.parallel.simmpi.DeadlockError`) and
  :func:`reap`.  Launchers whose ranks live in other processes pickle a
  rank's outcome with :func:`pack_outcome` and hand
  :func:`unpack_outcome` to :func:`collect`.
* :func:`verify_protocol` — the finalize-time sanitizer merge: each
  rank's :class:`~repro.checkers.sanitize.ProtocolRecorder` snapshot is
  allgathered *over the transport itself* and every rank checks the
  identical merged report, raising the same
  :class:`~repro.checkers.sanitize.ProtocolViolation` everywhere.

Reductions still associate in rank order (the communicator's), so
results are bit-identical across the thread, process and socket
backends.
"""

from __future__ import annotations

import collections
import contextlib
import multiprocessing
import pickle
import queue as _queue
import time as _time
import traceback
from collections.abc import Callable, Sequence
from typing import Any

from repro.checkers.hb import PendingOp, WaitForGraph
from repro.checkers.sanitize import (
    ProtocolRecorder,
    ProtocolViolation,
    sanitize_enabled,
    set_last_protocol_report,
)
from repro.parallel.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    DeadlockError,
    DeadlockTimeout,
    SimMPIError,
)

__all__ = [
    "CLOSE_CHANNEL",
    "COLL_CHANNEL",
    "RankRuntime",
    "SPAWN",
    "WorkerError",
    "collect",
    "pack_outcome",
    "reap",
    "serve_rank",
    "unpack_outcome",
    "verify_protocol",
]

#: Collective traffic shares the rank inboxes with point-to-point
#: messages; its channel key is the comm id plus this suffix, so
#: collective tags (sequence numbers) can never collide with user tags.
COLL_CHANNEL = "\x00coll"

#: Channel of the closing barrier's markers (:meth:`RankRuntime.close_world`).
CLOSE_CHANNEL = "\x00close"

#: Rank processes start fresh interpreters: fork is unsafe with threads
#: in the parent, and the rank function travels by pickle either way.
SPAWN = multiprocessing.get_context("spawn")


class WorkerError(SimMPIError):
    """A rank process died, or failed with an exception that could not
    be re-raised directly (unpicklable; carries the formatted traceback)."""


class RankRuntime:
    """One rank's transport, minus the wire.

    Subclasses implement ``send(dest_world, chan, src_rank, tag,
    payload, move)`` plus three hooks:

    ``_fetch(remaining) -> descriptor | None``
        the next message addressed to this rank (anything with
        ``chan``, ``source`` and ``tag`` attributes), or ``None`` when
        nothing arrived within ``remaining`` seconds;
    ``_materialise(descriptor) -> payload``;
    ``_post_stuck(op_dict)``
        tell the launcher which op this rank is blocked in.

    A wire that shares memory between ranks also overrides
    :meth:`isolate`; one whose messages hold resources until received
    overrides :meth:`_discard`.
    """

    def __init__(self, world_rank: int, nprocs: int, timeout: float):
        self.world_rank = world_rank
        self.nprocs = nprocs
        self.timeout = timeout
        #: descriptors fetched but not yet matched
        self.pending: list[Any] = []
        #: blocking ops can nest (a collective's internal sends may park
        #: on slot acquisition); the innermost one names why we are stuck
        self._op_stack: list[PendingOp] = []
        #: one recorder per rank (REPRO_SANITIZE=1) — per-rank snapshots
        #: merge at finalize via :func:`verify_protocol`
        self.recorder: ProtocolRecorder | None = (
            ProtocolRecorder() if sanitize_enabled() else None
        )

    def _fetch(self, remaining: float) -> Any:
        raise NotImplementedError

    def _materialise(self, desc: Any) -> Any:
        raise NotImplementedError

    def _post_stuck(self, op: dict | None) -> None:
        raise NotImplementedError

    # ---- matching -------------------------------------------------------------

    def recv(self, chan: str, source: int, tag: int) -> tuple[int, int, Any]:
        """Match and return ``(source_rank, matched_tag, payload)``."""
        # deadlock-timeout bookkeeping, not numerics
        deadline = _time.monotonic() + self.timeout  # repro: noqa-REP015
        while True:
            for i, d in enumerate(self.pending):
                if d.chan == chan and (source == ANY_SOURCE or d.source == source) \
                        and (tag == ANY_TAG or d.tag == tag):
                    del self.pending[i]
                    return d.source, d.tag, self._materialise(d)
            remaining = deadline - _time.monotonic()  # repro: noqa-REP015
            desc = self._fetch(remaining) if remaining > 0 else None
            if desc is None:
                raise self.deadlock_error(
                    f"Recv(chan={chan!r}, source={source}, tag={tag}) timed "
                    f"out after {self.timeout}s on world rank {self.world_rank}"
                )
            self.pending.append(desc)

    # ---- wait-for registration ------------------------------------------------

    def wfg_enter(self, op: PendingOp) -> None:
        self._op_stack.append(op)

    def wfg_exit(self) -> None:
        if self._op_stack:
            self._op_stack.pop()

    def deadlock_error(self, base: str) -> DeadlockError:
        """Upgrade a bare timeout: post a STUCK notice with the innermost
        blocking op, so the launcher can merge every rank's notice into
        the world wait-for graph; the local error carries this rank's
        view."""
        op = self._op_stack[-1] if self._op_stack else None
        d = op.as_dict() if op is not None else None
        # best effort: the connection to the launcher may be gone
        with contextlib.suppress(OSError, ProtocolViolation, DeadlockTimeout):
            self._post_stuck(d)
        detail = op.describe() if op is not None else "an unregistered blocking op"
        return DeadlockError(
            f"{base}\nrank {self.world_rank} blocked in {detail}",
            pending={self.world_rank: d},
        )

    # ---- collective rendezvous ------------------------------------------------

    def _coll(self, comm: Communicator, what: str, seq: int) -> None:
        """Register a collective with the wait-for graph, so a rank stuck
        inside the rendezvous times out with a ``collective (comm, seq)``
        op naming the members that have not arrived."""
        self.wfg_enter(PendingOp(
            rank=comm.world_rank, kind="collective", comm=comm.id,
            seq=seq, members=tuple(comm.members), detail=what,
        ))

    # The communicator isolates collective payloads before they get here,
    # so the rendezvous hands them on without a second copy (move=True).

    def exchange(self, comm: Communicator, seq: int, payload: Any) -> dict[int, Any]:
        chan = comm.id + COLL_CHANNEL
        self._coll(comm, "exchange", seq)
        try:
            if comm.rank == 0:
                slot: dict[int, Any] = {0: payload}
                for _ in range(comm.size - 1):
                    src, _, p = self.recv(chan, ANY_SOURCE, seq)
                    slot[src] = p
                for r in range(1, comm.size):
                    self.send(comm.members[r], chan, 0, seq, slot, True)
                return slot
            self.send(comm.members[0], chan, comm.rank, seq, payload, True)
            return self.recv(chan, 0, seq)[2]
        finally:
            self.wfg_exit()

    def gather(self, comm: Communicator, seq: int, data: Any,
               root: int) -> list[Any] | None:
        """Root-only collection — the payloads are shipped to ``root``
        once instead of rebroadcast to every member (this is the path
        the end-of-run state gather takes, with multi-MB blocks)."""
        chan = comm.id + COLL_CHANNEL
        self._coll(comm, "gather", seq)
        try:
            if comm.rank == root:
                slot: dict[int, Any] = {root: data}
                for _ in range(comm.size - 1):
                    src, _, p = self.recv(chan, ANY_SOURCE, seq)
                    slot[src] = p
                return [slot[r] for r in range(comm.size)]
            self.send(comm.members[root], chan, comm.rank, seq, data, True)
            return None
        finally:
            self.wfg_exit()

    def bcast(self, comm: Communicator, seq: int, data: Any, root: int) -> Any:
        chan = comm.id + COLL_CHANNEL
        self._coll(comm, "bcast", seq)
        try:
            if comm.rank == root:
                for r in range(comm.size):
                    if r != root:
                        self.send(comm.members[r], chan, root, seq, data, True)
                return data
            return self.recv(chan, root, seq)[2]
        finally:
            self.wfg_exit()

    def isolate(self, data: Any) -> Any:
        """A wire that copies or serialises needs no eager copy."""
        return data

    def _discard(self, desc: Any) -> None:
        """Drop a message nobody will receive; nothing to give back."""

    def close_world(self) -> None:
        """The closing barrier of a rank whose function returned: name
        every message sent to this rank that no receive matched.

        Every rank sends a marker to every rank, itself included, and
        waits for all of them.  Each wire delivers one sender's messages
        to one receiver in order, so once a rank holds every marker, all
        messages sent to it sit in ``pending`` (a barrier relayed through
        a root gives no such order across senders on the process wire).
        Each unmatched message is discarded, which returns its arena
        slots on the process wire, and :class:`ProtocolViolation` names
        its ``chan``, ``source`` and ``tag``.
        """
        members = tuple(range(self.nprocs))
        for r in members:
            self.send(r, CLOSE_CHANNEL, self.world_rank, 0, None, True)
        self.wfg_enter(PendingOp(
            rank=self.world_rank, kind="collective", comm="world", seq=-1,
            members=members, detail="close",
        ))
        try:
            for _ in members:
                self.recv(CLOSE_CHANNEL, ANY_SOURCE, 0)
        finally:
            self.wfg_exit()
        stray, self.pending = self.pending, []
        for d in stray:
            self._discard(d)
        if stray:
            kinds = collections.Counter((d.chan, d.source, d.tag) for d in stray)
            raise ProtocolViolation(
                f"rank {self.world_rank}: {len(stray)} message(s) never "
                "received: " + "; ".join(
                    f"chan={chan!r} source={source} tag={tag}"
                    + (f" (x{n})" if n > 1 else "")
                    for (chan, source, tag), n in kinds.items())
            )

    def close(self) -> None:
        self.pending.clear()


def verify_protocol(world: Communicator, rec: ProtocolRecorder) -> None:
    """Allgather per-rank recorder snapshots and check the merged protocol.

    Runs on every rank after the rank function returns; each rank
    computes the identical merged report, so a violation raises the same
    :class:`ProtocolViolation` everywhere.
    """
    snapshots = world._exchange(world._next_seq(), rec.snapshot())
    merged = ProtocolRecorder.merged([snapshots[r] for r in range(world.size)])
    report = merged.report()
    set_last_protocol_report(report)
    if not report.ok:
        raise ProtocolViolation(report.summary())


# ---- launcher skeleton -------------------------------------------------------------
#
# Records on a launcher's queue are ``(kind, rank, body)``:
#   ("ok", rank, return value) / ("err", rank, exception)
#                                      packed by pack_outcome when the
#                                      rank lives in another process
#   ("stuck", rank, op dict or None)   a blocking op of rank timed out
#   ("abort", -1, reason)              the transport lost the world


def pack_outcome(status: str, outcome: Any) -> tuple[str, Any]:
    """A rank's return value (``"ok"``) or exception (``"err"``) as a
    picklable record body.  Pickling here, on the rank, turns an
    unpicklable outcome into text instead of a lost record."""
    if status == "ok":
        try:
            return "pickle", pickle.dumps(outcome)
        except Exception as exc:  # unpicklable return value
            return "text", (repr(outcome).encode() + b" (unpicklable: "
                            + repr(exc).encode() + b")")
    tb = "".join(traceback.format_exception(type(outcome), outcome,
                                            outcome.__traceback__))
    try:
        return "exc", (pickle.dumps(outcome), tb)
    except Exception:
        return "text", f"{type(outcome).__name__}: {outcome}\n{tb}"


def unpack_outcome(status: str, rank: int, packed: tuple[str, Any]) -> Any:
    """Inverse of :func:`pack_outcome`, on the launcher: the value, or
    the exception to raise (a :class:`WorkerError` carrying the
    traceback text when the original does not unpickle)."""
    how, body = packed
    if status == "ok":
        return pickle.loads(body) if how == "pickle" else body
    if how == "exc":
        blob, tb = body
        try:
            return pickle.loads(blob)
        except Exception:
            return WorkerError(f"rank {rank} failed:\n{tb}")
    return WorkerError(f"rank {rank} failed:\n{body}")


def serve_rank(runtime: RankRuntime, fn: Callable[..., Any], args: tuple,
               kwargs: dict, report: Callable[[str, Any], None]) -> Any:
    """Run ``fn`` on this rank's world communicator, close the world
    after a normal return (:meth:`RankRuntime.close_world`), and
    ``report`` the outcome (``"ok"`` plus the value, or ``"err"`` plus
    the exception).  Returns the value; re-raises the rank's exception
    after reporting."""
    try:
        comm = Communicator(runtime, "world", list(range(runtime.nprocs)),
                            runtime.world_rank)
        value = fn(comm, *args, **kwargs)
        if runtime.recorder is not None:
            verify_protocol(comm, runtime.recorder)
        runtime.close_world()
    except BaseException as exc:  # noqa: BLE001 - reported to the launcher
        with contextlib.suppress(OSError):
            report("err", exc)
        raise
    report("ok", value)
    return value


def _world_deadlock(first_line: str, stuck: dict[int, dict | None],
                    nprocs: int) -> DeadlockError:
    snap = WaitForGraph.snapshot_from_dicts(stuck, nprocs)
    cycle = WaitForGraph.find_cycle(snap)
    return DeadlockError(
        first_line + "\n" + WaitForGraph.describe(snap, cycle),
        pending=stuck,
        cycle=cycle,
    )


def collect(records, nprocs: int,
            procs: Sequence[Any] = (),
            unpack: Callable[[str, int, Any], Any] | None = None,
            ) -> tuple[list[Any], BaseException | None]:
    """Wait for every rank's result, or the first failure.

    ``records`` is the launcher's record queue (see above); ``unpack``
    turns an ``ok``/``err`` body into the value or exception (none when
    the bodies are the rank's own objects).  ``procs`` are the rank
    processes indexed by rank, when the launcher knows them: one that
    exits non-zero without reporting fails the world at once.

    There is no deadline on the world as a whole: a rank may compute
    for as long as it likes.  Every blocking operation of a rank has
    its own timeout, after which the rank posts a STUCK notice and
    fails; that failure ends the wait, with every rank's notice merged
    into the world wait-for graph.
    """
    results: list[Any] = [None] * nprocs
    stuck: dict[int, dict | None] = {}
    finished: set[int] = set()
    while len(finished) < nprocs:
        try:
            kind, rank, body = records.get(timeout=0.2)
        except _queue.Empty:
            dead = [(r, p.exitcode) for r, p in enumerate(procs)
                    if r not in finished and p.exitcode not in (None, 0)]
            if dead:
                return results, WorkerError("; ".join(
                    f"rank {r} exited with code {code} before reporting a result"
                    for r, code in dead
                ))
            continue
        if kind == "stuck":
            stuck[rank] = body
            continue
        if kind == "abort":
            return results, ProtocolViolation(body)
        finished.add(rank)
        if unpack is not None:
            body = unpack(kind, rank, body)
        if kind == "ok":
            results[rank] = body
            continue
        error = body
        if isinstance(error, DeadlockError):
            error = _merge_stuck(records, error, stuck, finished, nprocs)
        return results, error
    return results, None


def _merge_stuck(records, err: DeadlockError, stuck: dict[int, dict | None],
                 finished: set[int], nprocs: int) -> DeadlockError:
    """One rank timed out; merge every rank's STUCK notice into the world
    wait-for graph.  Peers share the same guard, so their notices land
    within moments of the first — give them a beat."""
    grace = _time.monotonic() + 1.5  # repro: noqa-REP015
    while not set(range(nprocs)) - finished <= set(stuck):
        remaining = grace - _time.monotonic()  # repro: noqa-REP015
        if remaining <= 0:
            break
        try:
            kind, rank, body = records.get(timeout=remaining)
        except _queue.Empty:
            break
        if kind == "stuck":
            stuck[rank] = body
        elif kind != "abort":
            finished.add(rank)
    merged = {r: stuck.get(r, err.pending.get(r)) for r in range(nprocs)}
    return _world_deadlock(str(err.args[0]).splitlines()[0], merged, nprocs)


def reap(procs: Sequence[Any], failed: bool, timeout: float) -> None:
    """Join the rank processes (briefly after a failure), then terminate
    whatever is still alive.  Processes that never started (the rank
    function failed to pickle) are skipped."""
    procs = [p for p in procs if p.pid is not None]
    grace = 1.0 if failed else timeout
    for p in procs:
        p.join(timeout=grace)
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=5.0)
