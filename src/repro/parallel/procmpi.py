"""ProcMPI — the process-backed SimMPI: real multi-core rank execution.

One OS **process** per rank (spawn-safe: the rank function and its
arguments travel by pickle, so they must be defined at module level),
with NumPy message payloads carried through a single
``multiprocessing.shared_memory`` arena:

* the launcher creates one shared segment divided into fixed-size
  *slots* (``REPRO_PROCMPI_SLOTS`` x ``REPRO_PROCMPI_SLOT_BYTES``,
  default 128 x 1 MiB) plus a free-slot queue;
* ``Send`` of an ndarray acquires as many slots as the payload needs,
  memcpys the bytes in, and posts a tiny descriptor — ``(comm, source,
  tag, slots, shape, dtype)`` — to the receiver's inbox queue.  Halo
  strips and overset columns therefore move by two memcpys through
  shared pages instead of being pickled through a pipe;
* the receiver copies out and returns the slots to the free queue.
  Non-array payloads (and arrays too large for half the arena) fall
  back to pickling through the descriptor queue.

Collectives run the *same* rank-ordered algorithms as the thread
backend (:class:`~repro.parallel.simmpi.CommunicatorBase`); the
rendezvous is a gather-to-root + rebroadcast over the slot transport,
so reductions associate identically on both backends and the parallel
solver stays bitwise-equal to the serial one under either.

Environment
-----------
``REPRO_PROCMPI_SLOTS`` / ``REPRO_PROCMPI_SLOT_BYTES``
    Arena geometry (slot count / slot size in bytes).
``REPRO_PROCMPI_START``
    ``multiprocessing`` start method (default ``spawn``; ``fork`` is
    faster to launch on Linux but unsafe with threads in the parent).
``REPRO_SIMMPI_TIMEOUT``
    Blocking-operation guard, shared with the thread backend.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import queue as _queue
import time as _time
import traceback
from multiprocessing import shared_memory
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
from repro.parallel.frames import ndarray_nbytes
from repro.parallel.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    CommunicatorBase,
    DeadlockError,
    DeadlockTimeout,
    SimMPIError,
    resolve_timeout,
)
from repro.parallel.transport import (
    COLL_CHANNEL,
    RootedRendezvous,
    verify_protocol,
)

__all__ = ["ProcMPI", "ProcCommunicator", "ProcWorkerError"]

#: Descriptor payload kinds.
_KIND_SLOTS = 0  # ndarray in arena slots: meta = (slots, shape, dtype, nbytes)
_KIND_PICKLE = 1  # anything else: meta = the object itself (queue pickles it)

#: Collective control channel, shared with the socket backend.
_COLL = COLL_CHANNEL

# ---- launcher registration (repro.parallel.backends) ------------------------------

LAUNCHER_NAME = "process"

#: Registry capabilities record (see ``backends.LauncherCapabilities``).
LAUNCHER_CAPABILITIES = dict(
    picklable_fn=True, cross_host=False, self_launch=True, max_ranks=None,
)


def launcher_detect() -> tuple[bool, str]:
    """Availability probe: needs POSIX shared memory + spawnable processes."""
    try:
        seg = shared_memory.SharedMemory(create=True, size=4096)
    except (OSError, PermissionError) as exc:
        return False, f"shared memory unavailable: {exc}"
    seg.close()
    seg.unlink()
    return True, "one OS process per rank, shared-memory slot arena"


def open_launcher(**opts):
    """Registry hook: the launcher object (``.run(nprocs, fn, ...)``)."""
    if opts:
        raise TypeError(f"process launcher takes no options, got {sorted(opts)}")
    return ProcMPI


def _arena_geometry() -> tuple[int, int]:
    slots = int(os.environ.get("REPRO_PROCMPI_SLOTS", "128"))
    slot_bytes = int(os.environ.get("REPRO_PROCMPI_SLOT_BYTES", str(1 << 20)))
    if slots < 2 or slot_bytes < 4096:
        raise SimMPIError(
            f"arena geometry {slots} x {slot_bytes} B too small "
            "(need >= 2 slots of >= 4096 B)"
        )
    return slots, slot_bytes


class ProcWorkerError(SimMPIError):
    """A rank process failed with an exception that could not be
    re-raised directly (unpicklable); carries the formatted traceback."""


#: Bytes per rank in the blocked-op register (length word + JSON blob).
_REG_SLOT = 512


class _OpRegister:
    """Cross-process blocked-op register: one fixed slot per rank.

    Each rank publishes the blocking operation it is currently parked
    in (a :class:`~repro.checkers.hb.PendingOp` as JSON) into its own
    slot of a tiny shared segment, so *any* process — a peer whose
    receive just timed out, or the launcher's run guard — can read a
    whole-world wait-for snapshot without anyone cooperating.

    Writes are length-last: the length word is zeroed, the payload
    bytes land, then the 4-byte little-endian length makes them
    visible.  A reader can therefore never see a length describing
    bytes that are not yet written; a reader racing a *rewrite* of the
    same slot can still tear, which surfaces as a JSON decode failure
    and is reported as "no op" rather than guessed at.
    """

    def __init__(self, nprocs: int, name: str | None = None):
        self.nprocs = nprocs
        if name is None:
            self.seg = shared_memory.SharedMemory(
                create=True, size=nprocs * _REG_SLOT
            )
            self.owner = True
        else:
            self.seg = shared_memory.SharedMemory(name=name)
            self.owner = False

    @property
    def name(self) -> str:
        return self.seg.name

    def publish(self, rank: int, op: PendingOp | None) -> None:
        base = rank * _REG_SLOT
        buf = self.seg.buf
        buf[base:base + 4] = b"\x00\x00\x00\x00"
        if op is None:
            return
        d = op.as_dict()
        blob = json.dumps(d).encode()
        if len(blob) > _REG_SLOT - 4:  # degrade: drop the long fields
            d["members"] = []
            d["detail"] = str(d.get("detail", ""))[:64]
            d["comm"] = str(d.get("comm", ""))[:32]
            blob = json.dumps(d).encode()
        buf[base + 4:base + 4 + len(blob)] = blob
        buf[base:base + 4] = len(blob).to_bytes(4, "little")

    def read_all(self) -> dict[int, dict | None]:
        """Best-effort snapshot of every rank's published op dict."""
        out: dict[int, dict | None] = {}
        buf = self.seg.buf
        for r in range(self.nprocs):
            base = r * _REG_SLOT
            n = int.from_bytes(bytes(buf[base:base + 4]), "little")
            if not 0 < n <= _REG_SLOT - 4:
                out[r] = None
                continue
            try:
                out[r] = json.loads(bytes(buf[base + 4:base + 4 + n]))
            except (UnicodeDecodeError, json.JSONDecodeError):
                out[r] = None  # torn rewrite; treat as running
        return out

    def close(self) -> None:
        with contextlib.suppress(BufferError):
            self.seg.close()

    def unlink(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            self.seg.unlink()


class _ProcRuntime:
    """One rank process's view of the shared transport."""

    def __init__(self, world_rank: int, nprocs: int, arena_name: str,
                 slot_bytes: int, n_slots: int, free_q, inboxes, timeout: float,
                 register_name: str | None = None):
        self.world_rank = world_rank
        self.nprocs = nprocs
        self.slot_bytes = slot_bytes
        self.n_slots = n_slots
        #: refuse to occupy more than half the arena with one message —
        #: two such senders could otherwise deadlock on slot acquisition
        self.max_slots_per_msg = max(1, n_slots // 2)
        self.free_q = free_q
        self.inboxes = inboxes
        self.timeout = timeout
        # NB: attaching re-registers the name with the resource tracker,
        # but rank processes share the launcher's tracker (spawned
        # children inherit it), whose cache is a set — the launcher's
        # single unlink() cleans the one entry up.
        self.arena = shared_memory.SharedMemory(name=arena_name)
        #: descriptors popped from my inbox but not yet matched
        self.pending: list[tuple] = []
        self.register = (
            _OpRegister(nprocs, name=register_name) if register_name else None
        )
        #: blocking ops can nest (a collective's internal sends may park
        #: on slot acquisition) — publish the innermost one
        self._op_stack: list[PendingOp] = []
        #: once a deadlock is diagnosed the published op stays up, so
        #: peers (and the launcher) that read later still see the full
        #: blocked picture while this process unwinds
        self._stuck = False

    # ---- wait-for registration (shared with RootedRendezvous) -----------------

    def wfg_enter(self, op: PendingOp) -> PendingOp:
        self._op_stack.append(op)
        if self.register is not None:
            self.register.publish(self.world_rank, op)
        return op

    def wfg_exit(self, rank: int | None = None) -> None:
        if self._op_stack:
            self._op_stack.pop()
        if self.register is not None and not self._stuck:
            self.register.publish(
                self.world_rank,
                self._op_stack[-1] if self._op_stack else None,
            )

    def deadlock_error(self, base: str) -> DeadlockTimeout:
        """Upgrade a bare timeout into a wait-for-graph diagnosis.

        Reads every rank's published op from the shared register;
        called while this rank's own op is still up (the registration
        is cleared on the way out, and stays up once ``_stuck``)."""
        if self.register is None:
            return DeadlockTimeout(base)
        self._stuck = True
        raw = self.register.read_all()
        snap = WaitForGraph.snapshot_from_dicts(raw, self.nprocs)
        cycle = WaitForGraph.find_cycle(snap)
        return DeadlockError(
            base + "\n" + WaitForGraph.describe(snap, cycle),
            pending=raw,
            cycle=cycle,
        )

    # ---- slot management ------------------------------------------------------

    def _acquire_slots(self, n: int) -> list[int]:
        slots: list[int] = []
        self.wfg_enter(PendingOp(
            rank=self.world_rank, kind="slot-acquire",
            detail=f"{n} slot(s) of {self.slot_bytes} B",
        ))
        try:
            for _ in range(n):
                slots.append(self.free_q.get(timeout=self.timeout))
        except _queue.Empty:
            for s in slots:
                self.free_q.put(s)
            raise self.deadlock_error(
                f"shared-memory arena exhausted: rank {self.world_rank} waited "
                f"{self.timeout}s for {n} slot(s); raise REPRO_PROCMPI_SLOTS "
                f"(= {self.n_slots}) or REPRO_PROCMPI_SLOT_BYTES"
            ) from None
        finally:
            self.wfg_exit()
        return slots

    def _write_slots(self, arr: np.ndarray, slots: list[int]) -> None:
        flat = arr.reshape(-1).view(np.uint8)
        pos = 0
        for s in slots:
            n = min(self.slot_bytes, arr.nbytes - pos)
            dst = np.frombuffer(self.arena.buf, dtype=np.uint8, count=n,
                                offset=s * self.slot_bytes)
            dst[:] = flat[pos:pos + n]
            pos += n

    def _read_slots(self, meta) -> np.ndarray:
        slots, shape, dtype_str, nbytes = meta
        dtype = np.dtype(dtype_str)
        # same header arithmetic as the socket frames: the announced
        # (shape, dtype) must account for every byte the message claims
        expected = ndarray_nbytes(tuple(shape), dtype_str)
        if expected != nbytes or len(slots) != -(-nbytes // self.slot_bytes):
            # return the slots before raising or the arena leaks them
            for s in slots:
                self.free_q.put(s)
            raise ProtocolViolation(
                f"slot message header inconsistent: shape {tuple(shape)} "
                f"dtype {dtype_str} implies {expected} B, but the header "
                f"claims {nbytes} B in {len(slots)} slot(s) of "
                f"{self.slot_bytes} B"
            )
        out = np.empty(shape, dtype=dtype)
        flat = out.reshape(-1).view(np.uint8)
        pos = 0
        for s in slots:
            n = min(self.slot_bytes, nbytes - pos)
            src = np.frombuffer(self.arena.buf, dtype=np.uint8, count=n,
                                offset=s * self.slot_bytes)
            flat[pos:pos + n] = src
            pos += n
            self.free_q.put(s)
        return out

    # ---- transport ------------------------------------------------------------

    def send(self, dest_world: int, chan: str, src_rank: int, tag: int,
             payload: Any) -> int:
        """Post one message; returns the payload byte count (accounting)."""
        nbytes = 0
        if isinstance(payload, np.ndarray) and payload.nbytes > 0:
            arr = payload if payload.flags.c_contiguous else np.ascontiguousarray(payload)
            nbytes = arr.nbytes
            n_chunks = -(-arr.nbytes // self.slot_bytes)
            if n_chunks <= self.max_slots_per_msg:
                slots = self._acquire_slots(n_chunks)
                self._write_slots(arr, slots)
                desc = (chan, src_rank, tag, _KIND_SLOTS,
                        (tuple(slots), arr.shape, arr.dtype.str, arr.nbytes))
            else:  # larger than half the arena: pickle through the queue
                desc = (chan, src_rank, tag, _KIND_PICKLE, arr)
        else:
            desc = (chan, src_rank, tag, _KIND_PICKLE, payload)
        self.inboxes[dest_world].put(desc)
        return nbytes

    def _materialise(self, desc) -> Any:
        kind, meta = desc[3], desc[4]
        if kind == _KIND_SLOTS:
            return self._read_slots(meta)
        return meta

    def recv(self, chan: str, source: int, tag: int) -> tuple[int, int, Any]:
        """Match and return ``(source_rank, matched_tag, payload)``."""
        def match_idx() -> int | None:
            for i, d in enumerate(self.pending):
                if d[0] != chan:
                    continue
                if (source == ANY_SOURCE or d[1] == source) and (
                    tag == ANY_TAG or d[2] == tag
                ):
                    return i
            return None

        # deadlock-timeout bookkeeping, not numerics
        deadline = _time.monotonic() + self.timeout  # repro: noqa-REP015
        while True:
            idx = match_idx()
            if idx is not None:
                desc = self.pending.pop(idx)
                return desc[1], desc[2], self._materialise(desc)
            remaining = deadline - _time.monotonic()  # repro: noqa-REP015
            if remaining <= 0:
                raise self.deadlock_error(
                    f"Recv(chan={chan!r}, source={source}, tag={tag}) timed out "
                    f"after {self.timeout}s on world rank {self.world_rank}"
                )
            with contextlib.suppress(_queue.Empty):  # loop re-checks the deadline
                self.pending.append(
                    self.inboxes[self.world_rank].get(timeout=remaining)
                )

    def close(self) -> None:
        self.pending.clear()
        if self.register is not None:
            self.register.close()
        # a stray view can pin the mmap; leak it quietly in that case
        with contextlib.suppress(BufferError):
            self.arena.close()


#: One recorder per rank *process* (REPRO_SANITIZE=1).  Unlike the
#: thread backend it only sees this rank's half of each message, so the
#: cross-rank checks happen at finalize by exchanging snapshots (see
#: :func:`_verify_protocol`).
_RECORDER: ProtocolRecorder | None = None


def _process_recorder() -> ProtocolRecorder | None:
    global _RECORDER
    if _RECORDER is None and sanitize_enabled():
        _RECORDER = ProtocolRecorder()
    return _RECORDER


#: Finalize-time sanitizer merge, shared with the socket backend.
_verify_protocol = verify_protocol


class ProcCommunicator(RootedRendezvous, CommunicatorBase):
    """MPI-style communicator where every rank is an OS process.

    Point-to-point payloads travel through the shared-memory arena;
    collectives come from :class:`CommunicatorBase` over the shared
    :class:`~repro.parallel.transport.RootedRendezvous` (gather-to-root
    + rebroadcast; ``gather``/``bcast`` specialised to avoid shipping
    the full payload dict to every member)."""

    def __init__(self, runtime: _ProcRuntime, comm_id: str,
                 members: Sequence[int], world_rank: int):
        self._rt = runtime
        self._init_base(comm_id, members, world_rank)
        self._recorder = _process_recorder()

    # ---- point-to-point -------------------------------------------------------

    def Send(self, data: Any, dest: int, tag: int = 0, *, move: bool = False) -> None:
        """Blocking standard send: memcpy into shared slots and post the
        descriptor.  The transfer itself decouples sender and receiver,
        so ``move=True`` needs no special handling here."""
        if not 0 <= dest < self.size:
            raise SimMPIError(f"dest {dest} out of range for comm of size {self.size}")
        nbytes = self._rt.send(self.members[dest], self.id, self.rank, tag, data)
        self.bytes_sent += nbytes
        self.messages_sent += 1
        if self._recorder is not None:
            self._recorder.note_send(self.id, self.rank, dest, tag)
            if move:
                # the bytes are already in shared memory; freezing the
                # caller's buffer still catches sender-side reuse, with
                # the same semantics as the thread backend
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

    def _make_child(self, comm_id: str, members: Sequence[int]) -> ProcCommunicator:
        return ProcCommunicator(self._rt, comm_id, members, self.world_rank)


# ---- worker bootstrap ------------------------------------------------------------


def _pack_result(value: Any) -> tuple[str, bytes]:
    try:
        return "pickle", pickle.dumps(value)
    except Exception as exc:  # unpicklable return value
        return "text", repr(value).encode() + b" (unpicklable: " + repr(exc).encode() + b")"


def _pack_exception(exc: BaseException) -> tuple[str, Any]:
    tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        return "exc", (pickle.dumps(exc), tb)
    except Exception:
        return "text", f"{type(exc).__name__}: {exc}\n{tb}"


def _worker_main(rank: int, nprocs: int, arena_name: str, slot_bytes: int,
                 n_slots: int, free_q, inboxes, result_q, timeout: float,
                 register_name: str | None,
                 fn: Callable[..., Any], fn_args: tuple, fn_kwargs: dict) -> None:
    """Entry point of one rank process (module-level: spawn-picklable)."""
    try:
        runtime = _ProcRuntime(rank, nprocs, arena_name, slot_bytes, n_slots,
                               free_q, inboxes, timeout,
                               register_name=register_name)
    except BaseException as exc:  # noqa: BLE001 - reported to launcher
        result_q.put(("err", rank, _pack_exception(exc)))
        return
    try:
        comm = ProcCommunicator(runtime, "world", list(range(nprocs)), rank)
        value = fn(comm, *fn_args, **fn_kwargs)
        rec = _process_recorder()
        if rec is not None:
            _verify_protocol(comm, rec)
        result_q.put(("ok", rank, _pack_result(value)))
    except BaseException as exc:  # noqa: BLE001 - reported to launcher
        result_q.put(("err", rank, _pack_exception(exc)))
    finally:
        runtime.close()


class ProcMPI:
    """Launcher: run an SPMD function with one OS process per rank.

    Mirrors :meth:`repro.parallel.simmpi.SimMPI.run`, but ``fn``,
    ``args`` and ``kwargs`` must be picklable (spawn start method) and
    the per-rank return values are shipped back through a result queue.
    """

    name = "process"

    @staticmethod
    def run(
        nprocs: int,
        fn: Callable[..., Any],
        *args: Any,
        timeout: float = None,
        start_method: str | None = None,
        **kwargs: Any,
    ) -> list[Any]:
        import multiprocessing as mp

        timeout = resolve_timeout(timeout)
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        method = start_method or os.environ.get("REPRO_PROCMPI_START", "spawn")
        ctx = mp.get_context(method)
        n_slots, slot_bytes = _arena_geometry()
        arena = shared_memory.SharedMemory(create=True, size=n_slots * slot_bytes)
        register = _OpRegister(nprocs)
        free_q = ctx.Queue()
        for i in range(n_slots):
            free_q.put(i)
        inboxes = [ctx.Queue() for _ in range(nprocs)]
        result_q = ctx.Queue()
        procs = [
            ctx.Process(
                target=_worker_main,
                args=(r, nprocs, arena.name, slot_bytes, n_slots, free_q,
                      inboxes, result_q, timeout, register.name,
                      fn, args, kwargs),
                name=f"procmpi-rank-{r}",
                daemon=True,
            )
            for r in range(nprocs)
        ]
        results: list[Any] = [None] * nprocs
        error: BaseException | None = None
        try:
            for p in procs:
                p.start()
            # spawn re-imports the interpreter per rank; allow generous
            # startup slack on top of the run-time guard
            deadline = _time.monotonic() + 2 * timeout + 60.0 * nprocs
            reported = [False] * nprocs
            for _ in range(nprocs):
                while True:
                    try:
                        kind, rank, packed = result_q.get(timeout=0.2)
                        break
                    except _queue.Empty:
                        dead = [
                            r for r, p in enumerate(procs)
                            if not reported[r] and p.exitcode not in (None, 0)
                        ]
                        if dead:
                            error = ProcWorkerError(
                                f"rank process(es) {dead} died (exit codes "
                                f"{[procs[r].exitcode for r in dead]}) without "
                                "reporting a result — startup crash?"
                            )
                        elif _time.monotonic() < deadline:
                            continue
                        else:
                            # the op register tells deadlock from crash:
                            # read every rank's published blocking op
                            raw = register.read_all()
                            snap = WaitForGraph.snapshot_from_dicts(raw, nprocs)
                            cycle = WaitForGraph.find_cycle(snap)
                            error = DeadlockError(
                                f"process world of {nprocs} did not report "
                                f"within {2 * timeout:.0f}s run guard\n"
                                + WaitForGraph.describe(snap, cycle),
                                pending=raw,
                                cycle=cycle,
                            )
                        break
                if error is not None:
                    break
                reported[rank] = True
                if kind == "ok":
                    how, blob = packed
                    results[rank] = pickle.loads(blob) if how == "pickle" else blob
                else:
                    how, payload = packed
                    if how == "exc":
                        blob, tb = payload
                        try:
                            error = pickle.loads(blob)
                        except Exception:
                            error = ProcWorkerError(f"rank {rank} failed:\n{tb}")
                    else:
                        error = ProcWorkerError(f"rank {rank} failed:\n{payload}")
                    break
        finally:
            grace = 1.0 if error is not None else timeout
            for p in procs:
                p.join(timeout=grace)
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5.0)
            for q in [*inboxes, free_q, result_q]:
                q.close()
                q.cancel_join_thread()
            arena.close()
            with contextlib.suppress(FileNotFoundError):
                arena.unlink()
            register.close()
            register.unlink()
        if error is not None:
            raise error
        return results
