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

That is all this module adds: the communicator, the matching loop, the
collective rendezvous and the launcher skeleton are shared
(:mod:`repro.parallel.simmpi`, :mod:`repro.parallel.transport`).  A
rank whose blocking op times out posts a STUCK notice on the result
queue, and the launcher merges the notices into the world wait-for
graph.

Environment
-----------
``REPRO_PROCMPI_SLOTS`` / ``REPRO_PROCMPI_SLOT_BYTES``
    Arena geometry (slot count / slot size in bytes).
``REPRO_SIMMPI_TIMEOUT``
    Blocking-operation guard, shared with the thread backend.
"""

from __future__ import annotations

import contextlib
import os
import queue as _queue
from multiprocessing import shared_memory
from collections.abc import Callable
from typing import Any, NamedTuple

import numpy as np

from repro.checkers.hb import PendingOp
from repro.checkers.sanitize import ProtocolViolation
from repro.parallel.frames import ndarray_nbytes
from repro.parallel.simmpi import SimMPIError, resolve_timeout
from repro.parallel.transport import (
    SPAWN,
    RankRuntime,
    _pack_exception,
    collect,
    reap,
    serve_rank,
)

__all__ = ["ProcMPI"]

#: Descriptor payload kinds.
_KIND_SLOTS = 0  # ndarray in arena slots: meta = (slots, shape, dtype, nbytes)
_KIND_PICKLE = 1  # anything else: meta = the object itself (queue pickles it)

# ---- launcher registration (repro.parallel.backends) ------------------------------

LAUNCHER_NAME = "process"

#: Registry capabilities record (see ``backends.LauncherCapabilities``).
LAUNCHER_CAPABILITIES = dict(picklable_fn=True, cross_host=False, self_launch=True)


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


class _Desc(NamedTuple):
    """One message as posted to the receiver's inbox queue."""

    chan: str
    source: int
    tag: int
    kind: int
    meta: Any


class _ProcRuntime(RankRuntime):
    """One rank process's view of the shared-memory transport."""

    def __init__(self, world_rank: int, nprocs: int, arena_name: str,
                 slot_bytes: int, n_slots: int, free_q, inboxes, records,
                 timeout: float):
        super().__init__(world_rank, nprocs, timeout)
        self.slot_bytes = slot_bytes
        self.n_slots = n_slots
        #: refuse to occupy more than half the arena with one message —
        #: two such senders could otherwise deadlock on slot acquisition
        self.max_slots_per_msg = max(1, n_slots // 2)
        self.free_q = free_q
        self.inboxes = inboxes
        self.records = records
        # NB: attaching re-registers the name with the resource tracker,
        # but rank processes share the launcher's tracker (spawned
        # children inherit it), whose cache is a set — the launcher's
        # single unlink() cleans the one entry up.
        self.arena = shared_memory.SharedMemory(name=arena_name)

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
             payload: Any, move: bool) -> None:
        """Post one message: the memcpy into shared slots decouples
        sender and receiver, so ``move`` needs no special handling."""
        kind = _KIND_PICKLE  # non-arrays, and arrays over half the arena
        if isinstance(payload, np.ndarray) and payload.nbytes > 0:
            arr = payload if payload.flags.c_contiguous else np.ascontiguousarray(payload)
            n_chunks = -(-arr.nbytes // self.slot_bytes)
            if n_chunks <= self.max_slots_per_msg:
                slots = self._acquire_slots(n_chunks)
                self._write_slots(arr, slots)
                kind = _KIND_SLOTS
                payload = (tuple(slots), arr.shape, arr.dtype.str, arr.nbytes)
        self.inboxes[dest_world].put(_Desc(chan, src_rank, tag, kind, payload))

    def _fetch(self, remaining: float) -> _Desc | None:
        try:
            return self.inboxes[self.world_rank].get(timeout=remaining)
        except _queue.Empty:
            return None

    def _materialise(self, desc: _Desc) -> Any:
        return self._read_slots(desc.meta) if desc.kind == _KIND_SLOTS else desc.meta

    def _post_stuck(self, op: dict | None) -> None:
        self.records.put(("stuck", self.world_rank, op))

    def close(self) -> None:
        super().close()
        # a stray view can pin the mmap; leak it quietly in that case
        with contextlib.suppress(BufferError):
            self.arena.close()


def _worker_main(rank: int, nprocs: int, arena_name: str, slot_bytes: int,
                 n_slots: int, free_q, inboxes, records, timeout: float,
                 fn: Callable[..., Any], fn_args: tuple, fn_kwargs: dict) -> None:
    """Entry point of one rank process (module-level: spawn-picklable)."""
    try:
        runtime = _ProcRuntime(rank, nprocs, arena_name, slot_bytes, n_slots,
                               free_q, inboxes, records, timeout)
    except BaseException as exc:  # noqa: BLE001 - reported to launcher
        records.put(("err", rank, _pack_exception(exc)))
        return
    try:
        serve_rank(runtime, fn, fn_args, fn_kwargs,
                   lambda status, packed: records.put((status, rank, packed)))
    except BaseException:  # noqa: BLE001 - already reported to launcher
        pass
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
        **kwargs: Any,
    ) -> list[Any]:
        timeout = resolve_timeout(timeout)
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        n_slots, slot_bytes = _arena_geometry()
        arena = shared_memory.SharedMemory(create=True, size=n_slots * slot_bytes)
        free_q = SPAWN.Queue()
        for i in range(n_slots):
            free_q.put(i)
        inboxes = [SPAWN.Queue() for _ in range(nprocs)]
        records = SPAWN.Queue()
        procs = [
            SPAWN.Process(
                target=_worker_main,
                args=(r, nprocs, arena.name, slot_bytes, n_slots, free_q,
                      inboxes, records, timeout, fn, args, kwargs),
                name=f"procmpi-rank-{r}",
                daemon=True,
            )
            for r in range(nprocs)
        ]
        error: BaseException | None = None
        try:
            for p in procs:
                p.start()
            # spawn re-imports the interpreter per rank; allow generous
            # startup slack on top of the run-time guard
            results, error = collect(records, nprocs, 2 * timeout + 60.0 * nprocs,
                                     "process", procs)
        finally:
            reap(procs, error is not None, timeout)
            for q in [*inboxes, free_q, records]:
                q.close()
                q.cancel_join_thread()
            arena.close()
            with contextlib.suppress(FileNotFoundError):
                arena.unlink()
        if error is not None:
            raise error
        return results
