"""MPIMPI — a thin mpi4py adapter behind the launcher registry.

When ``mpi4py`` is importable (it is an *optional* dependency — the
registry probe simply reports "not installed" otherwise), a program
launched under a real MPI runtime can run the same rank functions the
in-house backends run::

    mpirun -n 4 repro-paper run --backend mpi4py --ranks 4 ...

Unlike the other backends this launcher cannot spawn its own world
(``self_launch=False``): ``run(nprocs, ...)`` requires that the process
was *already started* under an MPI runtime whose ``COMM_WORLD`` size is
exactly ``nprocs``, and raises with the ``mpirun`` invocation to use
otherwise.

The adapter maps the :class:`~repro.parallel.simmpi.CommunicatorBase`
transport hooks onto mpi4py's pickle-based ``send``/``recv`` and
``allgather``; the *collective algorithms* still come from
``CommunicatorBase`` (rank-ordered reduction association), so results
remain bit-identical to the thread, process and socket backends —
``MPI_Allreduce``'s implementation-defined association is deliberately
not used.
"""

from __future__ import annotations

import importlib.util
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.checkers.hb import PendingOp
from repro.parallel.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    CommunicatorBase,
    Request,
    SimMPIError,
)

__all__ = ["MPICommunicator", "MPIMPI", "current_pending_op"]

#: Process-local blocked-op stack.  A real MPI runtime has no timeout
#: guard to hang a wait-for graph on, but a hung rank inspected from a
#: signal handler or debugger can still name the op it is parked in.
_PENDING: list[PendingOp] = []


def current_pending_op() -> PendingOp | None:
    """The blocking operation this rank process is currently inside
    (``None`` when computing).  Diagnostic hook for hang triage under
    ``mpirun`` — see ``docs/STATIC_ANALYSIS.md``."""
    return _PENDING[-1] if _PENDING else None

# ---- launcher registration (repro.parallel.backends) ------------------------------

LAUNCHER_NAME = "mpi4py"

#: Registry capabilities record (see ``backends.LauncherCapabilities``).
LAUNCHER_CAPABILITIES = dict(
    picklable_fn=False, cross_host=True, self_launch=False, max_ranks=None,
)


def launcher_detect() -> tuple[bool, str]:
    """Availability probe: is the optional ``mpi4py`` module installed?

    Only the module spec is checked — importing mpi4py initialises the
    MPI runtime, far too heavy a side effect for a probe.
    """
    if importlib.util.find_spec("mpi4py") is None:
        return False, (
            "mpi4py not installed (optional; needs a system MPI runtime)"
        )
    return True, "mpi4py over the system MPI (launch under mpirun)"


def open_launcher(**opts):
    """Registry hook: the launcher object (``.run(nprocs, fn, ...)``)."""
    if opts:
        raise TypeError(f"mpi4py launcher takes no options, got {sorted(opts)}")
    return MPIMPI


class MPICommunicator(CommunicatorBase):
    """A :class:`CommunicatorBase` view over an ``mpi4py`` communicator.

    Children made by ``split``/``dup`` call ``MPI_Comm_split`` on the
    parent's mpi4py communicator with the group's lowest world rank as
    the color (groups partition the members, so that color is unique).
    """

    def __init__(self, mpicomm, comm_id: str, members: Sequence[int],
                 world_rank: int):
        self._mpi = mpicomm
        self._init_base(comm_id, members, world_rank)

    # ---- point-to-point -------------------------------------------------------

    def Send(self, data: Any, dest: int, tag: int = 0, *, move: bool = False) -> None:
        if not 0 <= dest < self.size:
            raise SimMPIError(f"dest {dest} out of range for comm of size {self.size}")
        if isinstance(data, np.ndarray):
            self.bytes_sent += data.nbytes
        self.messages_sent += 1
        # pickle-based send: buffered like the other backends, and the
        # payload is serialised immediately so move=True needs no copy
        self._mpi.send(data, dest=dest, tag=tag)

    def Recv(self, buf: np.ndarray | None = None, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Any:
        from mpi4py import MPI

        mpi_source = MPI.ANY_SOURCE if source == ANY_SOURCE else source
        mpi_tag = MPI.ANY_TAG if tag == ANY_TAG else tag
        _PENDING.append(PendingOp(
            rank=self.world_rank, kind="Recv", comm=self.id,
            source=self.members[source] if source >= 0 else None,
            tag=None if tag == ANY_TAG else tag,
        ))
        try:
            payload = self._mpi.recv(source=mpi_source, tag=mpi_tag)
        finally:
            _PENDING.pop()
        if buf is not None:
            arr = np.asarray(payload)
            if buf.shape != arr.shape:
                raise SimMPIError(
                    f"Recv buffer shape {buf.shape} != message shape {arr.shape}"
                )
            buf[...] = arr
        return payload

    # ---- non-blocking point-to-point ------------------------------------------
    # These wrap mpi4py's genuinely asynchronous isend/irecv instead of
    # the CommunicatorBase eager fallbacks, so posted receives really do
    # progress while the caller computes.  mpi4py has no recorder here
    # (out-of-process finalize is the MPI runtime's), so the Request
    # carries no lifetime token.

    def Isend(self, data: Any, dest: int, tag: int = 0, *, move: bool = False) -> Request:
        del move  # pickle transport serialises immediately; no copy to skip
        if not 0 <= dest < self.size:
            raise SimMPIError(f"dest {dest} out of range for comm of size {self.size}")
        if isinstance(data, np.ndarray):
            self.bytes_sent += data.nbytes
        self.messages_sent += 1
        mreq = self._mpi.isend(data, dest=dest, tag=tag)
        return Request(_complete=mreq.wait)

    def Irecv(self, buf: np.ndarray | None = None, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Request:
        from mpi4py import MPI

        mpi_source = MPI.ANY_SOURCE if source == ANY_SOURCE else source
        mpi_tag = MPI.ANY_TAG if tag == ANY_TAG else tag
        mreq = self._mpi.irecv(source=mpi_source, tag=mpi_tag)

        def complete() -> Any:
            payload = mreq.wait()
            if buf is not None:
                arr = np.asarray(payload)
                if buf.shape != arr.shape:
                    raise SimMPIError(
                        f"Recv buffer shape {buf.shape} != message shape {arr.shape}"
                    )
                buf[...] = arr
            return payload

        return Request(_complete=complete)

    # ---- collective rendezvous / children -------------------------------------

    def _isolate(self, data: Any) -> Any:
        return data  # mpi4py serialises; no shared address space

    def _exchange(self, seq: int, payload: Any) -> dict[int, Any]:
        return dict(enumerate(self._mpi.allgather(payload)))

    def _make_child(self, comm_id: str, members: Sequence[int]) -> MPICommunicator:
        child = self._mpi.Split(color=min(members), key=self.rank)
        return MPICommunicator(child, comm_id, members, self.world_rank)


class MPIMPI:
    """Launcher: adopt the ambient ``MPI_COMM_WORLD`` as the rank world.

    There is nothing to launch — the MPI runtime already started one
    process per rank — so ``run`` wraps ``COMM_WORLD`` in a
    :class:`MPICommunicator`, executes the rank function, and allgathers
    the per-rank return values (every rank returns the full list, like
    the other launchers return to their caller).
    """

    name = "mpi4py"

    @staticmethod
    def run(
        nprocs: int,
        fn: Callable[..., Any],
        *args: Any,
        timeout: float = None,
        **kwargs: Any,
    ) -> list[Any]:
        from mpi4py import MPI

        del timeout  # blocking guards are the MPI runtime's concern
        world = MPI.COMM_WORLD
        if world.Get_size() != nprocs:
            raise SimMPIError(
                f"mpi4py backend needs an MPI world of exactly {nprocs} "
                f"rank(s), but this process runs in one of "
                f"{world.Get_size()}; launch as: mpirun -n {nprocs} "
                f"python -m repro.cli run --backend mpi4py --ranks {nprocs} ..."
            )
        comm = MPICommunicator(
            world, "world", list(range(nprocs)), world.Get_rank()
        )
        value = fn(comm, *args, **kwargs)
        return world.allgather(value)
