"""Communication tracing for SimMPI programs.

Records every point-to-point message a communicator sends — (source,
destination, tag, bytes, wall time) — so communication patterns can be
inspected and asserted: the Section-IV structure (four-neighbour halo
plus sparse Yin<->Yang overset traffic) becomes a testable artefact,
and the communication matrix doubles as input for the performance
model's volume cross-checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.parallel.simmpi import Communicator

Array = np.ndarray


@dataclass(frozen=True)
class MessageRecord:
    source: int
    dest: int
    tag: int
    nbytes: int
    timestamp: float


@dataclass
class CommTrace:
    """Accumulated message records from one (traced) communicator."""

    records: list[MessageRecord] = field(default_factory=list)

    def add(self, rec: MessageRecord) -> None:
        self.records.append(rec)

    @property
    def n_messages(self) -> int:
        return len(self.records)

    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self.records)

    def matrix(self, size: int) -> Array:
        """(size x size) bytes-sent matrix: row = source, col = dest."""
        m = np.zeros((size, size), dtype=np.int64)
        for r in self.records:
            m[r.source, r.dest] += r.nbytes
        return m

    def partners_of(self, rank: int) -> tuple[set, set]:
        """(destinations rank sent to, sources rank received from)."""
        sent = {r.dest for r in self.records if r.source == rank}
        recv = {r.source for r in self.records if r.dest == rank}
        return sent, recv

    def by_tag(self) -> dict[int, int]:
        """Total bytes per tag — separates halo from overset traffic."""
        out: dict[int, int] = {}
        for r in self.records:
            out[r.tag] = out.get(r.tag, 0) + r.nbytes
        return out


class TracedCommunicator:
    """Wraps a :class:`Communicator`, recording every ``Send``.

    All other attributes delegate to the wrapped communicator, so a
    traced communicator drops into HaloExchanger / OversetExchanger
    unchanged.  The trace object is shared across ranks (thread-safe by
    the GIL for list appends), giving the global message log.

    Non-blocking operations delegate to the wrapped communicator's own
    ``Isend``/``Irecv``/``Waitall`` — the returned :class:`Request`
    objects keep their recorder lifetime tokens, so the sanitizer's
    unwaited-request check sees through the tracing layer.  ``Isend``
    is recorded at post time (these transports buffer eagerly, so post
    time is when the bytes leave).
    """

    def __init__(self, comm: Communicator, trace: CommTrace):
        self._comm = comm
        self.trace = trace

    def _record(self, dest: int, tag: int, data) -> None:
        nbytes = data.nbytes if isinstance(data, np.ndarray) else 0
        self.trace.add(
            MessageRecord(
                source=self._comm.rank, dest=dest, tag=tag,
                nbytes=int(nbytes),
                timestamp=time.perf_counter(),  # repro: noqa-REP015 — telemetry
            )
        )

    def Send(self, data, dest: int, tag: int = 0, *, move: bool = False) -> None:
        self._record(dest, tag, data)
        self._comm.Send(data, dest, tag, move=move)

    def Isend(self, data, dest: int, tag: int = 0, *, move: bool = False):
        self._record(dest, tag, data)
        return self._comm.Isend(data, dest, tag, move=move)

    def Irecv(self, buf=None, source=None, tag=None):
        from repro.parallel.simmpi import ANY_SOURCE, ANY_TAG

        source = ANY_SOURCE if source is None else source
        tag = ANY_TAG if tag is None else tag
        return self._comm.Irecv(buf, source, tag)

    def Waitall(self, requests):
        return self._comm.Waitall(requests)

    def __getattr__(self, name):
        return getattr(self._comm, name)
