"""Runtime sanitizers for buffer ownership and message protocol.

Everything here is gated on the ``REPRO_SANITIZE`` environment variable
(set it to ``1``); with the variable unset the hooks cost one ``None``
check.  Three behaviours turn on:

* :class:`repro.fd.kernels.BufferPool` poisons released buffers with
  NaN — a kernel that reads a buffer after ``give()`` propagates NaN
  into its output immediately instead of silently reusing stale data —
  and a double ``give()`` of the same array raises
  :class:`DoubleRelease`.
* ``Send(..., move=True)`` flips the payload's ``writeable`` flag off,
  so a write-after-move raises ``ValueError`` at the offending store
  (the NumPy equivalent of the REP002 lint rule, but at runtime and for
  payloads the dataflow analysis cannot see).
* Communicators record the message protocol; at world finalize the
  recorder checks for unmatched sends (a message no receive drained),
  tag collisions, per-rank collective-sequence divergence (the
  deadlock REP004 lints against), and unwaited non-blocking requests
  (an ``Isend``/``Irecv`` handle that was never ``Wait``-ed — the
  runtime counterpart of the REP009 lint rule, catching the dynamic
  paths the lexical check cannot see).  Any finding raises
  :class:`ProtocolViolation` from ``SimMPI.run``; the full report stays
  inspectable through :func:`last_protocol_report`.

  A *collision* is two simultaneously in-flight messages with the same
  ``(comm, source, dest, tag)`` sent from **different source lines** —
  two independent logical streams (say halo and overset) whose tag
  ranges drifted into overlap, so FIFO matching silently crosses them.
  Same-line repeats (a loop posting a burst on one tag) are the FIFO
  streams MPI defines and are not flagged.

Poisoning only ever writes to buffers whose contents are contractually
arbitrary, and freezing never changes values — so a program that obeys
the ownership rules is bitwise identical with the sanitizer on.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "DoubleRelease",
    "ProtocolRecorder",
    "ProtocolReport",
    "ProtocolViolation",
    "SanitizerError",
    "freeze_payload",
    "last_protocol_report",
    "poison_buffer",
    "sanitize_enabled",
    "set_last_protocol_report",
]


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for runtime checking."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in (
        "", "0", "false", "off", "no",
    )


class SanitizerError(RuntimeError):
    """Base class for sanitizer findings."""


class DoubleRelease(SanitizerError):
    """The same buffer was given back to a :class:`BufferPool` twice."""


class ProtocolViolation(SanitizerError):
    """The message-protocol recorder found an inconsistency at finalize."""


def poison_buffer(arr: np.ndarray) -> None:
    """Overwrite a released float/complex buffer with NaN in place."""
    if arr.dtype.kind in "fc" and arr.flags.writeable:
        arr.fill(np.nan)


def freeze_payload(payload: Any) -> None:
    """Make a move-handoff payload read-only so write-after-move raises."""
    if isinstance(payload, np.ndarray):
        payload.flags.writeable = False


#: (comm id, source rank, dest rank, tag) — the message matching key.
_MsgKey = tuple[str, int, int, int]


#: Modules whose frames are transport plumbing, not logical send sites.
_TRANSPORT_MODULES = (
    "repro.parallel.simmpi",
    "repro.parallel.procmpi",
    "repro.parallel.sockmpi",
    "repro.parallel.frames",
    "repro.parallel.transport",
    "repro.parallel.tracing",
    "repro.checkers",
)


def _send_site() -> str:
    """``file:line`` of the frame that initiated the current send,
    skipping the transport layer's own frames (halo/overset pack
    routines *are* logical send sites and are kept)."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_globals.get("__name__", "").startswith(
        _TRANSPORT_MODULES
    ):
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


@dataclass
class ProtocolReport:
    """Finalize-time findings of a :class:`ProtocolRecorder`."""

    unmatched_sends: list[dict[str, Any]] = field(default_factory=list)
    tag_collisions: list[dict[str, Any]] = field(default_factory=list)
    collective_mismatches: list[dict[str, Any]] = field(default_factory=list)
    unwaited_requests: list[dict[str, Any]] = field(default_factory=list)
    #: happens-before races on pooled move-send buffers (thread backend
    #: with the HB tracker armed; see repro.checkers.hb)
    races: list[dict[str, Any]] = field(default_factory=list)
    n_sends: int = 0
    n_recvs: int = 0
    n_collectives: int = 0
    n_requests: int = 0

    @property
    def ok(self) -> bool:
        return not (
            self.unmatched_sends
            or self.tag_collisions
            or self.collective_mismatches
            or self.unwaited_requests
            or self.races
        )

    def summary(self) -> str:
        if self.ok:
            return (
                f"protocol clean: {self.n_sends} sends matched, "
                f"{self.n_collectives} collective calls in lockstep, "
                f"{self.n_requests} requests waited"
            )
        lines = ["message-protocol violations:"]
        for u in self.unmatched_sends:
            lines.append(
                f"  unmatched send comm={u['comm']} {u['source']}->{u['dest']} "
                f"tag={u['tag']} x{u['count']} (never received)"
            )
        for c in self.tag_collisions:
            lines.append(
                f"  tag collision comm={c['comm']} {c['source']}->{c['dest']} "
                f"tag={c['tag']} ({c['in_flight']} in flight from distinct "
                f"sites: {', '.join(c.get('sites', []))})"
            )
        for m in self.collective_mismatches:
            lines.append(
                f"  collective divergence comm={m['comm']}: rank {m['rank']} ran "
                f"{m['sequence']} but rank {m['reference_rank']} ran "
                f"{m['reference_sequence']}"
            )
        for r in self.unwaited_requests:
            lines.append(
                f"  unwaited request {r['kind']} opened at {r['site']} "
                f"(never Wait-ed; see REP009)"
            )
        for rc in self.races:
            lines.append(
                f"  pooled-buffer race: move-send buffer "
                f"{rc['src']}->{rc['dest']} from {rc['open_site']} "
                f"released at {rc['release_site'] or 'unknown site'} — "
                f"{rc['why']}"
            )
        return "\n".join(lines)


class ProtocolRecorder:
    """Thread-safe log of the point-to-point and collective protocol.

    The thread backend shares one recorder across all ranks (full
    collision detection); the process backend keeps one per rank and
    merges picklable :meth:`snapshot` s at finalize — ordering across
    processes is lost there, so only the order-free checks (matching,
    collective lockstep) run on merged data.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sent: Counter = Counter()
        self._received: Counter = Counter()
        self._in_flight: dict[_MsgKey, list[str]] = {}
        self._collisions: list[dict[str, Any]] = []
        self._collectives: dict[tuple[str, int], list[str]] = {}
        #: request-lifetime tracking: token -> (kind, opening site); a
        #: token is removed when its request is waited, so whatever is
        #: left at finalize is an abandoned Isend/Irecv handle
        self._open_requests: dict[int, tuple[str, str]] = {}
        self._next_request_token = 0
        self._n_requests = 0

    # ---- recording hooks -------------------------------------------------------

    def note_send(self, comm_id: str, source: int, dest: int, tag: int) -> None:
        key: _MsgKey = (comm_id, source, dest, tag)
        site = _send_site()
        with self._lock:
            self._sent[key] += 1
            sites = self._in_flight.setdefault(key, [])
            # several in-flight messages on one key are a legal FIFO
            # stream when they come from the same source line; different
            # lines mean two logical streams share a tag — a collision
            if any(s != site for s in sites):
                self._collisions.append({
                    "comm": comm_id, "source": source, "dest": dest,
                    "tag": tag, "in_flight": len(sites) + 1,
                    "sites": sorted({*sites, site}),
                })
            sites.append(site)

    def note_recv(self, comm_id: str, source: int, dest: int, tag: int) -> None:
        key: _MsgKey = (comm_id, source, dest, tag)
        with self._lock:
            self._received[key] += 1
            sites = self._in_flight.get(key)
            if sites:
                sites.pop(0)

    def note_collective(self, comm_id: str, rank: int, op: str) -> None:
        with self._lock:
            self._collectives.setdefault((comm_id, rank), []).append(op)

    def note_request_open(self, kind: str) -> int:
        """Record a freshly created non-blocking request; returns a token
        the request hands back through :meth:`note_request_done` when it
        is waited."""
        site = _send_site()
        with self._lock:
            token = self._next_request_token
            self._next_request_token += 1
            self._open_requests[token] = (kind, site)
            self._n_requests += 1
            return token

    def note_request_done(self, token: int | None) -> None:
        with self._lock:
            self._open_requests.pop(token, None)

    # ---- process-backend merging -----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Picklable dump of this recorder (one rank's view)."""
        with self._lock:
            return {
                "sent": list(self._sent.items()),
                "received": list(self._received.items()),
                "collectives": [
                    (comm, rank, list(ops))
                    for (comm, rank), ops in self._collectives.items()
                ],
                "open_requests": [
                    list(entry) for entry in self._open_requests.values()
                ],
                "n_requests": self._n_requests,
            }

    @classmethod
    def merged(cls, snapshots: list[dict[str, Any]]) -> ProtocolRecorder:
        rec = cls()
        for snap in snapshots:
            for key, n in snap["sent"]:
                rec._sent[tuple(key)] += n
            for key, n in snap["received"]:
                rec._received[tuple(key)] += n
            for comm, rank, ops in snap["collectives"]:
                rec._collectives.setdefault((comm, rank), []).extend(ops)
            for kind, site in snap.get("open_requests", ()):
                token = rec._next_request_token
                rec._next_request_token += 1
                rec._open_requests[token] = (kind, site)
            rec._n_requests += snap.get("n_requests", 0)
        return rec

    # ---- finalize --------------------------------------------------------------

    def report(self) -> ProtocolReport:
        with self._lock:
            rep = ProtocolReport(
                tag_collisions=list(self._collisions),
                n_sends=sum(self._sent.values()),
                n_recvs=sum(self._received.values()),
                n_collectives=sum(len(v) for v in self._collectives.values()),
                n_requests=self._n_requests,
                unwaited_requests=[
                    {"kind": kind, "site": site}
                    for _token, (kind, site) in sorted(self._open_requests.items())
                ],
            )
            for key in sorted(self._sent):
                missing = self._sent[key] - self._received[key]
                if missing > 0:
                    comm, source, dest, tag = key
                    rep.unmatched_sends.append({
                        "comm": comm, "source": source, "dest": dest,
                        "tag": tag, "count": missing,
                    })
            by_comm: dict[str, dict[int, list[str]]] = {}
            for (comm, rank), ops in self._collectives.items():
                by_comm.setdefault(comm, {})[rank] = ops
            for comm, ranks in sorted(by_comm.items()):
                ref_rank = min(ranks)
                ref = ranks[ref_rank]
                for rank in sorted(ranks):
                    if ranks[rank] != ref:
                        rep.collective_mismatches.append({
                            "comm": comm, "rank": rank, "sequence": ranks[rank],
                            "reference_rank": ref_rank, "reference_sequence": ref,
                        })
            return rep


_last_report: ProtocolReport | None = None
_last_report_lock = threading.Lock()


def set_last_protocol_report(report: ProtocolReport) -> None:
    global _last_report
    with _last_report_lock:
        _last_report = report


def last_protocol_report() -> ProtocolReport | None:
    """The report from the most recent sanitized ``SimMPI.run`` finalize."""
    with _last_report_lock:
        return _last_report
