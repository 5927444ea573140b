"""Runtime sanitizers for buffer ownership and the collective protocol.

Everything here is gated on the ``REPRO_SANITIZE`` environment variable
(set it to ``1``); with the variable unset the hooks cost one ``None``
check.  Each hook stays because a mutation audit found a real-code bug
it catches and the tier-1 suite misses (docs/STATIC_ANALYSIS.md,
"Runtime checker audit"):

* :class:`repro.fd.kernels.BufferPool` poisons released buffers with
  NaN — a kernel that reads a buffer after ``give()`` propagates NaN
  into its output immediately instead of silently reusing stale data —
  and a double ``give()`` of the same array raises
  :class:`DoubleRelease`.
* Communicators record each rank's collective sequence and the
  lifetime of every non-blocking request; at world finalize a
  per-rank collective-sequence divergence (a collective under a
  rank-dependent branch) or an ``Isend``/``Irecv`` handle that was
  never ``Wait``-ed raises :class:`ProtocolViolation` from the
  launcher; the full report stays inspectable through
  :func:`last_protocol_report`.

Poisoning only ever writes to buffers whose contents are contractually
arbitrary, so a program that obeys the ownership rules is bitwise
identical with the sanitizer on.

:class:`ProtocolViolation` is also what the wire-frame and message-plan
validation of the transports raise, armed or not.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "DoubleRelease",
    "ProtocolRecorder",
    "ProtocolReport",
    "ProtocolViolation",
    "SanitizerError",
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
    """The message protocol is inconsistent: a recorder finding at
    finalize, or a malformed or mis-planned message on the wire."""


def poison_buffer(arr: np.ndarray) -> None:
    """Overwrite a released float/complex buffer with NaN in place."""
    if arr.dtype.kind in "fc" and arr.flags.writeable:
        arr.fill(np.nan)


#: Modules whose frames are transport plumbing, not logical call sites.
_TRANSPORT_MODULES = (
    "repro.parallel.simmpi",
    "repro.parallel.procmpi",
    "repro.parallel.sockmpi",
    "repro.parallel.transport",
    "repro.parallel.tracing",
    "repro.checkers",
)


def _call_site() -> str:
    """``file:line`` of the frame that opened the current request,
    skipping the transport layer's own frames."""
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

    collective_mismatches: list[dict[str, Any]] = field(default_factory=list)
    unwaited_requests: list[dict[str, Any]] = field(default_factory=list)
    n_collectives: int = 0
    n_requests: int = 0

    @property
    def ok(self) -> bool:
        return not (self.collective_mismatches or self.unwaited_requests)

    def summary(self) -> str:
        if self.ok:
            return (
                f"protocol clean: {self.n_collectives} collective calls in "
                f"lockstep, {self.n_requests} requests waited"
            )
        lines = ["message-protocol violations:"]
        for m in self.collective_mismatches:
            lines.append(
                f"  collective divergence comm={m['comm']}: rank {m['rank']} ran "
                f"{m['sequence']} but rank {m['reference_rank']} ran "
                f"{m['reference_sequence']}"
            )
        for r in self.unwaited_requests:
            lines.append(
                f"  unwaited request {r['kind']} opened at {r['site']} "
                f"(never Wait-ed)"
            )
        return "\n".join(lines)


class ProtocolRecorder:
    """Thread-safe log of collective sequences and request lifetimes.

    The thread backend shares one recorder across all ranks; the
    process and socket backends keep one per rank and merge picklable
    :meth:`snapshot` s at finalize.  Both checks are order-free, so the
    merged report equals the shared one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._collectives: dict[tuple[str, int], list[str]] = {}
        #: request-lifetime tracking: token -> (kind, opening site); a
        #: token is removed when its request is waited, so whatever is
        #: left at finalize is an abandoned Isend/Irecv handle
        self._open_requests: dict[int, tuple[str, str]] = {}
        self._next_request_token = 0
        self._n_requests = 0

    # ---- recording hooks -------------------------------------------------------

    def note_collective(self, comm_id: str, rank: int, op: str) -> None:
        with self._lock:
            self._collectives.setdefault((comm_id, rank), []).append(op)

    def note_request_open(self, kind: str) -> int:
        """Record a freshly created non-blocking request; returns a token
        the request hands back through :meth:`note_request_done` when it
        is waited."""
        site = _call_site()
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
            for comm, rank, ops in snap["collectives"]:
                rec._collectives.setdefault((comm, rank), []).extend(ops)
            for kind, site in snap["open_requests"]:
                token = rec._next_request_token
                rec._next_request_token += 1
                rec._open_requests[token] = (kind, site)
            rec._n_requests += snap["n_requests"]
        return rec

    # ---- finalize --------------------------------------------------------------

    def report(self) -> ProtocolReport:
        with self._lock:
            rep = ProtocolReport(
                n_collectives=sum(len(v) for v in self._collectives.values()),
                n_requests=self._n_requests,
                unwaited_requests=[
                    {"kind": kind, "site": site}
                    for _token, (kind, site) in sorted(self._open_requests.items())
                ],
            )
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
    """The report from the most recent sanitized world's finalize."""
    with _last_report_lock:
        return _last_report
