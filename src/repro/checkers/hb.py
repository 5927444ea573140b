"""Wait-for graphs: a runtime hang becomes a named per-rank cycle.

Every *blocking* operation (``Recv``, a collective rendezvous, a
shared-arena slot acquire, the launcher join) registers a
:class:`PendingOp` on entry and clears it on exit.  When a timeout
fires, the snapshot of per-rank pending ops — who waits on whom, with
source/tag/collective seq — is attached to the raised
:class:`~repro.parallel.simmpi.DeadlockError` instead of a bare
``Recv(...) timed out`` guess.  :meth:`WaitForGraph.find_cycle`
extracts a blocked cycle from the snapshot when one exists.

Always on: registration is two dict writes per blocking op.  This
module is pure stdlib and pulls in *nothing* from
:mod:`repro.parallel`, so the transport modules can import it.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass, field

__all__ = [
    "PendingOp",
    "WaitForGraph",
]


# --------------------------------------------------------------------------
# wait-for graph
# --------------------------------------------------------------------------

@dataclass
class PendingOp:
    """One blocking operation a rank is currently inside."""

    rank: int
    kind: str                      # "Recv" | "collective" | "slot-acquire" | ...
    comm: str = "world"
    source: int | None = None      # WORLD rank waited on; None = ANY/unknown
    tag: int | None = None         # None = ANY_TAG (or not applicable)
    seq: int | None = None         # collective sequence number
    members: tuple = ()            # collective participants (world ranks)
    detail: str = ""
    since: float = field(default_factory=_time.monotonic)

    def as_dict(self) -> dict:
        return {
            "rank": self.rank, "kind": self.kind, "comm": self.comm,
            "source": self.source, "tag": self.tag, "seq": self.seq,
            "members": list(self.members), "detail": self.detail,
            "since": self.since,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PendingOp":
        return cls(
            rank=d.get("rank", -1), kind=d.get("kind", "?"),
            comm=d.get("comm", "?"), source=d.get("source"),
            tag=d.get("tag"), seq=d.get("seq"),
            members=tuple(d.get("members") or ()),
            detail=d.get("detail", ""), since=d.get("since", 0.0),
        )

    def describe(self) -> str:
        if self.kind == "collective":
            what = f"collective {self.detail or ''} seq={self.seq} on comm {self.comm!r}"
        else:
            src = "ANY" if self.source is None else self.source
            tag = "ANY" if self.tag is None else self.tag
            what = f"{self.kind}(source={src}, tag={tag}) on comm {self.comm!r}"
            if self.detail:
                what += f" [{self.detail}]"
        # diagnostic text only — never feeds numerics
        waited = _time.monotonic() - self.since  # repro: noqa-REP015
        if 0.0 < waited < 1e6:
            what += f", blocked {waited:.1f}s"
        return what


class WaitForGraph:
    """Per-world registry of blocking ops, with cycle extraction.

    ``enter``/``exit`` bracket every blocking call; ``pending_snapshot``
    is read on timeout to explain *why* the world is stuck.  The edge
    relation (`rank r` waits on `rank s`) is derived from the snapshot:

    * a ``Recv`` from a concrete source waits on that source;
    * an ANY-source receive waits on every *other blocked* rank (it can
      only be released by someone who is currently not sending);
    * a collective waits on every member that has not yet arrived at
      the same ``(comm, seq)`` rendezvous but is blocked elsewhere.
    """

    def __init__(self, nranks: int):
        self.nranks = nranks
        self._pending: dict[int, PendingOp] = {}
        self._lock = threading.Lock()

    def enter(self, op: PendingOp) -> PendingOp:
        with self._lock:
            self._pending[op.rank] = op
        return op

    def exit(self, rank: int) -> None:
        with self._lock:
            self._pending.pop(rank, None)

    def pending_snapshot(self) -> dict[int, PendingOp | None]:
        with self._lock:
            snap = dict(self._pending)
        return {r: snap.get(r) for r in range(self.nranks)}

    # ---- analysis (static methods: usable on merged cross-process views) --

    @staticmethod
    def edges(snapshot: dict) -> dict[int, list[int]]:
        """Waits-on adjacency derived from a pending-op snapshot."""
        blocked = {r for r, op in snapshot.items() if op is not None}
        out: dict[int, list[int]] = {}
        for r, op in snapshot.items():
            if op is None:
                continue
            if op.kind == "collective":
                targets = []
                for m in op.members:
                    if m == r:
                        continue
                    other = snapshot.get(m)
                    if other is None:
                        continue  # still running — may yet arrive
                    same = (other.kind == "collective"
                            and other.comm == op.comm and other.seq == op.seq)
                    if not same:
                        targets.append(m)
                out[r] = targets
            elif op.source is not None:
                out[r] = [op.source]
            else:  # ANY-source: released only by a rank that can still send
                out[r] = sorted(blocked - {r})
        return out

    @classmethod
    def find_cycle(cls, snapshot: dict) -> list[int] | None:
        """A blocked cycle ``[r0, r1, ..., r0]`` in the snapshot, if any."""
        adj = cls.edges(snapshot)
        color: dict[int, int] = {}
        stack: list[int] = []

        def dfs(u: int) -> list[int] | None:
            color[u] = 1
            stack.append(u)
            for v in adj.get(u, ()):  # noqa: B023 - local closure
                if color.get(v, 0) == 1:
                    return stack[stack.index(v):] + [v]
                if color.get(v, 0) == 0 and v in adj:
                    got = dfs(v)
                    if got is not None:
                        return got
            stack.pop()
            color[u] = 2
            return None

        for r in sorted(adj):
            if color.get(r, 0) == 0:
                got = dfs(r)
                if got is not None:
                    return got
        return None

    @classmethod
    def describe(cls, snapshot: dict, cycle: list[int] | None = None) -> str:
        """Human-readable per-rank wait-for summary (plus the cycle)."""
        lines = ["wait-for graph at timeout:"]
        for r in sorted(snapshot):
            op = snapshot[r]
            if op is None:
                lines.append(f"  rank {r}: running (no blocking op registered)")
            elif isinstance(op, PendingOp):
                lines.append(f"  rank {r}: blocked in {op.describe()}")
            else:  # raw dict (torn cross-process read)
                lines.append(f"  rank {r}: blocked in {op}")
        if cycle:
            lines.append("  blocked cycle: " + " -> ".join(str(r) for r in cycle))
        else:
            lines.append("  no blocked cycle found (slow rank, crash, or "
                         "external stall?)")
        return "\n".join(lines)

    @staticmethod
    def snapshot_from_dicts(raw: dict, nranks: int) -> dict[int, PendingOp | None]:
        """Rebuild a snapshot from per-rank op dicts (process/socket views)."""
        out: dict[int, PendingOp | None] = {}
        for r in range(nranks):
            d = raw.get(r)
            out[r] = PendingOp.from_dict(d) if isinstance(d, dict) else None
        return out
