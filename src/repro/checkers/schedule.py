"""Static schedule model checker for the solver's step protocol.

The paper's 15.2 TFlops run is one hand-scheduled communication pattern
across 4096 processes; a single mis-ordered send deadlocks it.  The
runtime sanitizer (:mod:`repro.checkers.sanitize`) can only judge the
*one* schedule that actually ran — this module reasons about *all* of
them, for small worlds, before anything runs:

``Op`` / ``check_deadlock_free``
    A tiny per-rank protocol IR (send/recv/isend/irecv/wait/coll) and a
    breadth-first model checker over the asynchronous product of the
    per-rank programs.  ``semantics="buffered"`` models our SimMPI
    runtimes (sends never block); ``semantics="rendezvous"`` is the
    conservative MPI-synchronous reading where a send completes only
    against a posted receive.  The search either proves
    deadlock-freedom (exhaustive for 2-8 ranks) or returns a shortest
    blocked-state witness with the waits-on cycle.

    State explosion is tamed with a persistent-set reduction: ops that
    can never block and only *enable* other ranks (buffered sends,
    receive posts, waits on already-satisfied requests) are fired
    eagerly as the sole successor — branching happens only at genuinely
    nondeterministic points (message matching, rendezvous pairing).

``dynamo_step_programs``
    Derives the *actual* per-rank protocol of one solver step (overset
    ring exchange + two-phase halo exchange + the dt collective) from
    the same plan objects the runtime uses, so ``repro-paper analyze
    deadlock`` model-checks the real schedule, not a transcription.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from itertools import count

__all__ = [
    "Op",
    "Verdict",
    "Witness",
    "check_deadlock_free",
    "dynamo_step_programs",
]

ANY = None  # wildcard source / tag in the IR


# --------------------------------------------------------------------------
# protocol IR
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One communication event in a per-rank program.

    ``kind`` is one of ``send | recv | isend | irecv | wait | coll``.
    ``peer`` is the destination (sends) or source (receives) expressed
    in the program's own rank space; ``None`` means ANY_SOURCE.
    ``tag=None`` on a receive means ANY_TAG.  ``handle`` links an
    ``isend``/``irecv`` post to its ``wait``; a ``wait`` carries the
    posted op's matching pattern along.  ``seq`` orders collectives on
    a communicator.  ``line`` survives lifting for witness messages.
    """

    kind: str
    peer: int | None = None
    tag: int | None = None
    comm: str = "world"
    handle: int | None = None
    seq: int | None = None
    members: tuple = ()
    line: int = 0

    def describe(self) -> str:
        if self.kind == "coll":
            return f"collective #{self.seq} on {self.comm!r}"
        peer = "ANY" if self.peer is None else self.peer
        tag = "ANY" if self.tag is None else self.tag
        if self.kind in ("send", "isend"):
            return f"{self.kind}(dest={peer}, tag={tag}) on {self.comm!r}"
        if self.kind == "wait":
            return (f"wait(h{self.handle}: source={peer}, tag={tag}) "
                    f"on {self.comm!r}")
        return f"{self.kind}(source={peer}, tag={tag}) on {self.comm!r}"


@dataclass
class Witness:
    """A reachable blocked state: who is stuck where, and the cycle."""

    pcs: tuple
    blocked: dict[int, Op]
    cycle: list[int] | None
    trace: list[tuple[int, Op]]

    def describe(self) -> str:
        lines = ["blocked state (no rank can advance):"]
        for r in sorted(self.blocked):
            op = self.blocked[r]
            at = f" (line {op.line})" if op.line else ""
            lines.append(f"  rank {r}: blocked in {op.describe()}{at}")
        if self.cycle:
            lines.append(
                "  cycle: " + " -> ".join(str(r) for r in self.cycle))
        lines.append(f"  reached after {len(self.trace)} events")
        return "\n".join(lines)


@dataclass
class Verdict:
    ok: bool                      # True iff exhaustively proved deadlock-free
    explored: int
    witness: Witness | None = None
    exhausted: bool = False       # state cap hit: UNKNOWN, not a proof


def _match(src_pat, tag_pat, src, tag) -> bool:
    return (src_pat is None or src_pat == src) and (tag_pat is None or tag_pat == tag)


def check_deadlock_free(
    programs: list[list[Op]],
    *,
    semantics: str = "buffered",
    max_states: int = 200_000,
) -> Verdict:
    """Exhaustively explore all schedules of ``programs``.

    Returns ``Verdict(ok=True)`` when every reachable state can make
    progress (or is terminal), a :class:`Witness` on the shortest
    reachable blocked state, or ``exhausted=True`` when ``max_states``
    was hit first (no conclusion — callers must NOT report a deadlock).
    """
    if semantics not in ("buffered", "rendezvous"):
        raise ValueError(f"unknown semantics {semantics!r}")
    sync = semantics == "rendezvous"
    n = len(programs)
    lens = tuple(len(p) for p in programs)

    # state: (pcs, inflight, filled, posted)
    #   inflight: frozenset of ((comm, src, dst, tag), count)
    #   filled:   frozenset of (rank, handle)   -- satisfied requests
    #   posted:   frozenset of (rank, comm, src_pat, tag_pat, handle)
    start = (tuple([0] * n), frozenset(), frozenset(), frozenset())

    def op_at(state, r):
        pc = state[0][r]
        return programs[r][pc] if pc < lens[r] else None

    def bump(counter: frozenset, key, delta: int) -> frozenset:
        d = dict(counter)
        c = d.get(key, 0) + delta
        if c:
            d[key] = c
        else:
            d.pop(key, None)
        return frozenset(d.items())

    def advance(state, ranks):
        pcs = list(state[0])
        for r in ranks:
            pcs[r] += 1
        return tuple(pcs)

    def slot_for(posted, sender, op):
        """Earliest posted receive slot of ``op.peer`` matching this
        send — MPI matches posted receives in posting order, and
        handles are allocated monotonically per rank."""
        match = [s for s in posted
                 if s[0] == op.peer and s[1] == op.comm
                 and _match(s[2], s[3], sender, op.tag)]
        return min(match, key=lambda s: s[4]) if match else None

    def local_successor(state):
        """Persistent-set reduction: fire the first can't-block,
        only-enables op as the sole successor."""
        pcs, inflight, filled, posted = state
        for r in range(n):
            op = op_at(state, r)
            if op is None:
                continue
            if op.kind == "isend" or (op.kind == "send" and not sync):
                key = (op.comm, r, op.peer, op.tag)
                nf = filled | {(r, op.handle)} if op.kind == "isend" else filled
                return ((advance(state, [r]), bump(inflight, key, +1), nf,
                         posted), (r, op))
            if op.kind == "irecv":
                np_ = posted | {(r, op.comm, op.peer, op.tag, op.handle)} \
                    if sync else posted
                return ((advance(state, [r]), inflight, filled, np_), (r, op))
            if op.kind == "wait" and (r, op.handle) in filled:
                return ((advance(state, [r]), inflight,
                         filled - {(r, op.handle)}, posted), (r, op))
            if op.kind in ("recv", "wait") and op.peer is not None \
                    and op.tag is not None:
                # deterministic consumption: only rank r can ever match
                # (comm, peer, r, tag), and our count model has no
                # payload, so all matching messages are interchangeable
                # — an independent transition, safe to fire eagerly
                key = (op.comm, op.peer, r, op.tag)
                if dict(inflight).get(key, 0) > 0:
                    if sync and op.kind == "recv":
                        # a blocked sender is an alternative pairing —
                        # genuinely different successor, keep branching
                        paired = any(
                            (sop := op_at(state, s)) is not None
                            and sop.kind == "send" and s == op.peer
                            and sop.comm == op.comm and sop.peer == r
                            and sop.tag == op.tag
                            for s in range(n))
                        if paired:
                            continue
                    return ((advance(state, [r]), bump(inflight, key, -1),
                             filled, posted), (r, op))
            if op.kind == "send" and sync:
                slot = slot_for(posted, r, op)
                if slot is not None and slot[2] is not None:
                    # the earliest matching slot names this sender
                    # explicitly: no other rank can ever take it, and
                    # later-posted slots can never outrank it — an
                    # independent, deterministic pairing
                    return ((advance(state, [r]), inflight,
                             filled | {(slot[0], slot[4])}, posted - {slot}),
                            (r, op))
        return None

    def successors(state):
        loc = local_successor(state)
        if loc is not None:
            return [loc]
        pcs, inflight, filled, posted = state
        out = []
        for r in range(n):
            op = op_at(state, r)
            if op is None:
                continue
            if op.kind in ("recv", "wait"):
                # consume a matching in-flight message (branch per
                # distinct key: ANY matching is true nondeterminism)
                for key, cnt in inflight:
                    comm, src, dst, tag = key
                    if comm == op.comm and dst == r and cnt > 0 \
                            and _match(op.peer, op.tag, src, tag):
                        nfill = filled
                        out.append(((advance(state, [r]),
                                     bump(inflight, key, -1), nfill, posted),
                                    (r, op)))
                if sync and op.kind == "recv":
                    # rendezvous pairing with a blocked sender — valid
                    # only when no earlier-posted slot of r claims that
                    # send (posted receives match in posting order, and
                    # a blocking recv is effectively the last post)
                    for s in range(n):
                        sop = op_at(state, s)
                        if (s != r and sop is not None and sop.kind == "send"
                                and sop.comm == op.comm and sop.peer == r
                                and _match(op.peer, op.tag, s, sop.tag)
                                and slot_for(posted, s, sop) is None):
                            out.append(((advance(state, [r, s]), inflight,
                                         filled, posted), (r, op)))
            elif op.kind == "send" and sync:
                # complete against the earliest matching posted slot
                slot = slot_for(posted, r, op)
                if slot is not None:
                    out.append(((advance(state, [r]), inflight,
                                 filled | {(slot[0], slot[4])},
                                 posted - {slot}), (r, op)))
            elif op.kind == "coll":
                if r != min(op.members):
                    continue  # generate the joint transition once
                ready = all(
                    (m_op := op_at(state, m)) is not None
                    and m_op.kind == "coll" and m_op.comm == op.comm
                    and m_op.seq == op.seq
                    for m in op.members
                )
                if ready:
                    out.append(((advance(state, list(op.members)), inflight,
                                 filled, posted), (r, op)))
        return out

    def blocked_cycle(blocked: dict[int, Op]) -> list[int] | None:
        adj: dict[int, list[int]] = {}
        for r, op in blocked.items():
            if op.kind == "coll":
                adj[r] = [m for m in op.members
                          if m != r and m in blocked
                          and not (blocked[m].kind == "coll"
                                   and blocked[m].comm == op.comm
                                   and blocked[m].seq == op.seq)]
            elif op.kind in ("recv", "wait"):
                adj[r] = [op.peer] if op.peer is not None \
                    else [x for x in blocked if x != r]
            elif op.kind == "send":  # rendezvous-blocked send
                adj[r] = [op.peer]
            else:
                adj[r] = []
        color: dict[int, int] = {}
        stack: list[int] = []

        def dfs(u):
            color[u] = 1
            stack.append(u)
            for v in adj.get(u, ()):
                if color.get(v, 0) == 1:
                    return stack[stack.index(v):] + [v]
                if color.get(v, 0) == 0 and v in adj:
                    got = dfs(v)
                    if got:
                        return got
            stack.pop()
            color[u] = 2
            return None

        for r in sorted(adj):
            if color.get(r, 0) == 0:
                got = dfs(r)
                if got:
                    return got
        return None

    seen = {start: None}   # state -> (prev_state, (rank, op)) for traces
    queue = deque([start])
    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        succ = successors(state)
        done = all(pc >= lens[r] for r, pc in enumerate(state[0]))
        if not succ and not done:
            blocked = {r: op for r in range(n)
                       if (op := op_at(state, r)) is not None}
            trace: list[tuple[int, Op]] = []
            cur = state
            while seen[cur] is not None:
                prev, label = seen[cur]
                trace.append(label)
                cur = prev
            trace.reverse()
            return Verdict(ok=False, explored=explored,
                           witness=Witness(pcs=state[0], blocked=blocked,
                                           cycle=blocked_cycle(blocked),
                                           trace=trace))
        for nxt, label in succ:
            if nxt not in seen:
                if len(seen) >= max_states:
                    return Verdict(ok=False, explored=explored,
                                   exhausted=True)
                seen[nxt] = (state, label)
                queue.append(nxt)
    return Verdict(ok=True, explored=explored)


# --------------------------------------------------------------------------
# the real step protocol, derived from the solver's own plan objects
# --------------------------------------------------------------------------

def dynamo_step_programs(
    nth: int,
    nph: int,
    pth: int,
    pph: int,
    *,
    nr: int = 5,
    with_allreduce: bool = True,
) -> list[list[Op]]:
    """Per-world-rank Op programs for one ``enforce`` stage.

    Built from the same :class:`~repro.parallel.overset_comm.OversetExchanger`
    plans and cartesian neighbour arithmetic the runtime uses (world
    rank = panel_index * ranks_per_panel + panel_rank, matching
    ``ParallelPanelSolver``), so the checked protocol *is* the shipped
    one.
    """
    # lazy imports: this module must stay importable without numpy et al
    from repro.grids.yinyang import YinYangGrid
    from repro.parallel.decomposition import PanelDecomposition
    from repro.parallel.halo import HaloExchanger
    from repro.parallel.overset_comm import OversetExchanger

    grid = YinYangGrid(nr, nth, nph)
    decomp = PanelDecomposition(nth, nph, pth, pph)
    nper = decomp.nranks
    programs: list[list[Op]] = []
    for world_rank in range(2 * nper):
        panel_index, prank = divmod(world_rank, nper)
        ov = OversetExchanger(grid, decomp, None, panel_index, prank)
        plan = ov.protocol_ops(tag0=0)
        halo = HaloExchanger.protocol_ops((pth, pph), prank)
        comm = f"panel{panel_index}"
        ops: list[Op] = []
        handles = count(1)
        # enforce(): overset exchange_state, then the two halo phases —
        # each exchange fully (post recvs, send, wait) before the next
        exchanges = [("world", 0, plan["recvs"], plan["sends"])] + [
            (comm, panel_index * nper, phase["recvs"], phase["sends"])
            for phase in halo
        ]
        for on, base, recvs, sends in exchanges:
            posted = [Op("irecv", peer=base + src, tag=tag, comm=on,
                         handle=next(handles)) for src, tag in recvs]
            ops.extend(posted)
            ops.extend(Op("send", peer=base + dest, tag=tag, comm=on)
                       for dest, tag in sends)
            ops.extend(replace(op, kind="wait") for op in posted)
        if with_allreduce:
            # the adaptive-dt panel allreduce + world min-reduction
            ops.append(Op("coll", comm=comm, seq=0,
                          members=tuple(panel_index * nper + r
                                        for r in range(nper))))
            ops.append(Op("coll", comm="world", seq=0,
                          members=tuple(range(2 * nper))))
        programs.append(ops)
    return programs
