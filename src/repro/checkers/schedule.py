"""Static schedule model checker and lint rules REP010-REP011.

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

AST lifter -> REP010
    Functions that take a ``comm`` parameter are *lifted* per rank:
    ``comm.rank``/``comm.size`` become constants, evaluable branches
    are taken, evaluable ``range`` loops unrolled, and the comm calls
    collected into ``Op`` programs — then model-checked for each small
    world size.  Anything not statically evaluable (data-dependent
    branches on received values, ``split``, unknown loop bounds) bails
    out conservatively: REP010 is only reported on *provable* deadlock
    cycles, never on "too dynamic to tell".

REP011 (syntactic)
    Flags writes to an ``Isend`` payload buffer between the post and
    its wait — the transport may not have serialized the buffer yet.
    (REP012, unpaired split-phase exchange, is retired with the
    split-phase exchange it checked; the number is not reused.)

``dynamo_step_programs``
    Derives the *actual* per-rank protocol of one solver step (overset
    ring exchange + two-phase halo exchange + the dt collective) from
    the same plan objects the runtime uses, so ``repro-paper analyze
    deadlock`` model-checks the real schedule, not a transcription.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, replace
from itertools import count
from pathlib import Path

from repro.checkers.linter import (
    Violation,
    _call_arg,
    _iter_files,
    _noqa_lines,
    _parallel_scope,
)

__all__ = [
    "Op",
    "Verdict",
    "Witness",
    "check_deadlock_free",
    "lift_function",
    "LiftError",
    "dynamo_step_programs",
    "SCHEDULE_RULES",
    "schedule_lint_source",
    "schedule_lint_paths",
]

ANY = None  # wildcard source / tag in the IR

SCHEDULE_RULES = {
    "REP010": "provable blocking-cycle deadlock in a lifted comm protocol",
    "REP011": "send-buffer write between an Isend post and its wait",
}

#: collective method names recognised by the lifter (all rendezvous on
#: a communicator in our runtimes — modelled as a barrier)
_COLL_METHODS = {
    "barrier", "bcast", "gather", "allgather", "allreduce", "alltoall", "dup",
}


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
    was hit first (no conclusion — callers must NOT report REP010).
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
# AST lifter: Python function -> per-rank Op programs
# --------------------------------------------------------------------------

class LiftError(Exception):
    """The function is too dynamic to lift (NOT an error to report)."""


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    pass


_MAX_UNROLL = 128
_MAX_OPS = 512


class _Lifter:
    """Abstract interpreter specialising one (rank, size) instance."""

    def __init__(self, fn: ast.FunctionDef, comm_name: str, rank: int,
                 size: int):
        self.fn = fn
        self.comm = comm_name
        self.rank = rank
        self.size = size
        self.env: dict[str, int] = {}
        self.handles: dict[str, Op] = {}      # name -> posted isend/irecv op
        self.lists: dict[str, list[Op]] = {}  # name -> list of posted ops
        self.ops: list[Op] = []
        self.n_handles = 0
        self.coll_seq = 0

    # ---- expression evaluation (ints/bools only) --------------------------

    def eval(self, node: ast.AST):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, bool)) or node.value is None:
                return node.value
            raise LiftError(f"non-integer constant at line {node.lineno}")
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in ("ANY_SOURCE", "ANY_TAG"):
                return ANY
            raise LiftError(f"unknown name {node.id!r} at line {node.lineno}")
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == self.comm:
            if node.attr == "rank":
                return self.rank
            if node.attr == "size":
                return self.size
            raise LiftError(f"comm.{node.attr} is not a constant")
        if isinstance(node, ast.BinOp):
            lhs, rhs = self.eval(node.left), self.eval(node.right)
            ops = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
                   ast.Mult: lambda a, b: a * b,
                   ast.FloorDiv: lambda a, b: a // b,
                   ast.Mod: lambda a, b: a % b}
            fn = ops.get(type(node.op))
            if fn is None:
                raise LiftError(f"operator at line {node.lineno}")
            return fn(lhs, rhs)
        if isinstance(node, ast.UnaryOp):
            v = self.eval(node.operand)
            if isinstance(node.op, ast.USub):
                return -v
            if isinstance(node.op, ast.Not):
                return not v
            raise LiftError(f"unary op at line {node.lineno}")
        if isinstance(node, ast.Compare):
            left = self.eval(node.left)
            for cmp_op, comparator in zip(node.ops, node.comparators):
                right = self.eval(comparator)
                ok = {ast.Eq: left == right, ast.NotEq: left != right,
                      ast.Lt: left < right, ast.LtE: left <= right,
                      ast.Gt: left > right, ast.GtE: left >= right,
                      }.get(type(cmp_op))
                if ok is None:
                    raise LiftError(f"comparison at line {node.lineno}")
                if not ok:
                    return False
                left = right
            return True
        if isinstance(node, ast.BoolOp):
            vals = [self.eval(v) for v in node.values]
            return all(vals) if isinstance(node.op, ast.And) else any(vals)
        raise LiftError(f"unliftable expression at line "
                        f"{getattr(node, 'lineno', 0)}")

    # ---- comm-usage detection (for safe skipping) -------------------------

    def touches_comm(self, node: ast.AST) -> bool:
        tracked = set(self.handles) | set(self.lists) | {self.comm}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in tracked:
                return True
        return False

    # ---- comm calls -------------------------------------------------------

    def _comm_call(self, call: ast.Call) -> str | None:
        if isinstance(call.func, ast.Attribute) and \
                isinstance(call.func.value, ast.Name) and \
                call.func.value.id == self.comm:
            return call.func.attr
        return None

    def _new_handle(self) -> int:
        self.n_handles += 1
        return self.n_handles

    def _emit(self, op: Op) -> Op:
        if len(self.ops) >= _MAX_OPS:
            raise LiftError("program too long to lift")
        self.ops.append(op)
        return op

    def _peer(self, node, default=...):
        if node is None:
            if default is ...:
                raise LiftError("missing peer argument")
            return default
        v = self.eval(node)
        if v is ANY or v == -2:  # simmpi.ANY_SOURCE == -2
            return ANY
        if not isinstance(v, int) or not (0 <= v < self.size):
            raise LiftError(f"peer {v!r} outside world of {self.size}")
        return v

    def _tag(self, node, default):
        if node is None:
            return default
        v = self.eval(node)
        if v is ANY or v == -1:  # simmpi.ANY_TAG == -1
            return ANY
        return v

    def lift_call(self, call: ast.Call) -> Op | None:
        """Emit ops for a comm method call; returns the request op for
        Isend/Irecv, None otherwise.  Raises LiftError when the call
        changes comm structure (split) or isn't recognised."""
        meth = self._comm_call(call)
        if meth is None:
            raise LiftError(f"call at line {call.lineno}")
        line = call.lineno
        if meth == "Send":
            self._emit(Op("send", peer=self._peer(_call_arg(call, 1, "dest")),
                          tag=self._tag(_call_arg(call, 2, "tag"), 0),
                          line=line))
            return None
        if meth == "Recv":
            self._emit(Op("recv",
                          peer=self._peer(_call_arg(call, 1, "source"),
                                          default=ANY),
                          tag=self._tag(_call_arg(call, 2, "tag"), ANY),
                          line=line))
            return None
        if meth == "Isend":
            h = self._new_handle()
            return self._emit(Op("isend",
                                 peer=self._peer(_call_arg(call, 1, "dest")),
                                 tag=self._tag(_call_arg(call, 2, "tag"), 0),
                                 handle=h, line=line))
        if meth == "Irecv":
            h = self._new_handle()
            return self._emit(Op("irecv",
                                 peer=self._peer(_call_arg(call, 1, "source"),
                                                 default=ANY),
                                 tag=self._tag(_call_arg(call, 2, "tag"), ANY),
                                 handle=h, line=line))
        if meth == "Sendrecv":
            # CommunicatorBase.Sendrecv posts the Irecv, then Send, then waits
            h = self._new_handle()
            r = self._emit(Op("irecv",
                              peer=self._peer(_call_arg(call, 2, "source"),
                                              default=ANY),
                              tag=self._tag(_call_arg(call, 4, "recvtag"),
                                            ANY),
                              handle=h, line=line))
            self._emit(Op("send", peer=self._peer(_call_arg(call, 1, "dest")),
                          tag=self._tag(_call_arg(call, 3, "sendtag"), 0),
                          line=line))
            self._emit(replace(r, kind="wait"))
            return None
        if meth == "Waitall":
            arg = _call_arg(call, 0, "requests")
            for op in self._handle_list(arg):
                self._emit(replace(op, kind="wait", line=line))
            return None
        if meth in _COLL_METHODS:
            seq = self.coll_seq
            self.coll_seq += 1
            self._emit(Op("coll", seq=seq, members=tuple(range(self.size)),
                          line=line))
            return None
        raise LiftError(f"comm.{meth} at line {line}")

    def _handle_list(self, node) -> list[Op]:
        if isinstance(node, ast.Name):
            if node.id in self.lists:
                return list(self.lists[node.id])
            if node.id in self.handles:
                return [self.handles[node.id]]
            raise LiftError(f"unknown request list {node.id!r}")
        if isinstance(node, ast.List):
            out = []
            for elt in node.elts:
                if isinstance(elt, ast.Name) and elt.id in self.handles:
                    out.append(self.handles[elt.id])
                else:
                    raise LiftError("non-handle in Waitall list")
            return out
        raise LiftError("unliftable Waitall argument")

    def _wait_on(self, name: str, line: int) -> None:
        op = self.handles.pop(name, None)
        if op is None:
            raise LiftError(f"wait on unknown handle {name!r}")
        self._emit(replace(op, kind="wait", line=line))

    # ---- statements -------------------------------------------------------

    def run(self) -> list[Op]:
        try:
            self.block(self.fn.body)
        except _Return:
            pass
        return self.ops

    def block(self, stmts) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Expr):
            self.expr_stmt(node.value)
        elif isinstance(node, ast.Assign):
            self.assign(node)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                try:
                    cur = self.env[node.target.id]
                    delta = self.eval(node.value)
                    fake = ast.BinOp(left=ast.Constant(cur), op=node.op,
                                     right=ast.Constant(delta))
                    ast.copy_location(fake, node)
                    ast.fix_missing_locations(fake)
                    self.env[node.target.id] = self.eval(fake)
                    return
                except (LiftError, KeyError):
                    pass
            if self.touches_comm(node):
                raise LiftError(f"aug-assign at line {node.lineno}")
            self.forget_targets([node.target])
        elif isinstance(node, ast.If):
            try:
                cond = bool(self.eval(node.test))
            except LiftError:
                if self.touches_comm(node) or any(
                    isinstance(s, (ast.Return, ast.Break, ast.Continue,
                                   ast.Raise))
                    for s in ast.walk(node)
                ):
                    # skipping a branch that ends execution early could
                    # fabricate ops the real run never posts — bail
                    raise
                return  # pure computation branch — irrelevant to comm
            self.block(node.body if cond else node.orelse)
        elif isinstance(node, ast.For):
            self.for_loop(node)
        elif isinstance(node, ast.While):
            try:
                if not self.eval(node.test):
                    return
            except LiftError:
                pass
            if self.touches_comm(node):
                raise LiftError(f"while loop at line {node.lineno}")
        elif isinstance(node, ast.Return):
            if node.value is not None and self.touches_comm(node.value):
                self.expr_stmt(node.value)  # e.g. ``return comm.Send(...)``
            raise _Return
        elif isinstance(node, ast.Break):
            raise _Break
        elif isinstance(node, ast.Continue):
            raise _Continue
        elif isinstance(node, (ast.Pass, ast.Import, ast.ImportFrom,
                               ast.Global, ast.Nonlocal, ast.Assert)):
            return
        else:
            if self.touches_comm(node):
                raise LiftError(f"{type(node).__name__} at line "
                                f"{getattr(node, 'lineno', 0)}")
            # comm-free statement (with/try/class/def/...): no effect on
            # the protocol, but invalidate any rebound names
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Assign, ast.AugAssign)):
                    targets = getattr(sub, "targets", None) or [sub.target]
                    self.forget_targets(targets)

    def expr_stmt(self, value: ast.expr) -> None:
        if isinstance(value, ast.Call):
            if self._comm_call(value) is not None:
                self.lift_call(value)  # bare Isend: request dropped (REP009)
                return
            func = value.func
            if isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name):
                name = func.value.id
                if name in self.handles and func.attr in ("wait", "Wait"):
                    self._wait_on(name, value.lineno)
                    return
                if name in self.lists and func.attr == "append":
                    arg = value.args[0] if value.args else None
                    if isinstance(arg, ast.Call) and \
                            self._comm_call(arg) is not None:
                        op = self.lift_call(arg)
                        if op is None:
                            raise LiftError(
                                f"append of non-request at line {value.lineno}")
                        self.lists[name].append(op)
                        return
                    raise LiftError(f"append at line {value.lineno}")
        if self.touches_comm(value):
            raise LiftError(f"expression at line {value.lineno}")

    def assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            val = node.value
            if isinstance(val, ast.Call) and self._comm_call(val) is not None:
                meth = self._comm_call(val)
                if meth in ("Isend", "Irecv"):
                    op = self.lift_call(val)
                    self.forget_name(name)
                    self.handles[name] = op
                    return
                # x = comm.Recv(...) / x = comm.bcast(...) etc: emit the
                # op; the received VALUE is unknown
                self.lift_call(val)
                self.forget_name(name)
                return
            if isinstance(val, ast.Call) and \
                    isinstance(val.func, ast.Attribute) and \
                    isinstance(val.func.value, ast.Name) and \
                    val.func.value.id in self.handles and \
                    val.func.attr in ("wait", "Wait"):
                self._wait_on(val.func.value.id, node.lineno)
                self.forget_name(name)
                return
            if isinstance(val, ast.List) and not val.elts:
                self.forget_name(name)
                self.lists[name] = []
                return
            try:
                v = self.eval(val)
                self.forget_name(name)
                if isinstance(v, (int, bool)):
                    self.env[name] = v
                return
            except LiftError:
                pass
            if self.touches_comm(val):
                raise LiftError(f"assignment at line {node.lineno}")
            self.forget_name(name)
            return
        if self.touches_comm(node):
            raise LiftError(f"assignment at line {node.lineno}")
        self.forget_targets(node.targets)

    def for_loop(self, node: ast.For) -> None:
        it = node.iter
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range" and not it.keywords):
            if self.touches_comm(node):
                raise LiftError(f"for loop at line {node.lineno}")
            self.forget_targets([node.target])
            return
        args = [self.eval(a) for a in it.args]
        values = list(range(*args))
        if len(values) > _MAX_UNROLL:
            raise LiftError(f"range too large to unroll at line {node.lineno}")
        if not isinstance(node.target, ast.Name):
            raise LiftError(f"loop target at line {node.lineno}")
        try:
            for v in values:
                self.forget_name(node.target.id)
                self.env[node.target.id] = v
                try:
                    self.block(node.body)
                except _Continue:
                    continue
        except _Break:
            return
        self.block(node.orelse)

    def forget_name(self, name: str) -> None:
        self.env.pop(name, None)
        self.handles.pop(name, None)
        self.lists.pop(name, None)

    def forget_targets(self, targets) -> None:
        for t in targets:
            for sub in ast.walk(t):
                if isinstance(sub, ast.Name):
                    self.forget_name(sub.id)


def _comm_param(fn: ast.FunctionDef) -> str | None:
    for arg in fn.args.args:
        if arg.arg == "comm":
            return arg.arg
    return None


def lift_function(fn: ast.FunctionDef, size: int,
                  comm_name: str = "comm") -> list[list[Op]]:
    """Lift ``fn`` into per-rank programs for a world of ``size``.

    Raises :class:`LiftError` when any rank's instance is too dynamic.
    """
    return [_Lifter(fn, comm_name, rank, size).run() for rank in range(size)]


# --------------------------------------------------------------------------
# REP010: model-check every liftable comm function
# --------------------------------------------------------------------------

def _check_rep010(tree: ast.AST, path: str, sizes, max_states) -> list:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        comm = _comm_param(node)
        if comm is None:
            continue
        for size in sizes:
            try:
                programs = lift_function(node, size, comm)
            except LiftError:
                continue  # too dynamic: never report on a guess
            if not any(programs):
                continue
            verdict = check_deadlock_free(programs, max_states=max_states)
            if verdict.witness is not None:
                out.append(Violation(
                    rule="REP010", path=path, line=node.lineno,
                    col=node.col_offset,
                    message=(f"'{node.name}' provably deadlocks on "
                             f"{size} ranks:\n" + verdict.witness.describe()),
                ))
                break  # one witness per function is enough
    return out


# --------------------------------------------------------------------------
# REP011: send-buffer write between Isend post and wait
# --------------------------------------------------------------------------

def _stmt_positions(fn: ast.AST):
    """Flat source-order list of (lineno, node) for all statements."""
    return sorted(
        ((s.lineno, s) for s in ast.walk(fn) if isinstance(s, ast.stmt)),
        key=lambda t: t[0],
    )


def _writes_to(node: ast.stmt, name: str) -> bool:
    """Does this statement mutate the array bound to ``name``?"""
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    for t in targets:
        for sub in ast.walk(t):
            if isinstance(sub, ast.Subscript) and \
                    isinstance(sub.value, ast.Name) and sub.value.id == name:
                return True
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        for kw in node.value.keywords:
            if kw.arg == "out" and isinstance(kw.value, ast.Name) \
                    and kw.value.id == name:
                return True
    return False


def _wait_line(fn: ast.AST, handle: str) -> int | None:
    """Line where request ``handle`` is waited on (directly, via Waitall,
    or via a list it was appended to), or None."""
    lists: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            f = call.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                if f.value.id == handle and f.attr in ("wait", "Wait",
                                                       "test"):
                    return node.lineno
                if f.attr == "append" and call.args and \
                        isinstance(call.args[0], ast.Name) and \
                        call.args[0].id == handle:
                    lists.add(f.value.id)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            f = node.value.func
            if isinstance(f, ast.Attribute) and \
                    isinstance(f.value, ast.Name) and f.value.id == handle \
                    and f.attr in ("wait", "Wait", "test"):
                return node.lineno
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "Waitall" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Name) and (arg.id in lists
                                              or arg.id == handle):
                return node.lineno
            if isinstance(arg, (ast.List, ast.Tuple)):
                for elt in arg.elts:
                    if isinstance(elt, ast.Name) and elt.id == handle:
                        return node.lineno
    return None


def _check_rep011(tree: ast.AST, path: str) -> list:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            # `h = comm.Isend(buf, ...)` or `reqs = [comm.Isend(buf, ...)]`
            posts = []
            if isinstance(node.value, ast.Call):
                posts = [node.value]
            elif isinstance(node.value, (ast.List, ast.Tuple)):
                posts = [e for e in node.value.elts if isinstance(e, ast.Call)]
            posts = [
                c for c in posts
                if isinstance(c.func, ast.Attribute) and c.func.attr == "Isend"
            ]
            if not posts:
                continue
            handle = node.targets[0].id
            wline = _wait_line(fn, handle)
            if wline is None:
                continue  # dropped request: REP009's business
            for call in posts:
                buf = _call_arg(call, 0, "data")
                if not isinstance(buf, ast.Name):
                    continue
                for line, stmt in _stmt_positions(fn):
                    if node.lineno < line <= wline and _writes_to(stmt, buf.id):
                        out.append(Violation(
                            rule="REP011", path=path, line=line,
                            col=stmt.col_offset,
                            message=(f"buffer '{buf.id}' written while "
                                     f"Isend posted at line {node.lineno} is "
                                     f"still in flight (waited at line "
                                     f"{wline}); the transport may not have "
                                     f"serialized it yet"),
                        ))
    return out


# --------------------------------------------------------------------------
# lint entry points (mirrors repro.checkers.linter)
# --------------------------------------------------------------------------

def schedule_lint_source(
    source: str,
    path: str = "<string>",
    rules=None,
    *,
    sizes=(2, 3, 4),
    max_states: int = 20_000,
    tree=None,
) -> list:
    """Run REP010-REP011 over one file's source.

    ``tree`` accepts a pre-parsed module (the single-pass driver's
    shared parse).
    """
    active = set(rules) if rules is not None else set(SCHEDULE_RULES)
    if tree is None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return []
    if not _parallel_scope(tree, path):
        return []
    found: list[Violation] = []
    if "REP010" in active:
        found.extend(_check_rep010(tree, path, sizes, max_states))
    if "REP011" in active:
        found.extend(_check_rep011(tree, path))
    noqa = _noqa_lines(source)
    found = [v for v in found if v.rule not in noqa.get(v.line, set())]
    return sorted(set(found), key=lambda v: (v.path, v.line, v.col, v.rule))


def schedule_lint_paths(paths, rules=None, **kw) -> tuple[list, int]:
    """Lint files/directories; returns (violations, files scanned)."""
    violations: list[Violation] = []
    n_files = 0
    for file in _iter_files([Path(p) for p in paths]):
        n_files += 1
        violations.extend(
            schedule_lint_source(file.read_text(), str(file), rules, **kw))
    return violations, n_files


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
