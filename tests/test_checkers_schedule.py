"""The schedule model checker and the REP010-REP011 concurrency rules.

Three layers: the protocol IR checker on hand-built Op programs (known
deadlocks must produce a cycle witness, known-safe protocols a proof),
the AST lifter end-to-end on source fixtures, and the real dynamo step
protocol lifted from the solver's own plan objects — which must be
provably deadlock-free for every layout under both send semantics.
"""

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers.schedule import (
    SCHEDULE_RULES,
    Op,
    check_deadlock_free,
    dynamo_step_programs,
    lift_function,
    schedule_lint_paths,
    schedule_lint_source,
)

#: every lint fixture must import repro.parallel — the schedule rules
#: (like the core rules) only apply inside the parallel scope
_SCOPE = "from repro.parallel.simmpi import SimMPI\n"


def codes(source, **kw):
    return [v.rule for v in schedule_lint_source(_SCOPE + source, **kw)]


def lint(source, **kw):
    return schedule_lint_source(_SCOPE + source, **kw)


# --------------------------------------------------------------------------
# IR-level model checker
# --------------------------------------------------------------------------

class TestCheckerIR:
    def test_cross_recv_deadlock(self):
        programs = [
            [Op("recv", peer=1, tag=0), Op("send", peer=1, tag=0)],
            [Op("recv", peer=0, tag=0), Op("send", peer=0, tag=0)],
        ]
        for sem in ("buffered", "rendezvous"):
            v = check_deadlock_free(programs, semantics=sem)
            assert not v.ok and v.witness is not None, sem
            assert v.witness.cycle is not None
            assert set(v.witness.cycle) == {0, 1}

    def test_matched_pairs_safe(self):
        programs = [
            [Op("send", peer=1, tag=0), Op("recv", peer=1, tag=1)],
            [Op("recv", peer=0, tag=0), Op("send", peer=0, tag=1)],
        ]
        for sem in ("buffered", "rendezvous"):
            v = check_deadlock_free(programs, semantics=sem)
            assert v.ok and v.witness is None, sem

    def test_head_to_head_sends_rendezvous_only(self):
        # both ranks Send first: fine with buffering, deadlock in
        # rendezvous (the MPI-unsafe pattern the strict mode exists for)
        programs = [
            [Op("send", peer=1, tag=0), Op("recv", peer=1, tag=0)],
            [Op("send", peer=0, tag=0), Op("recv", peer=0, tag=0)],
        ]
        assert check_deadlock_free(programs, semantics="buffered").ok
        v = check_deadlock_free(programs, semantics="rendezvous")
        assert v.witness is not None and v.witness.cycle is not None

    def test_irecv_breaks_the_ring(self):
        # post the receive first and the cyclic exchange is safe even
        # in rendezvous mode — exactly the halo exchange's shape
        def rank(r, n):
            return [
                Op("irecv", peer=(r - 1) % n, tag=0, handle=0),
                Op("send", peer=(r + 1) % n, tag=0),
                Op("wait", peer=(r - 1) % n, tag=0, handle=0),
            ]

        programs = [rank(r, 3) for r in range(3)]
        for sem in ("buffered", "rendezvous"):
            assert check_deadlock_free(programs, semantics=sem).ok, sem

    def test_collective_order_mismatch(self):
        # rank 0 waits for a message rank 1 only sends after the
        # barrier: a cross collective/p2p cycle
        programs = [
            [Op("recv", peer=1, tag=0),
             Op("coll", comm="world", seq=0, members=(0, 1))],
            [Op("coll", comm="world", seq=0, members=(0, 1)),
             Op("send", peer=0, tag=0)],
        ]
        v = check_deadlock_free(programs)
        assert v.witness is not None
        assert v.witness.cycle is not None

    def test_any_source_matches(self):
        programs = [
            [Op("recv", peer=None, tag=None), Op("recv", peer=None, tag=None)],
            [Op("send", peer=0, tag=1)],
            [Op("send", peer=0, tag=2)],
        ]
        for sem in ("buffered", "rendezvous"):
            assert check_deadlock_free(programs, semantics=sem).ok, sem

    def test_state_cap_is_undecided_not_a_verdict(self):
        programs = [
            [Op("send", peer=1, tag=t) for t in range(8)]
            + [Op("recv", peer=1, tag=8)],
            [Op("recv", peer=0, tag=None) for _ in range(8)]
            + [Op("send", peer=0, tag=8)],
        ]
        v = check_deadlock_free(programs, max_states=3)
        assert v.exhausted and not v.ok and v.witness is None

    def test_trace_is_minimal_for_immediate_deadlock(self):
        programs = [
            [Op("recv", peer=1, tag=0)],
            [Op("recv", peer=0, tag=0)],
        ]
        v = check_deadlock_free(programs)
        assert v.witness is not None
        assert v.witness.trace == []  # blocked before any event fires
        assert "cycle: " in v.witness.describe()


# --------------------------------------------------------------------------
# the AST lifter, end to end
# --------------------------------------------------------------------------

RING_DEADLOCK = """
def exchange(comm):
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size
    got = comm.Recv(source=left, tag=0)
    comm.Send(got, dest=right, tag=0)
"""

SAFE_IRECV_RING = """
def exchange(comm):
    left = (comm.rank - 1) % comm.size
    right = (comm.rank + 1) % comm.size
    req = comm.Irecv(source=left, tag=0)
    comm.Send(b"x", dest=right, tag=0)
    return req.wait()
"""

RANK_BRANCHED_SAFE = """
def swap(comm):
    if comm.rank == 0:
        comm.Send(b"a", dest=1, tag=1)
        return comm.Recv(source=1, tag=2)
    if comm.rank == 1:
        got = comm.Recv(source=0, tag=1)
        comm.Send(got, dest=0, tag=2)
        return got
"""


class TestRep010:
    def test_ring_deadlock_flagged_with_cycle(self):
        vs = lint(RING_DEADLOCK, rules=["REP010"])
        assert [v.rule for v in vs] == ["REP010"]
        assert "provably deadlocks" in vs[0].message
        assert "cycle:" in vs[0].message

    def test_safe_irecv_ring_clean(self):
        assert codes(SAFE_IRECV_RING, rules=["REP010"]) == []

    def test_rank_branched_protocol_clean(self):
        assert codes(RANK_BRANCHED_SAFE, rules=["REP010"]) == []

    def test_lifter_programs_match_hand_ir(self):
        fn = ast.parse(RING_DEADLOCK).body[0]
        programs = lift_function(fn, 2)
        kinds = [[op.kind for op in p] for p in programs]
        assert kinds == [["recv", "send"], ["recv", "send"]]

    def test_too_dynamic_is_never_reported(self):
        # unliftable (data-dependent peer): must stay silent, not guess
        src = """
def maybe(comm, peers):
    comm.Recv(source=peers[comm.rank], tag=0)
"""
        assert codes(src, rules=["REP010"]) == []

    def test_noqa_suppresses(self):
        src = RING_DEADLOCK.replace(
            "def exchange(comm):", "def exchange(comm):  # repro: noqa-REP010"
        )
        assert codes(src, rules=["REP010"]) == []

    def test_outside_parallel_scope_is_ignored(self):
        vs = schedule_lint_source(RING_DEADLOCK, rules=["REP010"])
        assert vs == []


class TestRep011:
    BAD = """
def overlapped(comm, buf, out):
    h = comm.Isend(buf, dest=1, tag=0)
    buf[0] = 0.0
    h.wait()
"""

    CLEAN = """
def overlapped(comm, buf, out):
    h = comm.Isend(buf, dest=1, tag=0)
    out[0] = 0.0
    h.wait()
    buf[0] = 0.0
"""

    WAITALL_LIST = """
def overlapped(comm, buf):
    reqs = [comm.Isend(buf, dest=1, tag=0)]
    buf[:] = 0.0
    comm.Waitall(reqs)
"""

    def test_write_between_post_and_wait(self):
        vs = lint(self.BAD, rules=["REP011"])
        assert [v.rule for v in vs] == ["REP011"]

    def test_write_after_wait_clean(self):
        assert codes(self.CLEAN, rules=["REP011"]) == []

    def test_waitall_list_form(self):
        assert codes(self.WAITALL_LIST, rules=["REP011"]) == ["REP011"]


# --------------------------------------------------------------------------
# hypothesis: random programs with known verdicts
# --------------------------------------------------------------------------

def _safe_program_source(pairs):
    """A 2-rank protocol built from a global order of matched pairs:
    for each (direction, tag), the sender Sends then the receiver
    Recvs, in the same global sequence on both ranks — deadlock-free
    by construction (each pair completes before the next starts)."""
    if not pairs:
        return "def prog(comm):\n    pass\n"
    lines0, lines1 = [], []
    for i, direction in enumerate(pairs):
        if direction == 0:
            lines0.append(f"comm.Send(b'x', dest=1, tag={i})")
            lines1.append(f"comm.Recv(source=0, tag={i})")
        else:
            lines1.append(f"comm.Send(b'x', dest=0, tag={i})")
            lines0.append(f"comm.Recv(source=1, tag={i})")
    return (
        "def prog(comm):\n"
        "    if comm.rank == 0:\n"
        + "\n".join("        " + ln for ln in lines0) + "\n"
        "    if comm.rank == 1:\n"
        + "\n".join("        " + ln for ln in lines1) + "\n"
    )


def _deadlocking_program_source(prefix):
    """Same construction, then both ranks Recv before the matching
    Send — a guaranteed cross-receive cycle at tag 0."""
    safe = _safe_program_source(prefix)
    return safe.replace(
        "def prog(comm):\n",
        "def prog(comm):\n"
        "    peer = 1 - comm.rank\n"
        "    comm.Recv(source=peer, tag=999)\n"
        "    comm.Send(b'x', dest=peer, tag=999)\n",
    )


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), max_size=6))
def test_known_safe_programs_pass(pairs):
    src = _SCOPE + _safe_program_source(pairs)
    vs = schedule_lint_source(src, rules=["REP010"])
    assert vs == [], src


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), max_size=4))
def test_known_deadlocking_programs_flagged(prefix):
    src = _SCOPE + _deadlocking_program_source(prefix)
    vs = schedule_lint_source(src, rules=["REP010"])
    assert [v.rule for v in vs] == ["REP010"], src


# --------------------------------------------------------------------------
# the real step protocol
# --------------------------------------------------------------------------

LAYOUTS = [(1, 1), (1, 2), (2, 2)]


class TestDynamoStepProtocol:
    @pytest.mark.parametrize("pth,pph", LAYOUTS)
    def test_step_protocol_deadlock_free(self, pth, pph):
        programs = dynamo_step_programs(14, 42, pth, pph)
        assert len(programs) == 2 * pth * pph
        for sem in ("buffered", "rendezvous"):
            v = check_deadlock_free(programs, semantics=sem)
            assert v.ok, (
                f"{pth}x{pph} {sem}: "
                + (v.witness.describe() if v.witness else "state cap hit")
            )

    def test_witness_when_protocol_broken(self):
        # sabotage: drop one rank's overset sends — its partner's
        # receives can never complete and the checker must say so
        programs = dynamo_step_programs(14, 42, 1, 2)
        programs[0] = [op for op in programs[0] if op.kind != "send"]
        v = check_deadlock_free(programs, semantics="buffered")
        assert v.witness is not None

    def test_source_tree_is_clean(self):
        violations, n_files = schedule_lint_paths(["src"])
        assert n_files > 50
        assert violations == []


def test_rule_catalogue_named():
    assert set(SCHEDULE_RULES) == {"REP010", "REP011"}
