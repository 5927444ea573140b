"""The schedule model checker.

The protocol IR checker on hand-built Op programs (known deadlocks must
produce a cycle witness, known-safe protocols a proof), and the real
dynamo step protocol derived from the solver's own plan objects — which
must be provably deadlock-free for every layout under both send
semantics.
"""

import pytest

from repro.checkers.schedule import (
    Op,
    check_deadlock_free,
    dynamo_step_programs,
)

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
