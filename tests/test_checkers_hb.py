"""Wait-for graphs and deadlock cycles.

Unit-level coverage of :mod:`repro.checkers.hb` (``PendingOp``/
``WaitForGraph``) plus end-to-end induced hangs on all three in-house
backends: a two-rank cross-receive must raise :class:`DeadlockError`
*naming the blocked cycle* on the thread, process and socket
launchers.  Rank functions for
the spawn/pickle paths are module-level.
"""

import contextlib
import threading

import numpy as np
import pytest

from repro.checkers.hb import PendingOp, WaitForGraph
from repro.parallel.procmpi import ProcMPI
from repro.parallel.simmpi import DeadlockError, DeadlockTimeout
from repro.parallel.sockmpi import SockMPI, worker_join
from repro.parallel.threadmpi import SimMPI


class TestPendingOp:
    def test_dict_roundtrip(self):
        op = PendingOp(rank=2, kind="Recv", comm="world", source=1, tag=7,
                       detail="halo south")
        back = PendingOp.from_dict(op.as_dict())
        assert (back.rank, back.kind, back.source, back.tag) == (2, "Recv", 1, 7)
        assert back.detail == "halo south"

    def test_describe_recv_and_any(self):
        op = PendingOp(rank=0, kind="Recv", source=3, tag=9)
        assert "Recv(source=3, tag=9)" in op.describe()
        anyop = PendingOp(rank=0, kind="Recv", source=None, tag=None)
        assert "Recv(source=ANY, tag=ANY)" in anyop.describe()

    def test_describe_collective(self):
        op = PendingOp(rank=1, kind="collective", comm="yin", seq=4,
                       members=(0, 1, 2), detail="allreduce")
        text = op.describe()
        assert "collective allreduce" in text and "seq=4" in text


class TestWaitForGraph:
    def test_concrete_recv_edges_and_cycle(self):
        snap = {
            0: PendingOp(rank=0, kind="Recv", source=1),
            1: PendingOp(rank=1, kind="Recv", source=0),
        }
        assert WaitForGraph.edges(snap) == {0: [1], 1: [0]}
        cycle = WaitForGraph.find_cycle(snap)
        assert cycle is not None
        assert cycle[0] == cycle[-1] and set(cycle) == {0, 1}

    def test_chain_without_cycle(self):
        # 0 waits on 1, 1 is running: no cycle, just a slow rank
        snap = {0: PendingOp(rank=0, kind="Recv", source=1), 1: None}
        assert WaitForGraph.find_cycle(snap) is None

    def test_any_source_waits_on_all_blocked(self):
        snap = {
            0: PendingOp(rank=0, kind="Recv", source=None),
            1: PendingOp(rank=1, kind="Recv", source=2),
            2: None,
        }
        assert WaitForGraph.edges(snap)[0] == [1]

    def test_collective_waits_on_members_blocked_elsewhere(self):
        # ranks 0,1 at the same rendezvous; rank 2 stuck in a Recv
        coll = dict(kind="collective", comm="world", seq=3, members=(0, 1, 2))
        snap = {
            0: PendingOp(rank=0, **coll),
            1: PendingOp(rank=1, **coll),
            2: PendingOp(rank=2, kind="Recv", source=0),
        }
        edges = WaitForGraph.edges(snap)
        assert edges[0] == [2] and edges[1] == [2]
        cycle = WaitForGraph.find_cycle(snap)
        assert cycle is not None and 2 in cycle

    def test_describe_names_every_rank_and_cycle(self):
        snap = {
            0: PendingOp(rank=0, kind="Recv", source=1),
            1: PendingOp(rank=1, kind="Recv", source=0),
        }
        text = WaitForGraph.describe(snap, [0, 1, 0])
        assert "rank 0: blocked in Recv(source=1" in text
        assert "blocked cycle: 0 -> 1 -> 0" in text

    def test_describe_without_cycle_mentions_alternatives(self):
        text = WaitForGraph.describe({0: None}, None)
        assert "no blocked cycle found" in text

    def test_snapshot_from_dicts_tolerates_gaps(self):
        raw = {0: PendingOp(rank=0, kind="Recv", source=1).as_dict(), 1: None}
        snap = WaitForGraph.snapshot_from_dicts(raw, 3)
        assert snap[0].kind == "Recv" and snap[1] is None and snap[2] is None


# --------------------------------------------------------------------------
# thread backend: induced hangs raise DeadlockError with the cycle
# --------------------------------------------------------------------------


def _cross_recv(comm):
    comm.Recv(source=1 - comm.rank, tag=42)


def _mismatched_collective(comm):
    if comm.rank == 0:
        comm.barrier()
    else:
        comm.Recv(source=0, tag=5)


def _ok_ring(comm):
    comm.Send(np.array([float(comm.rank)]), dest=(comm.rank + 1) % comm.size)
    got = comm.Recv(source=(comm.rank - 1) % comm.size)
    return float(got[0])


class TestThreadDeadlockDiagnosis:
    def test_cross_recv_names_the_cycle(self):
        with pytest.raises(DeadlockError) as ei:
            SimMPI.run(2, _cross_recv, timeout=0.4)
        err = ei.value
        assert err.cycle is not None
        assert err.cycle[0] == err.cycle[-1] and set(err.cycle) == {0, 1}
        text = str(err)
        assert "wait-for graph at timeout" in text
        assert "Recv(source=0, tag=42)" in text or \
            "Recv(source=1, tag=42)" in text
        assert "blocked cycle" in text
        # both ranks' ops land in the attached snapshot
        assert set(err.pending) == {0, 1}

    def test_deadlock_error_is_a_deadlock_timeout(self):
        with pytest.raises(DeadlockTimeout):
            SimMPI.run(2, _cross_recv, timeout=0.4)

    def test_collective_hang_names_the_collective(self):
        with pytest.raises(DeadlockError) as ei:
            SimMPI.run(2, _mismatched_collective, timeout=0.4)
        assert "collective" in str(ei.value)

    def test_clean_world_raises_nothing(self):
        assert SimMPI.run(2, _ok_ring) == [1.0, 0.0]

    def test_sanitized_clean_world(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert SimMPI.run(2, _ok_ring) == [1.0, 0.0]


# --------------------------------------------------------------------------
# process backend: STUCK notices merged by the launcher
# --------------------------------------------------------------------------


class TestProcessDeadlockDiagnosis:
    def test_cross_recv_names_the_cycle(self):
        with pytest.raises(DeadlockError) as ei:
            ProcMPI.run(2, _cross_recv, timeout=3.0)
        err = ei.value
        assert err.cycle is not None
        assert err.cycle[0] == err.cycle[-1] and set(err.cycle) == {0, 1}
        assert "wait-for graph at timeout" in str(err)


# --------------------------------------------------------------------------
# socket backend: STUCK notices merged by the coordinator
# --------------------------------------------------------------------------


def _quiet_worker(addr):
    with contextlib.suppress(BaseException):
        worker_join(addr, timeout=60.0)


def _loopback_world(nprocs, fn, *, timeout):
    """Coordinator thread + worker threads on a loopback socket."""
    addr_box, announced = {}, threading.Event()

    def announce(addr):
        addr_box["addr"] = addr
        announced.set()

    launcher = SockMPI(spawn=False, announce=announce)
    out = {}

    def coordinate():
        try:
            out["results"] = launcher.run(nprocs, fn, timeout=timeout)
        except BaseException as exc:  # noqa: BLE001 - re-raised by caller
            out["error"] = exc

    coord = threading.Thread(target=coordinate, daemon=True)
    coord.start()
    assert announced.wait(30.0), "coordinator never announced its address"
    workers = [
        threading.Thread(target=_quiet_worker, args=(addr_box["addr"],),
                         daemon=True)
        for _ in range(nprocs)
    ]
    for w in workers:
        w.start()
    coord.join(timeout=120.0)
    assert not coord.is_alive(), "coordinator did not finish"
    if "error" in out:
        raise out["error"]
    return out["results"]


class TestSocketDeadlockDiagnosis:
    def test_cross_recv_names_the_cycle(self):
        with pytest.raises(DeadlockError) as ei:
            _loopback_world(2, _cross_recv, timeout=2.0)
        err = ei.value
        assert err.cycle is not None
        assert err.cycle[0] == err.cycle[-1] and set(err.cycle) == {0, 1}
        text = str(err)
        assert "wait-for graph at timeout" in text
        assert "blocked cycle" in text

    def test_clean_loopback_world(self):
        assert _loopback_world(2, _ok_ring, timeout=30.0) == [1.0, 0.0]
