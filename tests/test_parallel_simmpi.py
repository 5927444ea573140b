import glob
import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.checkers.sanitize import ProtocolViolation
from repro.parallel.backends import get_backend
from repro.parallel.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    DeadlockTimeout,
    SimMPIError,
)
from repro.parallel.threadmpi import SimMPI
from repro.parallel.transport import WorkerError


class TestLaunch:
    def test_single_rank(self):
        assert SimMPI.run(1, lambda c: c.rank) == [0]

    def test_results_in_rank_order(self):
        assert SimMPI.run(5, lambda c: c.rank * 10) == [0, 10, 20, 30, 40]

    def test_rank_exception_propagates(self):
        def prog(comm):
            if comm.rank == 2:
                raise RuntimeError("boom on rank 2")
            return comm.rank

        with pytest.raises(RuntimeError, match="boom"):
            SimMPI.run(3, prog)

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            SimMPI.run(0, lambda c: None)

    def test_args_forwarded(self):
        assert SimMPI.run(2, lambda c, x, y=0: x + y + c.rank, 5, y=1) == [6, 7]


class TestPointToPoint:
    def test_numpy_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.Send(np.arange(10.0), dest=1, tag=3)
                return None
            buf = np.empty(10)
            comm.Recv(buf, source=0, tag=3)
            return buf.sum()

        assert SimMPI.run(2, prog)[1] == pytest.approx(45.0)

    def test_object_payloads(self):
        def prog(comm):
            if comm.rank == 0:
                comm.Send({"k": [1, 2]}, dest=1)
                return None
            return comm.Recv(source=0)

        assert SimMPI.run(2, prog)[1] == {"k": [1, 2]}

    def test_buffered_semantics_sender_can_mutate(self):
        """Send copies eagerly: mutations after Send don't leak."""

        def prog(comm):
            if comm.rank == 0:
                data = np.ones(4)
                comm.Send(data, dest=1)
                data[:] = -1.0
                comm.barrier()
                return None
            comm.barrier()
            return float(comm.Recv(source=0).sum())

        assert SimMPI.run(2, prog)[1] == 4.0

    def test_tag_matching_out_of_order(self):
        """A receive for tag 2 must skip an earlier tag-1 message."""

        def prog(comm):
            if comm.rank == 0:
                comm.Send("first", dest=1, tag=1)
                comm.Send("second", dest=1, tag=2)
                return None
            second = comm.Recv(source=0, tag=2)
            first = comm.Recv(source=0, tag=1)
            return (first, second)

        assert SimMPI.run(2, prog)[1] == ("first", "second")

    def test_fifo_per_source_and_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for k in range(5):
                    comm.Send(k, dest=1, tag=9)
                return None
            return [comm.Recv(source=0, tag=9) for _ in range(5)]

        assert SimMPI.run(2, prog)[1] == list(range(5))

    def test_any_source_any_tag(self):
        def prog(comm):
            if comm.rank != 0:
                comm.Send(comm.rank, dest=0, tag=comm.rank)
                return None
            got = sorted(comm.Recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(3))
            return got

        assert SimMPI.run(4, prog)[0] == [1, 2, 3]

    def test_irecv_wait(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.Irecv(source=1, tag=0)
                comm.Send("ping", dest=1, tag=0)
                return req.wait()
            msg = comm.Recv(source=0, tag=0)
            comm.Send(msg + "-pong", dest=0, tag=0)
            return None

        assert SimMPI.run(2, prog)[0] == "ping-pong"

    def test_recv_buffer_shape_mismatch(self):
        def prog(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(3), dest=1)
                return None
            with pytest.raises(SimMPIError, match="shape"):
                comm.Recv(np.zeros(4), source=0)
            return True

        assert SimMPI.run(2, prog)[1] is True

    def test_dest_out_of_range(self):
        def prog(comm):
            with pytest.raises(SimMPIError, match="out of range"):
                comm.Send(1, dest=5)
            return True

        assert all(SimMPI.run(2, prog))

    def test_deadlock_times_out(self):
        def prog(comm):
            if comm.rank == 0:
                comm.Recv(source=1, tag=0)  # never sent
            return None

        with pytest.raises(DeadlockTimeout):
            SimMPI.run(2, prog, timeout=0.3)

    def test_sendrecv(self):
        def prog(comm):
            other = 1 - comm.rank
            return comm.Sendrecv(comm.rank, dest=other, recvsource=other)

        assert SimMPI.run(2, prog) == [1, 0]


class TestCollectives:
    def test_allreduce_sum(self):
        out = SimMPI.run(4, lambda c: c.allreduce(c.rank + 1))
        assert out == [10, 10, 10, 10]

    def test_allreduce_numpy_max(self):
        def prog(comm):
            v = np.array([comm.rank, -comm.rank])
            return comm.allreduce(v, op=np.maximum)

        out = SimMPI.run(3, prog)
        for v in out:
            np.testing.assert_array_equal(v, [2, 0])

    def test_bcast(self):
        def prog(comm):
            data = {"x": 1} if comm.rank == 1 else None
            return comm.bcast(data, root=1)

        assert SimMPI.run(3, prog) == [{"x": 1}] * 3

    def test_gather(self):
        def prog(comm):
            return comm.gather(comm.rank**2, root=0)

        out = SimMPI.run(4, prog)
        assert out[0] == [0, 1, 4, 9]
        assert out[1] is None

    def test_allgather(self):
        out = SimMPI.run(3, lambda c: c.allgather(c.rank))
        assert out == [[0, 1, 2]] * 3

    def test_alltoall(self):
        def prog(comm):
            return comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])

        out = SimMPI.run(3, prog)
        assert out[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_wrong_length(self):
        def prog(comm):
            with pytest.raises(SimMPIError):
                comm.alltoall([1])
            return True

        assert all(SimMPI.run(3, prog))

    def test_barrier_sequences(self):
        def prog(comm):
            for _ in range(5):
                comm.barrier()
            return True

        assert all(SimMPI.run(4, prog))

    def test_allreduce_rank_order_association(self):
        """Reduction applies in rank order: bit-reproducible floats."""

        def prog(comm):
            vals = [0.1, 0.2, 0.3, 0.4]
            return comm.allreduce(vals[comm.rank])

        out = SimMPI.run(4, prog)
        expected = ((0.1 + 0.2) + 0.3) + 0.4
        assert out == [expected] * 4


class TestSplit:
    def test_paper_panel_split(self):
        """The yycore pattern: even world -> two equal panel groups."""

        def prog(comm):
            color = 0 if comm.rank < comm.size // 2 else 1
            sub = comm.split(color=color, key=comm.rank)
            return (color, sub.rank, sub.size)

        out = SimMPI.run(6, prog)
        assert out == [(0, 0, 3), (0, 1, 3), (0, 2, 3), (1, 0, 3), (1, 1, 3), (1, 2, 3)]

    def test_split_key_reorders(self):
        def prog(comm):
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        assert SimMPI.run(3, prog) == [2, 1, 0]

    def test_subcommunicator_isolated(self):
        """Messages in a subcommunicator don't leak to the parent."""

        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            if sub.size == 2:
                other = 1 - sub.rank
                return comm.rank, sub.Sendrecv(comm.rank, dest=other, recvsource=other)
            return None

        out = SimMPI.run(4, prog)
        assert out[0] == (0, 2) and out[2] == (2, 0)
        assert out[1] == (1, 3) and out[3] == (3, 1)

    def test_dup(self):
        def prog(comm):
            d = comm.dup()
            return (d.rank, d.size, d.id != comm.id)

        out = SimMPI.run(2, prog)
        assert out == [(0, 2, True), (1, 2, True)]

    def test_accounting_counters(self):
        def prog(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(100), dest=1)
                return comm.bytes_sent, comm.messages_sent
            comm.Recv(source=0)
            return comm.bytes_sent, comm.messages_sent

        out = SimMPI.run(2, prog)
        assert out[0] == (800, 1)
        assert out[1] == (0, 0)


class TestMoveSemantics:
    def test_moved_buffer_is_senders_object(self):
        """Strongest form of zero-copy: identity is preserved."""

        def prog(comm):
            if comm.rank == 0:
                arr = np.arange(8.0)
                comm.Send(arr, dest=1, move=True)
                return id(arr)
            got = comm.Recv(source=0)
            return id(got)

        sender_id, receiver_id = SimMPI.run(2, prog)
        assert sender_id == receiver_id

    def test_default_send_still_copies(self):
        def prog(comm):
            if comm.rank == 0:
                arr = np.zeros(4)
                comm.Send(arr, dest=1)
                arr[:] = 99.0  # must not corrupt the in-flight message
                comm.barrier()
                return None
            comm.barrier()
            return comm.Recv(source=0)

        got = SimMPI.run(2, prog)[1]
        np.testing.assert_array_equal(got, np.zeros(4))


class TestTimeoutEnv:
    def test_env_override(self, monkeypatch):
        from repro.parallel.simmpi import _timeout_from_env

        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT", "7.5")
        assert _timeout_from_env() == 7.5

    def test_bad_or_missing_values_fall_back(self, monkeypatch):
        from repro.parallel.simmpi import _timeout_from_env

        monkeypatch.delenv("REPRO_SIMMPI_TIMEOUT", raising=False)
        assert _timeout_from_env(default=33.0) == 33.0
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT", "not-a-number")
        assert _timeout_from_env(default=33.0) == 33.0
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT", "-5")
        assert _timeout_from_env(default=33.0) == 33.0


class TestRunGuard:
    """The timeout bounds each blocking operation, not the world's run."""

    def test_world_computing_past_the_timeout_is_healthy(self):
        # 3 s of compute, no blocking op: neither the per-op timeout
        # nor any whole-world deadline of 2 * timeout may fire
        def prog(comm):
            time.sleep(3.0)
            return comm.rank

        assert SimMPI.run(2, prog, timeout=1.0) == [0, 1]

    def test_wait_for_cycle_named_within_timeout_plus_grace(self):
        def prog(comm):
            comm.Recv(source=1 - comm.rank, tag=42)

        t0 = time.monotonic()
        with pytest.raises(DeadlockError) as ei:
            SimMPI.run(2, prog, timeout=0.5)
        # per-op timeout 0.5 s + the 1.5 s STUCK-merge grace + slack
        assert time.monotonic() - t0 < 4.0
        assert ei.value.cycle in ([0, 1, 0], [1, 0, 1])


# ---- every backend: one rank program each (module level: spawn pickles it) ----


def _error_of(op) -> str:
    try:
        op()
    except SimMPIError as exc:
        return str(exc)
    return "no error"


def _p2p_semantics_prog(comm):
    """The point-to-point behaviours the one communicator carries, in one
    world of three ranks: out-of-order tag matching, FIFO per (source,
    tag), the ``Recv`` buffer-shape check, the ``dest`` range check,
    ``ANY_SOURCE``/``ANY_TAG`` and the accounting counters."""
    out = {"dest_range": _error_of(lambda: comm.Send(1, dest=5))}
    if comm.rank == 0:
        comm.Send("first", dest=1, tag=1)
        comm.Send("second", dest=1, tag=2)
        for k in range(5):
            comm.Send(k, dest=1, tag=9)
        comm.Send(np.zeros(3), dest=1, tag=4)
    elif comm.rank == 1:
        second = comm.Recv(source=0, tag=2)
        first = comm.Recv(source=0, tag=1)
        out["out_of_order"] = (first, second)
        out["fifo"] = [comm.Recv(source=0, tag=9) for _ in range(5)]
        out["shape"] = _error_of(lambda: comm.Recv(np.zeros(4), source=0, tag=4))
    wild = comm.dup()
    if wild.rank == 0:
        out["any"] = sorted(wild.Recv(source=ANY_SOURCE, tag=ANY_TAG)
                            for _ in range(wild.size - 1))
    else:
        wild.Send(wild.rank, dest=0, tag=wild.rank)
    acct = comm.dup()  # a fresh communicator counts from zero
    if acct.rank == 0:
        acct.Send(np.zeros(100), dest=1)
    elif acct.rank == 1:
        acct.Recv(source=0)
    out["acct"] = (acct.bytes_sent, acct.messages_sent)
    comm.barrier()
    return out


def _killed_prog(comm):
    comm.barrier()
    if comm.rank == 1:
        os._exit(3)
    comm.Recv(source=1, tag=0)  # rank 1 is gone: never sent


def _unreceived_prog(comm):
    if comm.rank == 0:
        comm.Send(np.arange(3.0), dest=1, tag=7)  # nobody receives it
    return comm.rank


def _failing_prog(comm):
    if comm.rank == 0:
        raise ValueError("rank 0 gave up")
    comm.Recv(source=0, tag=0)  # rank 0 never sends


class TestEveryBackend:
    @pytest.mark.parametrize("backend", ["thread", "process", "socket"])
    def test_point_to_point_semantics(self, backend):
        out = get_backend(backend).run(3, _p2p_semantics_prog, timeout=120.0)
        for rank in out:
            assert "out of range" in rank["dest_range"]
        assert out[1]["out_of_order"] == ("first", "second")
        assert out[1]["fifo"] == list(range(5))
        assert "Recv buffer shape (4,) != message shape (3,)" in out[1]["shape"]
        assert out[0]["any"] == [1, 2]
        assert [rank["acct"] for rank in out] == [(800, 1), (0, 0), (0, 0)]


class TestFaultMatrix:
    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_killed_rank_fails_fast_and_cleans_up(self, backend):
        """A rank process that exits mid-run fails the world naming it,
        within seconds rather than at the run guard, and leaves no
        shared-memory segment behind."""
        segments = set(glob.glob("/dev/shm/psm_*"))
        t0 = time.monotonic()
        with pytest.raises((WorkerError, ProtocolViolation), match=r"rank 1\b") as ei:
            get_backend(backend).run(2, _killed_prog, timeout=60.0)
        assert time.monotonic() - t0 < 10.0
        assert "startup" not in str(ei.value)
        assert set(glob.glob("/dev/shm/psm_*")) <= segments

    @pytest.mark.parametrize("backend", ["thread", "process", "socket"])
    def test_failing_rank_fails_fast(self, backend, monkeypatch):
        """A rank that raises while a peer blocks on it fails the world
        with its own error in seconds, not at the blocking guard, and
        leaves no rank thread behind."""
        monkeypatch.setenv("REPRO_SIMMPI_TIMEOUT", "30")
        before = set(threading.enumerate())
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="rank 0 gave up"):
            get_backend(backend).run(2, _failing_prog)
        assert time.monotonic() - t0 < 5.0
        assert not [t for t in threading.enumerate()
                    if t not in before and t.name.startswith("simmpi-rank-")]

    @pytest.mark.parametrize("backend", ["thread", "process", "socket"])
    def test_unreceived_message_is_named(self, backend):
        """A message no receive matches fails the world at its close,
        naming its channel, source and tag; the process wire gets its
        arena slots back and leaves no segment behind."""
        segments = set(glob.glob("/dev/shm/psm_*"))
        with pytest.raises(ProtocolViolation,
                           match=r"rank 1: 1 message\(s\) never received: "
                                 r"chan='world' source=0 tag=7"):
            get_backend(backend).run(2, _unreceived_prog, timeout=60.0)
        assert set(glob.glob("/dev/shm/psm_*")) <= segments

    def test_thread_ranks_get_their_own_objects(self):
        """Thread-rank outcomes are not pickled: an unpicklable return
        value comes back as itself, and so does the raised exception."""
        fns = SimMPI.run(2, lambda comm: (lambda: comm.rank))
        assert [f() for f in fns] == [0, 1]
        err = ValueError("this very object")

        def prog(comm):
            raise err

        with pytest.raises(ValueError) as ei:
            SimMPI.run(1, prog)
        assert ei.value is err

    @pytest.mark.parametrize("backend", ["process", "socket"])
    def test_unpicklable_rank_function_is_named(self, backend):
        """A rank function the spawn start method cannot pickle fails
        with the pickling error itself, and the launcher still cleans up
        (no half-started world to reap, no arena left behind)."""
        segments = set(glob.glob("/dev/shm/psm_*"))
        with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
            get_backend(backend).run(2, lambda comm: comm.rank, timeout=60.0)
        assert set(glob.glob("/dev/shm/psm_*")) <= segments

