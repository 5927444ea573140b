"""Runtime sanitizers under ``REPRO_SANITIZE=1``: buffer poisoning,
write-after-move, and the message-protocol recorder.

The parallel programs here are module-level so the process-backend
smoke can pickle them under the ``spawn`` start method.
"""

import numpy as np
import pytest

from repro.checkers.sanitize import (
    DoubleRelease,
    ProtocolRecorder,
    ProtocolViolation,
    last_protocol_report,
    sanitize_enabled,
)
from repro.fd.kernels import BufferPool
from repro.parallel.backends import get_backend
from repro.parallel.simmpi import SimMPI


@pytest.fixture
def sanitize(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


class TestEnabledFlag:
    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no", "False"])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert not sanitize_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_on_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize_enabled()


class TestBufferPool:
    def test_double_release_raises(self, sanitize):
        pool = BufferPool()
        buf = pool.take((4,))
        pool.give(buf)
        with pytest.raises(DoubleRelease):
            pool.give(buf)

    def test_release_poisons_with_nan(self, sanitize):
        pool = BufferPool()
        buf = pool.take((8,))
        buf[:] = 3.0
        pool.give(buf)
        assert np.isnan(buf).all()

    def test_take_after_give_clears_free_mark(self, sanitize):
        pool = BufferPool()
        buf = pool.take((4,))
        pool.give(buf)
        again = pool.take((4,))
        assert again is buf
        pool.give(again)  # legal: it was re-taken in between

    def test_unsanitized_pool_neither_raises_nor_poisons(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        pool = BufferPool()
        buf = pool.take((4,))
        buf[:] = 3.0
        pool.give(buf)
        pool.give(buf)  # tolerated (legacy behaviour)
        assert (buf == 3.0).all()


class TestWriteAfterMove:
    def test_write_after_move_raises_immediately(self, sanitize):
        def prog(comm):
            if comm.rank == 0:
                buf = np.ones(4)
                comm.Send(buf, dest=1, tag=0, move=True)
                buf[0] = 2.0  # the race the sanitizer must catch
            else:
                comm.Recv(source=0, tag=0)

        with pytest.raises(ValueError, match="read-only"):
            SimMPI.run(2, prog)

    def test_receiver_can_read_moved_payload(self, sanitize):
        def prog(comm):
            if comm.rank == 0:
                buf = np.arange(4, dtype=np.float64)
                comm.Send(buf, dest=1, tag=0, move=True)
                return None
            return float(comm.Recv(source=0, tag=0).sum())

        assert SimMPI.run(2, prog)[1] == 6.0

    def test_moved_buffer_stays_writable_without_sanitize(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

        def prog(comm):
            if comm.rank == 0:
                buf = np.ones(4)
                comm.Send(buf, dest=1, tag=0, move=True)
                return bool(buf.flags.writeable)
            comm.Recv(source=0, tag=0)
            return True

        assert all(SimMPI.run(2, prog))


class TestProtocolRecorder:
    def test_unmatched_send_raises_at_finalize(self, sanitize):
        def prog(comm):
            if comm.rank == 0:
                comm.Send(1.0, dest=1, tag=3)
            # rank 1 never receives

        with pytest.raises(ProtocolViolation, match="unmatched send"):
            SimMPI.run(2, prog)
        report = last_protocol_report()
        assert not report.ok
        assert report.unmatched_sends == [
            {"comm": "world", "source": 0, "dest": 1, "tag": 3, "count": 1}
        ]

    def test_tag_collision_between_distinct_sites(self, sanitize):
        def prog(comm):
            if comm.rank == 0:
                comm.Send("stream-a", dest=1, tag=7)
                comm.Send("stream-b", dest=1, tag=7)  # different line, same tag
            else:
                comm.Recv(source=0, tag=7)
                comm.Recv(source=0, tag=7)

        with pytest.raises(ProtocolViolation, match="tag collision"):
            SimMPI.run(2, prog)
        report = last_protocol_report()
        assert len(report.tag_collisions) == 1
        assert len(report.tag_collisions[0]["sites"]) == 2

    def test_same_site_burst_is_a_legal_fifo_stream(self, sanitize):
        def prog(comm):
            if comm.rank == 0:
                for k in range(5):
                    comm.Send(k, dest=1, tag=9)
                return None
            return [comm.Recv(source=0, tag=9) for _ in range(5)]

        assert SimMPI.run(2, prog)[1] == list(range(5))
        assert last_protocol_report().ok

    def test_collective_sequence_divergence(self, sanitize):
        def prog(comm):
            # same rendezvous footprint, different collective: the
            # run completes but the recorded sequences disagree
            if comm.rank == 0:
                comm.bcast("x", root=0)
            else:
                comm.barrier()

        with pytest.raises(ProtocolViolation, match="collective divergence"):
            SimMPI.run(2, prog)
        report = last_protocol_report()
        assert report.collective_mismatches[0]["comm"] == "world"

    def test_clean_program_reports_ok(self, sanitize):
        def prog(comm):
            other = 1 - comm.rank
            comm.Send(comm.rank, dest=other, tag=1)
            got = comm.Recv(source=other, tag=1)
            return got + comm.allreduce(1)

        assert SimMPI.run(2, prog) == [3, 2]
        report = last_protocol_report()
        assert report.ok
        assert report.n_sends == 2 and report.n_recvs == 2
        assert report.n_collectives >= 2
        assert "clean" in report.summary()

    def test_merged_snapshots_equal_direct_report(self):
        a, b = ProtocolRecorder(), ProtocolRecorder()
        a.note_send("world", 0, 1, 5)
        b.note_recv("world", 0, 1, 5)
        a.note_collective("world", 0, "barrier")
        b.note_collective("world", 1, "bcast")
        merged = ProtocolRecorder.merged([a.snapshot(), b.snapshot()])
        report = merged.report()
        assert report.n_sends == 1 and report.n_recvs == 1
        assert not report.unmatched_sends
        assert len(report.collective_mismatches) == 1


def _sanitized_smoke_prog(comm):
    """Process-backend smoke: packed-style move send + collectives."""
    other = 1 - comm.rank
    buf = np.empty((3, 4))
    buf[:] = float(comm.rank)
    comm.Send(buf, dest=other, tag=2, move=True)
    got = comm.Recv(source=other, tag=2)
    total = comm.allreduce(float(got.sum()))
    comm.barrier()
    return total


def _sanitized_unmatched_prog(comm):
    if comm.rank == 0:
        comm.Send(1.0, dest=1, tag=3)
    comm.barrier()


class TestProcessBackend:
    def test_sanitized_process_world_runs_clean(self, sanitize):
        out = get_backend("process").run(2, _sanitized_smoke_prog)
        assert out == [12.0, 12.0]

    def test_process_world_reports_unmatched_send(self, sanitize):
        with pytest.raises(ProtocolViolation, match="unmatched send"):
            get_backend("process").run(2, _sanitized_unmatched_prog)


class TestBitwiseEquivalence:
    def test_two_rank_solver_bitwise_equals_serial(self, sanitize):
        """The acceptance bar: sanitizers change nothing observable —
        the 2-rank parallel dynamo reproduces serial floats exactly."""
        from repro.core import RunConfig, YinYangDynamo
        from repro.grids.component import Panel
        from repro.mhd.parameters import MHDParameters
        from repro.parallel.parallel_solver import run_parallel_dynamo

        cfg = RunConfig(nr=7, nth=12, nph=36, params=MHDParameters.laptop_demo(),
                        dt=1e-3, amp_temperature=1e-2)
        ser = YinYangDynamo(cfg)
        for _ in range(3):
            ser.step()
        par = run_parallel_dynamo(cfg, 1, 2, 3)
        assert last_protocol_report().ok
        from repro.checkers.fingerprint import assert_bitwise_equal

        assert_bitwise_equal(par.states, ser.state,
                             context="sanitized parallel vs serial")
