"""Runtime sanitizers under ``REPRO_SANITIZE=1``: buffer poisoning,
double release, and the protocol recorder (collective sequences and
request lifetimes).

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


class TestProtocolRecorder:
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
        assert report.n_collectives >= 2
        assert "clean" in report.summary()

    def test_merged_snapshots_equal_direct_report(self):
        a, b = ProtocolRecorder(), ProtocolRecorder()
        a.note_collective("world", 0, "barrier")
        b.note_collective("world", 1, "bcast")
        merged = ProtocolRecorder.merged([a.snapshot(), b.snapshot()])
        report = merged.report()
        assert report.n_collectives == 2
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


def _sanitized_divergent_prog(comm):
    # same rendezvous footprint on both ranks, different collective
    if comm.rank == 0:
        comm.bcast("x", root=0)
    else:
        comm.barrier()


class TestProcessBackend:
    def test_sanitized_process_world_runs_clean(self, sanitize):
        out = get_backend("process").run(2, _sanitized_smoke_prog)
        assert out == [12.0, 12.0]

    def test_process_world_reports_collective_divergence(self, sanitize):
        with pytest.raises(ProtocolViolation, match="collective divergence"):
            get_backend("process").run(2, _sanitized_divergent_prog)


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
