"""Process-backed SimMPI: shared-memory transport, collectives, errors.

Every rank function here is module-level — the ``spawn`` start method
pickles it into each worker process.  Spawning is expensive (~1 s per
world on a laptop), so each test packs as much coverage as possible
into a single world.
"""

import numpy as np
import pytest

from repro.parallel.backends import available_backends, get_backend
from repro.parallel.procmpi import ProcMPI
from repro.parallel.simmpi import SimMPI, SimMPIError
from repro.parallel.transport import WorkerError


def _combined_prog(comm):
    """Ring p2p + every collective + split, in one spawned world."""
    rank, size = comm.rank, comm.size
    # ring pass of a float array
    token = np.array([float(rank), float(rank) ** 2])
    comm.Send(token, dest=(rank + 1) % size, tag=7)
    got = comm.Recv(source=(rank - 1) % size, tag=7)
    ring_ok = bool(np.array_equal(got, np.array(
        [float((rank - 1) % size), float((rank - 1) % size) ** 2])))

    total = comm.allreduce(np.array([1.0, float(rank)]), op=np.add)
    gathered = comm.allgather(rank * 10)
    swapped = comm.alltoall([rank * 100 + d for d in range(size)])
    root_val = comm.bcast("payload" if rank == 0 else None, root=0)

    sub = comm.split(color=rank % 2, key=rank)
    sub_sum = sub.allreduce(1, op=lambda a, b: a + b)

    # a message larger than one arena slot (default 1 MiB): 4 MiB
    big = np.full((4, 1024, 128), float(rank), dtype=np.float64)
    comm.Send(big, dest=(rank + 1) % size, tag=9)
    big_in = comm.Recv(source=(rank - 1) % size, tag=9)
    big_ok = bool(np.all(big_in == float((rank - 1) % size))) \
        and big_in.shape == big.shape

    comm.barrier()
    return dict(
        ring_ok=ring_ok, total=total.tolist(), gathered=gathered,
        swapped=swapped, root_val=root_val, sub_sum=sub_sum, big_ok=big_ok,
    )


def _failing_prog(comm):
    if comm.rank == 1:
        raise ValueError("deliberate rank failure")
    comm.barrier()
    return comm.rank


def _pair_prog(comm):
    """Tiny two-rank program used for thread-vs-process comparisons."""
    other = 1 - comm.rank
    comm.Send(np.arange(6, dtype=np.float64) * (comm.rank + 1), dest=other)
    got = comm.Recv(source=other)
    red = comm.allreduce(float(comm.rank + 1), op=lambda a, b: a + b)
    return got.tolist(), red


class TestBackendRegistry:
    def test_names(self):
        assert available_backends() == ["thread", "process", "socket"]
        assert get_backend("thread") is SimMPI
        assert get_backend("process") is ProcMPI

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown launcher backend"):
            get_backend("rdma")


class TestProcessWorld:
    def test_p2p_collectives_split_and_large_messages(self):
        size = 4
        results = ProcMPI.run(size, _combined_prog, timeout=120.0)
        for rank, res in enumerate(results):
            assert res["ring_ok"], rank
            assert res["big_ok"], rank
            assert res["total"] == [float(size), float(sum(range(size)))]
            assert res["gathered"] == [r * 10 for r in range(size)]
            assert res["swapped"] == [s * 100 + rank for s in range(size)]
            assert res["root_val"] == "payload"
            assert res["sub_sum"] == size // 2

    def test_child_exception_reraised(self):
        with pytest.raises(ValueError, match="deliberate rank failure"):
            ProcMPI.run(2, _failing_prog, timeout=60.0)

    def test_matches_thread_backend(self):
        proc = ProcMPI.run(2, _pair_prog, timeout=60.0)
        thread = SimMPI.run(2, _pair_prog, timeout=60.0)
        assert proc == thread

    def test_is_simmpi_error_family(self):
        assert issubclass(WorkerError, SimMPIError)
