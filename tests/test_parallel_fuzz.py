"""Randomised stress tests of the SimMPI runtime.

The solver exercises fixed communication patterns; these tests fuzz the
runtime with random (but deterministic, seeded) message graphs, mixed
collectives and communicator trees, checking global invariants:
everything sent is received, collectives agree across ranks, and no
pattern deadlocks (buffered sends + matched receives).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.threadmpi import SimMPI


@st.composite
def message_graphs(draw):
    """A random directed multigraph of messages among <= 5 ranks."""
    n = draw(st.integers(2, 5))
    n_msgs = draw(st.integers(1, 12))
    edges = [
        (
            draw(st.integers(0, n - 1)),  # source
            draw(st.integers(0, n - 1)),  # dest
            draw(st.integers(0, 3)),  # tag
            draw(st.integers(1, 50)),  # payload length
        )
        for _ in range(n_msgs)
    ]
    return n, edges


class TestRandomPointToPoint:
    @settings(max_examples=15, deadline=None)
    @given(message_graphs())
    def test_everything_sent_is_received(self, graph):
        n, edges = graph

        def prog(comm):
            me = comm.rank
            my_sends = [e for e in edges if e[0] == me]
            my_recvs = [e for e in edges if e[1] == me]
            # post all receives first (non-blocking), then send
            reqs = [
                comm.Irecv(source=src, tag=tag)
                for (src, _dst, tag, _ln) in my_recvs
            ]
            for (_src, dst, tag, ln) in my_sends:
                comm.Send(np.full(ln, me, dtype=np.float64), dest=dst, tag=tag)
            got = [np.asarray(r.wait()) for r in reqs]
            return sorted((arr.size, int(arr[0])) for arr in got)

        results = SimMPI.run(n, prog, timeout=10.0)
        for rank, got in enumerate(results):
            expected = sorted(
                (ln, src) for (src, dst, _tag, ln) in edges if dst == rank
            )
            assert got == expected

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    def test_ring_pass_any_size(self, n, seed):
        """Token ring: rank 0's payload travels every rank unchanged."""
        rng = np.random.default_rng(seed)
        token = rng.normal(size=8)

        def prog(comm):
            nxt = (comm.rank + 1) % comm.size
            prev = (comm.rank - 1) % comm.size
            if comm.rank == 0:
                comm.Send(token, dest=nxt, tag=1)
                back = comm.Recv(source=prev, tag=1)
                return np.asarray(back)
            data = comm.Recv(source=prev, tag=1)
            comm.Send(data, dest=nxt, tag=1)
            return None

        results = SimMPI.run(n, prog, timeout=10.0)
        np.testing.assert_array_equal(results[0], token)


class TestRandomCollectives:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 1000))
    def test_mixed_collective_sequences_agree(self, n, seed):
        """A random interleaving of collectives gives every rank the
        same results (the SPMD contract)."""
        rng = np.random.default_rng(seed)
        ops = rng.choice(["allreduce", "allgather", "bcast", "barrier"], size=6)

        def prog(comm):
            out = []
            for k, op in enumerate(ops):
                if op == "allreduce":
                    out.append(comm.allreduce(comm.rank * (k + 1)))
                elif op == "allgather":
                    out.append(tuple(comm.allgather(comm.rank + k)))
                elif op == "bcast":
                    out.append(comm.bcast(f"msg{k}" if comm.rank == k % comm.size else None,
                                          root=k % comm.size))
                else:
                    comm.barrier()
                    out.append("b")
            return out

        results = SimMPI.run(n, prog, timeout=10.0)
        for r in results[1:]:
            assert r == results[0]

    @settings(max_examples=8, deadline=None)
    @given(st.integers(4, 8), st.integers(2, 3))
    def test_nested_splits(self, n, levels):
        """Recursive halving by split keeps rank arithmetic consistent."""

        def prog(comm):
            c = comm
            path = []
            for _ in range(levels):
                if c.size == 1:
                    break
                color = c.rank % 2
                c = c.split(color=color)
                path.append((color, c.rank, c.size))
                total = c.allreduce(1)
                assert total == c.size
            return path

        results = SimMPI.run(n, prog, timeout=10.0)
        assert len(results) == n
