import numpy as np

from repro.parallel.cart import create_cart
from repro.parallel.decomposition import PanelDecomposition
from repro.parallel.halo import HaloExchanger
from repro.parallel.threadmpi import SimMPI
from repro.parallel.tracing import CommTrace, TracedCommunicator


class TestTraceBasics:
    def test_records_messages(self):
        trace = CommTrace()

        def prog(comm):
            t = TracedCommunicator(comm, trace)
            if comm.rank == 0:
                t.Send(np.zeros(10), dest=1, tag=7)
            else:
                t.Recv(source=0, tag=7)
            return True

        assert all(SimMPI.run(2, prog))
        assert trace.n_messages == 1
        rec = trace.records[0]
        assert (rec.source, rec.dest, rec.tag, rec.nbytes) == (0, 1, 7, 80)

    def test_matrix_and_partners(self):
        trace = CommTrace()

        def prog(comm):
            t = TracedCommunicator(comm, trace)
            nxt = (comm.rank + 1) % comm.size
            t.Send(np.zeros(comm.rank + 1), dest=nxt)
            t.Recv(source=(comm.rank - 1) % comm.size)
            return True

        SimMPI.run(3, prog)
        m = trace.matrix(3)
        assert m[0, 1] == 8 and m[1, 2] == 16 and m[2, 0] == 24
        sent, recv = trace.partners_of(1)
        assert sent == {2} and recv == {0}

    def test_delegation(self):
        trace = CommTrace()

        def prog(comm):
            t = TracedCommunicator(comm, trace)
            return t.allreduce(t.rank)

        assert SimMPI.run(3, prog) == [3, 3, 3]


class TestHaloPattern:
    def test_four_neighbour_structure(self):
        """Section IV: 'Each process has four neighbors (north, east,
        south, and west)' — the trace must show exactly that."""
        trace = CommTrace()
        decomp = PanelDecomposition(18, 36, 3, 3)

        def prog(comm):
            t = TracedCommunicator(comm, trace)
            cart = create_cart(t, (3, 3))
            sub = decomp.subdomain(comm.rank)
            ex = HaloExchanger(cart, sub)
            f = np.zeros((3, *sub.local_shape))
            ex.exchange([f])
            return True

        SimMPI.run(9, prog)
        # the centre tile (rank 4) talks to exactly its 4 neighbours
        sent, recv = trace.partners_of(4)
        assert sent == {1, 3, 5, 7}
        assert recv == {1, 3, 5, 7}
        # corner tile: exactly 2 neighbours
        sent0, _ = trace.partners_of(0)
        assert sent0 == {1, 3}

    def test_volume_matches_exchanger_model(self):
        trace = CommTrace()
        decomp = PanelDecomposition(18, 36, 2, 2)

        def prog(comm):
            t = TracedCommunicator(comm, trace)
            cart = create_cart(t, (2, 2))
            sub = decomp.subdomain(comm.rank)
            ex = HaloExchanger(cart, sub)
            f = np.zeros((3, *sub.local_shape))
            ex.exchange([f])
            return ex.bytes_per_exchange(3, 1)

        predicted = SimMPI.run(4, prog)
        m = trace.matrix(4)
        for rank in range(4):
            assert int(m[rank].sum()) == predicted[rank]
