"""Non-blocking point-to-point parity across launcher backends.

The halo and overset exchanges rest on every backend implementing the
same ``Isend``/``Irecv``/``Request.wait``/``Waitall`` contract: requests may be waited out of posting order, ``move=True``
payloads hand the buffer to the comm layer, and the sanitizer's
:class:`~repro.checkers.sanitize.ProtocolRecorder` tracks each request
from post to wait.  These tests pin the contract on the thread backend
with randomised message graphs, then cross-check every other available
backend against the thread backend's results with a picklable
module-level program.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers.sanitize import ProtocolRecorder
from repro.parallel.backends import BACKENDS, available_backends, get_backend, probe
from repro.parallel.simmpi import Communicator, SimMPI


@st.composite
def message_graphs(draw):
    """A random directed multigraph of messages among <= 5 ranks."""
    n = draw(st.integers(2, 5))
    n_msgs = draw(st.integers(1, 10))
    edges = [
        (
            draw(st.integers(0, n - 1)),  # source
            draw(st.integers(0, n - 1)),  # dest
            draw(st.integers(0, 3)),  # tag
            draw(st.integers(1, 40)),  # payload length
        )
        for _ in range(n_msgs)
    ]
    return n, edges


class TestNonblockingThread:
    @settings(max_examples=12, deadline=None)
    @given(message_graphs())
    def test_isend_irecv_waitall_out_of_order(self, graph):
        """Random graphs sent with Isend(move=True), received with
        Irecv and drained with Waitall in *reversed* posting order —
        everything sent must still arrive."""
        n, edges = graph

        def prog(comm):
            me = comm.rank
            my_recvs = [e for e in edges if e[1] == me]
            my_sends = [e for e in edges if e[0] == me]
            reqs = [
                comm.Irecv(source=src, tag=tag)
                for (src, _dst, tag, _ln) in my_recvs
            ]
            sends = []
            for (_src, dst, tag, ln) in my_sends:
                payload = np.full(ln, me, dtype=np.float64)
                sends.append(comm.Isend(payload, dest=dst, tag=tag, move=True))
            got = [np.asarray(v) for v in comm.Waitall(list(reversed(reqs)))]
            comm.Waitall(sends)
            return sorted((arr.size, int(arr[0])) for arr in got)

        results = SimMPI.run(n, prog, timeout=10.0)
        for rank, got in enumerate(results):
            expected = sorted(
                (ln, src) for (src, _dst, _tag, ln) in edges if _dst == rank
            )
            assert got == expected

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2**31 - 1))
    def test_wait_is_idempotent_and_ordered(self, n, seed):
        """wait() twice returns the same payload; Wait is an alias."""
        rng = np.random.default_rng(seed)
        # small integers: token + rank - token is exact in float64
        token = rng.integers(0, 100, size=6).astype(np.float64)

        def prog(comm):
            nxt = (comm.rank + 1) % comm.size
            prev = (comm.rank - 1) % comm.size
            req = comm.Irecv(source=prev, tag=3)
            comm.Isend(token + comm.rank, dest=nxt, tag=3).Wait()
            first = np.asarray(req.wait())
            second = np.asarray(req.wait())
            np.testing.assert_array_equal(first, second)
            return float(first[0] - token[0])

        results = SimMPI.run(n, prog, timeout=10.0)
        assert results == [float((r - 1) % n) for r in range(n)]


def _parity_prog(comm):
    """Module-level (picklable) ring parity program.

    Posts receives from both neighbours, sends with Isend (one plain,
    one move=True), waits out of posting order, and reduces the
    payloads to a deterministic per-rank signature.
    """
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    reqs = [comm.Irecv(source=left, tag=5), comm.Irecv(source=right, tag=7)]
    plain = np.full(16, float(comm.rank))
    s1 = comm.Isend(plain, dest=right, tag=5)
    fresh = np.arange(8.0) + comm.rank
    s2 = comm.Isend(fresh, dest=left, tag=7, move=True)
    got = [np.asarray(v) for v in comm.Waitall(list(reversed(reqs)))]
    comm.Waitall([s1, s2])
    return [float(g.sum()) for g in got]


_CROSS_BACKENDS = [
    b for b in ("process", "socket")
    if b in available_backends() and probe(b).capabilities.self_launch
]


class TestCrossBackendParity:
    def test_thread_backend_baseline(self):
        results = SimMPI.run(4, _parity_prog, timeout=30.0)
        for rank, (first, second) in enumerate(results):
            left, right = (rank - 1) % 4, (rank + 1) % 4
            # reversed wait order: the tag-7 (move=True) payload first
            assert first == float(np.arange(8.0).sum()) + 8 * right
            assert second == 16.0 * left

    @pytest.mark.parametrize("backend", _CROSS_BACKENDS)
    def test_backend_matches_thread(self, backend):
        expected = SimMPI.run(4, _parity_prog, timeout=30.0)
        launcher = get_backend(backend)
        got = launcher.run(4, _parity_prog, timeout=180.0)
        assert got == expected

    def test_every_backend_advertises_nonblocking(self):
        """Isend/Irecv/Waitall are part of the required communicator
        contract: every registered backend runs its ranks on the one
        :class:`Communicator` (no backend defines a communicator class
        of its own), and that class provides them."""
        comm_classes = {
            obj
            for module in BACKENDS.values()
            for obj in vars(importlib.import_module(module)).values()
            if isinstance(obj, type) and hasattr(obj, "Recv")
        }
        assert comm_classes == {Communicator}
        for method in ("Isend", "Irecv", "Waitall"):
            assert callable(getattr(Communicator, method, None)), method


class TestRequestLifetimeTracking:
    def test_unwaited_request_fails_report(self):
        rec = ProtocolRecorder()
        token = rec.note_request_open("Irecv")
        report = rec.report()
        assert not report.ok
        assert "unwaited request Irecv" in report.summary()
        rec.note_request_done(token)
        assert rec.report().ok

    def test_waited_requests_counted(self):
        rec = ProtocolRecorder()
        for _ in range(3):
            rec.note_request_done(rec.note_request_open("Isend"))
        report = rec.report()
        assert report.ok and report.n_requests == 3

    def test_merged_snapshots_surface_leaks(self):
        a, b = ProtocolRecorder(), ProtocolRecorder()
        a.note_request_done(a.note_request_open("Isend"))
        b.note_request_open("Irecv")  # leaked on purpose
        merged = ProtocolRecorder.merged([a.snapshot(), b.snapshot()])
        report = merged.report()
        assert not report.ok and report.n_requests == 2

    def test_sanitized_thread_run_waits_all_requests(self, monkeypatch):
        """A full Isend/Irecv round under the shared runtime recorder
        leaves no open requests behind."""

        def prog(comm):
            req = comm.Irecv(source=(comm.rank - 1) % comm.size, tag=1)
            comm.Isend(
                np.full(4, float(comm.rank)),
                dest=(comm.rank + 1) % comm.size, tag=1,
            ).wait()
            return float(np.asarray(req.wait())[0])

        results = SimMPI.run(3, prog, timeout=10.0)
        assert results == [2.0, 0.0, 1.0]
