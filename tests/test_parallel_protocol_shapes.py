"""Message shape/dtype validation against the communication plan.

A corrupted (or mis-planned) halo / overset message must fail loudly at
the receive with :class:`ProtocolViolation` naming the expected and
actual geometry — not ten frames deeper as a broadcast error inside a
stencil.  The ProcMPI slot arena additionally validates its descriptor
headers before materialising a payload.
"""

import queue as _queue
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.checkers.sanitize import ProtocolViolation
from repro.grids.yinyang import YinYangGrid
from repro.parallel.cart import create_cart
from repro.parallel.decomposition import HALO, PanelDecomposition
from repro.parallel.halo import HaloExchanger
from repro.parallel.overset_comm import OversetExchanger
from repro.parallel.procmpi import ProcMPI, _ProcRuntime
from repro.parallel.threadmpi import SimMPI

_DECOMP12 = PanelDecomposition(14, 40, 1, 2)


def _halo_corrupt(comm, payload_builder):
    """Rank 1 skips the exchange and sends a mis-shaped message carrying
    the tag rank 0's east-halo receive expects (phase 1, east => tag 3)."""
    cart = create_cart(comm, (1, 2))
    sub = _DECOMP12.subdomain(comm.rank)
    if comm.rank == 1:
        comm.Send(payload_builder(sub), dest=0, tag=3)
        return None
    ex = HaloExchanger(cart, sub)
    fields = [np.zeros((3,) + sub.local_shape)]
    ex.exchange(fields)
    return None


def _bad_shape(sub):
    return np.zeros((2, 2))


def _east_strip(sub, nfields=1, dtype=np.float64):
    # the strip geometry rank 0 expects for its east recv
    oth, _ = sub.owned_local()
    return np.zeros((nfields, 3, oth.stop - oth.start, HALO), dtype=dtype)


def _halo_corrupt_shape(comm):
    return _halo_corrupt(comm, _bad_shape)


def _halo_corrupt_nfields(comm):
    # the right strip, but two fields where the exchange packs one
    return _halo_corrupt(comm, lambda sub: _east_strip(sub, nfields=2))


def _halo_corrupt_dtype(comm):
    return _halo_corrupt(comm, lambda sub: _east_strip(sub, dtype=np.float32))


_HALO_SHAPE_CORRUPTIONS = [_halo_corrupt_shape, _halo_corrupt_nfields]


class TestHaloPlanValidation:
    @pytest.mark.parametrize("prog", _HALO_SHAPE_CORRUPTIONS)
    def test_thread_backend_rejects_wrong_shape(self, prog):
        with pytest.raises(ProtocolViolation, match="plan expects"):
            SimMPI.run(2, prog)

    def test_thread_backend_rejects_wrong_dtype(self):
        with pytest.raises(ProtocolViolation, match="float32"):
            SimMPI.run(2, _halo_corrupt_dtype)

    @pytest.mark.parametrize("prog", _HALO_SHAPE_CORRUPTIONS)
    def test_process_backend_rejects_wrong_shape(self, prog):
        with pytest.raises(ProtocolViolation, match="plan expects"):
            ProcMPI.run(2, prog, timeout=120.0)

    def test_clean_exchange_unaffected(self):
        decomp = _DECOMP12

        def prog(comm):
            cart = create_cart(comm, (1, 2))
            sub = decomp.subdomain(comm.rank)
            ex = HaloExchanger(cart, sub)
            fields = [np.zeros((3,) + sub.local_shape)]
            ex.exchange(fields)
            return True

        assert SimMPI.run(2, prog) == [True, True]


_GRID = None


def _grid():
    global _GRID
    if _GRID is None:
        _GRID = YinYangGrid(5, 14, 40)
    return _GRID


def _overset_corrupt(world):
    """World of 2 (one rank per panel).  The Yang rank (1) sends garbage
    under the tag the Yin receptor expects (tag0=0 => 4096)."""
    grid = _grid()
    decomp = PanelDecomposition(grid.yin.nth, grid.yin.nph, 1, 1)
    panel_index = 0 if world.rank < 1 else 1
    world.split(color=panel_index, key=world.rank)
    if world.rank == 1:
        world.Send(np.zeros((2, 2)), dest=0, tag=4096)
        return None
    ex = OversetExchanger(grid, decomp, world, panel_index, 0)
    f = np.zeros((5, grid.yin.nth, grid.yin.nph))
    ex.exchange_state((f,), rotate_groups=())
    return None


class TestOversetPlanValidation:
    def test_thread_backend_rejects_wrong_shape(self):
        with pytest.raises(ProtocolViolation, match="plan expects"):
            SimMPI.run(2, _overset_corrupt)

    def test_process_backend_rejects_wrong_shape(self):
        with pytest.raises(ProtocolViolation, match="plan expects"):
            ProcMPI.run(2, _overset_corrupt, timeout=120.0)

    def test_clean_overset_exchange_unaffected(self):
        grid = _grid()
        decomp = PanelDecomposition(grid.yin.nth, grid.yin.nph, 1, 1)

        def prog(world):
            panel_index = 0 if world.rank < 1 else 1
            world.split(color=panel_index, key=world.rank)
            ex = OversetExchanger(grid, decomp, world, panel_index, 0)
            f = np.zeros((5, grid.yin.nth, grid.yin.nph))
            ex.exchange_state((f,), rotate_groups=())
            return True

        assert SimMPI.run(2, prog) == [True, True]


class TestSlotArenaHeaderCheck:
    """The ProcMPI shared-memory transport validates descriptor headers
    (shape x itemsize == nbytes, slot count == ceil(nbytes/slot_bytes))
    before materialising — and returns the slots on failure."""

    @pytest.fixture
    def rt(self):
        rt = object.__new__(_ProcRuntime)
        rt.slot_bytes = 4096
        rt.arena = shared_memory.SharedMemory(create=True, size=4 * 4096)
        rt.free_q = _queue.Queue()
        yield rt
        rt.arena.close()
        rt.arena.unlink()

    def test_consistent_header_materialises(self, rt):
        src = np.arange(16, dtype=np.float64)
        np.frombuffer(rt.arena.buf, dtype=np.float64, count=16)[:] = src
        out = rt._read_slots(((0,), (16,), "<f8", 128))
        np.testing.assert_array_equal(out, src)
        assert rt.free_q.get_nowait() == 0

    def test_nbytes_shape_mismatch_rejected(self, rt):
        with pytest.raises(ProtocolViolation, match="header inconsistent"):
            rt._read_slots(((0,), (32,), "<f8", 128))
        # the slot went back to the free queue, not leaked
        assert rt.free_q.get_nowait() == 0

    def test_slot_count_mismatch_rejected(self, rt):
        with pytest.raises(ProtocolViolation, match="slot"):
            rt._read_slots(((0, 1), (16,), "<f8", 128))
        assert {rt.free_q.get_nowait(), rt.free_q.get_nowait()} == {0, 1}

    def test_dtype_mismatch_caught_via_itemsize(self, rt):
        # a float32 header for a float64-sized payload is inconsistent
        with pytest.raises(ProtocolViolation):
            rt._read_slots(((0,), (16,), "<f4", 128))
