"""Yin and Yang on two cores (:mod:`repro.core.driver`).

A serial Yin-Yang step takes each panel's RHS on its own thread: Yin's
on the caller's, Yang's on the helper's.  The panels share nothing a
sweep writes, so the fields must be bitwise those of the one-thread
step; single-state drivers (lat-lon, and every rank of a parallel run)
must never start the helper.
"""

import queue
import threading
import time

import numpy as np
import pytest

from repro.checkers.fingerprint import fingerprint_state
from repro.core import RunConfig, YinYangDynamo
from repro.core import driver as core_driver
from repro.core.latlon_core import LatLonDynamo
from repro.fd import backend as kernel_backend
from repro.fd.stencils import reset_stencil_counts, stencil_counts
from repro.mhd.parameters import MHDParameters
from repro.parallel.parallel_solver import ParallelYinYangDynamo
from repro.parallel.threadmpi import SimMPI


@pytest.fixture(scope="module")
def params():
    return MHDParameters.laptop_demo()


def config(params, nr=7, nth=12, nph=36):
    return RunConfig(nr=nr, nth=nth, nph=nph, params=params,
                     amp_temperature=1e-2, dt=1e-3, seed=3)


class _InlineHelper:
    """Stands in for the helper thread: runs each call at once, on the
    caller's thread, so the panels go one after the other."""

    def submit(self, fn, *args):
        done = queue.SimpleQueue()
        core_driver._Helper._run(fn, args, done)
        return done


@pytest.mark.parametrize("backend", ["c", "fused", "numpy"])
def test_two_workers_give_the_one_worker_bits(backend, params, monkeypatch):
    if kernel_backend.select(backend) != backend:
        pytest.skip(f"{backend} kernels unavailable here")
    monkeypatch.setenv(kernel_backend.KERNELS_ENV, backend)

    def three_steps():
        dyn = YinYangDynamo(config(params))
        dyn.run(3, record_every=0)
        return dyn.state

    threaded = three_steps()
    monkeypatch.setattr(core_driver, "_helper", _InlineHelper)
    inline = three_steps()
    assert fingerprint_state(inline).root == fingerprint_state(threaded).root
    for p in inline:
        for a, b in zip(inline[p].arrays(), threaded[p].arrays()):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_panel_rhs_surfaces_after_the_other_finished(failing, params):
    """One panel's RHS raises while the other is still running: the
    error comes out of ``step()`` only once the other has ended."""
    dyn = YinYangDynamo(config(params))
    bad, slow = dyn._equations[failing], dyn._equations[1 - failing]
    finished = threading.Event()
    slow_rhs = slow.rhs

    def rhs_then_linger(state, out=None):
        result = slow_rhs(state, out=out)
        time.sleep(0.3)
        finished.set()
        return result

    def broken_rhs(state, out=None):
        raise ValueError("out has the wrong shape")

    slow.rhs = rhs_then_linger
    bad.rhs = broken_rhs
    with pytest.raises(ValueError, match="wrong shape"):
        dyn.step()
    assert finished.is_set()


def _helper_threads() -> int:
    return sum(t.name.startswith("repro-panel") for t in threading.enumerate())


@pytest.fixture
def no_helper(monkeypatch):
    """A process whose helper thread has not been started yet."""
    monkeypatch.setattr(core_driver, "_helper_thread", None)


def test_serial_yinyang_starts_the_helper(params, no_helper):
    dyn = YinYangDynamo(config(params))
    before = _helper_threads()
    dyn.step()
    assert core_driver._helper_thread is not None
    assert _helper_threads() == before + 1


def test_latlon_starts_no_thread(params, no_helper):
    dyn = LatLonDynamo(RunConfig(nr=6, nth=12, nph=24, params=params, dt=1e-4))
    before = threading.active_count()
    dyn.step()
    assert threading.active_count() == before
    assert core_driver._helper_thread is None


def _rank_step_threads(comm, cfg):
    solver = ParallelYinYangDynamo(comm, cfg, 1, 1)
    comm.barrier()
    before = threading.active_count()
    solver.step()
    comm.barrier()
    return before, threading.active_count()


def test_thread_ranks_start_no_thread(params, no_helper):
    counts = SimMPI.run(2, _rank_step_threads, config(params), timeout=120.0)
    for before, after in counts:
        assert after == before
    assert core_driver._helper_thread is None


def test_threaded_step_tallies_every_sweep(params):
    """The `serial-small` grid: 8 panel RHS x 47 sweeps = 376 per step,
    whichever thread a panel's sweeps ran on."""
    dyn = YinYangDynamo(config(params, nr=8, nth=16, nph=48))
    dyn.step()
    reset_stencil_counts()
    dyn.step()
    assert sum(stencil_counts().values()) == 8 * 47
