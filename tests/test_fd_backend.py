"""Kernel-backend factory: selection, probing, and silent fallback.

``REPRO_KERNELS`` is read at selection time (construction of
:class:`~repro.mhd.equations.PanelEquations`), so these tests drive it
with ``monkeypatch.setenv`` in-process — no subprocesses needed.  The
forced-fallback tests simulate a machine with no C toolchain *and* no
cached build by monkeypatching the probe seam and pointing the build
cache at an empty directory.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.fd import backend as kernel_backend
from repro.fd.ckernels import build


needs_c = pytest.mark.skipif(
    not kernel_backend.probe("c").available,
    reason="C kernel backend unavailable",
)


@pytest.fixture
def no_toolchain(monkeypatch, tmp_path):
    """Simulate: no compiler, no cffi, no cached shared object."""
    build.reset()
    monkeypatch.setenv(build._CACHE_ENV, str(tmp_path / "empty-cache"))
    monkeypatch.setattr(
        build, "toolchain_available", lambda: (False, "forced by test")
    )
    yield
    build.reset()  # drop the memoized failure so later tests can load


def test_backend_names_and_detect():
    assert kernel_backend.BACKENDS == ("numpy", "fused", "c")
    infos = kernel_backend.detect()
    assert [b.name for b in infos] == list(kernel_backend.BACKENDS)
    # NumPy paths are always available.
    assert infos[0].available and infos[1].available


def test_default_selection_is_fused(no_toolchain, monkeypatch):
    """Unset env on a host that cannot build or load the C kernels:
    the fused NumPy path, no warning, nothing reported as a fallback."""
    monkeypatch.delenv(kernel_backend.KERNELS_ENV, raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel_backend.default_backend() == "fused"
        assert kernel_backend.requested() == "fused"
        assert kernel_backend.select() == "fused"


@needs_c
def test_default_selection_is_c_when_resident(monkeypatch):
    """Unset env where the shared object is cached or buildable: the
    compiled backend, for every user."""
    monkeypatch.delenv(kernel_backend.KERNELS_ENV, raising=False)
    assert kernel_backend.default_backend() == "c"
    assert kernel_backend.requested() == "c"
    assert kernel_backend.select() == "c"
    assert kernel_backend.compiled_module("c") is not None


def test_env_selects_backend(monkeypatch):
    monkeypatch.setenv(kernel_backend.KERNELS_ENV, "numpy")
    assert kernel_backend.select() == "numpy"
    monkeypatch.setenv(kernel_backend.KERNELS_ENV, "fused")
    assert kernel_backend.select() == "fused"
    assert kernel_backend.compiled_module("fused") is None


def test_unknown_env_value_warns_and_defaults(monkeypatch):
    monkeypatch.setenv(kernel_backend.KERNELS_ENV, "fortran")
    with pytest.warns(RuntimeWarning, match="fortran"):
        assert kernel_backend.requested() == kernel_backend.default_backend()


def test_explicit_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernel_backend.select("fortran")


def test_probe_c_without_toolchain(no_toolchain):
    info = kernel_backend.probe("c")
    assert not info.available
    assert info.detail  # says why


def test_select_c_falls_back_silently(no_toolchain, monkeypatch):
    monkeypatch.setenv(kernel_backend.KERNELS_ENV, "c")
    assert kernel_backend.select() == "fused"
    assert kernel_backend.compiled_module(kernel_backend.select()) is None


def test_equations_fall_back_and_still_run(no_toolchain, monkeypatch):
    """REPRO_KERNELS=c with no toolchain: construction and RHS succeed
    on the fused path, and the instance reports what actually ran."""
    from repro.grids.yinyang import YinYangGrid
    from repro.mhd.equations import PanelEquations
    from repro.mhd.initial import conduction_state
    from repro.mhd.parameters import MHDParameters

    monkeypatch.setenv(kernel_backend.KERNELS_ENV, "c")
    params = MHDParameters.laptop_demo()
    grid = YinYangGrid(7, 8, 12, ri=params.ri, ro=params.ro)
    eq = PanelEquations(grid.yin, params, (0.0, 0.0, params.omega))
    assert eq.kernel_backend == "fused"
    out = eq.rhs(conduction_state(grid.yin, params))
    assert np.all(np.isfinite(out.rho))


def test_parallel_run_reports_fallback_backend(no_toolchain, monkeypatch):
    """A thread-backend run with REPRO_KERNELS=c and no toolchain must
    finish and report the backend that actually executed."""
    from repro.core.config import RunConfig
    from repro.parallel.parallel_solver import run_parallel_dynamo

    monkeypatch.setenv(kernel_backend.KERNELS_ENV, "c")
    cfg = RunConfig(nr=7, nth=8, nph=24, dt=1e-3, amp_temperature=1e-2)
    res = run_parallel_dynamo(cfg, 1, 1, 2, backend="thread")
    assert res.kernel_backend == "fused"
    assert res.steps == 2


def test_driver_without_toolchain_runs_on_fused(no_toolchain, monkeypatch):
    """Unset env, no cffi/compiler/cache: the driver builds and steps on
    the NumPy paths everywhere (RHS, state algebra) and says so."""
    from repro.core.config import RunConfig
    from repro.core.yycore import YinYangDynamo

    monkeypatch.delenv(kernel_backend.KERNELS_ENV, raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dyn = YinYangDynamo(RunConfig(nr=7, nth=8, nph=24, dt=1e-3))
        dyn.step()
    assert {eq.kernel_backend for eq in dyn.equations.values()} == {"fused"}
    assert dyn.kernels is None
    assert dyn.is_physical()


@needs_c
def test_backend_is_fixed_at_driver_construction(monkeypatch):
    """One backend per driver: REPRO_KERNELS is read when the driver is
    built; flipping it afterwards changes no kernel the step uses."""
    from repro.core.config import RunConfig
    from repro.core.yycore import YinYangDynamo

    cfg = RunConfig(nr=7, nth=8, nph=24, dt=1e-3)
    monkeypatch.setenv(kernel_backend.KERNELS_ENV, "fused")
    on_fused = YinYangDynamo(cfg)
    monkeypatch.setenv(kernel_backend.KERNELS_ENV, "c")
    on_c = YinYangDynamo(cfg)
    monkeypatch.setenv(kernel_backend.KERNELS_ENV, "numpy")

    calls = []
    monkeypatch.setattr(kernel_backend, "select",
                        lambda *a, **k: calls.append(a) or "numpy")
    on_fused.step()
    on_c.step()
    assert calls == []  # nothing on the step path consults the registry
    assert on_fused.kernels is None and on_c.kernels is not None
    assert {eq.kernel_backend for eq in on_fused.equations.values()} == {"fused"}
    assert {eq.kernel_backend for eq in on_c.equations.values()} == {"c"}
    for p, s in on_fused.state.items():
        for a, b in zip(s.arrays(), on_c.state[p].arrays()):
            np.testing.assert_array_equal(a, b)


def test_build_status_reports_cache_state(no_toolchain):
    status = build.build_status()
    assert status["built"] is False
    assert status["loaded"] is False
    assert status["toolchain_ok"] is False
    assert "empty-cache" in status["cache_dir"]


@needs_c
def test_cached_so_loads_without_toolchain(monkeypatch):
    """Once the shared object is cached, load() must not require a
    compiler — deployment machines only need the cache directory."""
    build.load()  # ensure the cache is warm
    build.reset()
    monkeypatch.setattr(
        build, "toolchain_available", lambda: (False, "forced by test")
    )
    try:
        lib, ffi = build.load()
        assert hasattr(lib, "ck_axpy")
    finally:
        build.reset()


@needs_c
def test_concurrent_first_loads_share_one_result(monkeypatch):
    """The thread launcher's ranks all build their solver at once: eight
    threads racing through a cold ``load()`` must dlopen once and all
    hold the same ``(lib, ffi)`` pair."""
    import sys
    import threading

    build.load()  # the shared object exists; only the load is raced
    build.reset()
    loads = []
    real = build._load_shared_object

    def counting(target):
        loads.append(target)
        return real(target)

    monkeypatch.setattr(build, "_load_shared_object", counting)
    start = threading.Barrier(8)
    results = [None] * 8

    def worker(i):
        start.wait(timeout=30)
        results[i] = build.load()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        build.reset()
    assert not any(t.is_alive() for t in threads)
    assert len(loads) == 1
    assert all(r is results[0] and r is not None for r in results)
