"""Compiled kernel backend vs the NumPy reference, element for element.

The C kernels were written to mirror NumPy's per-operation rounding
(left-associated accumulation, ``-ffp-contract=off``), so equality here
is *bitwise*, not approximate: the elementwise state algebra, the fused
RHS and a whole serial dynamo run.  Every comparison is on the bit
patterns (:func:`assert_bits_equal`), so a ``-0.0`` where NumPy has
``+0.0`` fails too — the assemble sweep's skipped rotation terms rely on
signed-zero identities.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd import backend as kernel_backend
from repro.fd import stencils as np_stencils

pytestmark = pytest.mark.skipif(
    not kernel_backend.probe("c").available,
    reason="C kernel backend unavailable (no toolchain and no cached build)",
)


def assert_bits_equal(got, want, err_msg=""):
    """Same dtype, shape and IEEE-754 bit pattern in every element."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, err_msg
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint64),
        np.ascontiguousarray(want).view(np.uint64), err_msg=err_msg)


def assert_states_bits_equal(got, want, err_msg=""):
    from repro.mhd.state import FIELD_NAMES

    for name in FIELD_NAMES:
        assert_bits_equal(getattr(got, name), getattr(want, name),
                          err_msg=f"{err_msg} {name}")


def test_assert_bits_equal_tells_signed_zeros_apart():
    assert_bits_equal(np.array([0.0, 1.5]), np.array([0.0, 1.5]))
    with pytest.raises(AssertionError):
        assert_bits_equal(np.array([-0.0]), np.array([0.0]))


def _ck():
    from repro.fd.ckernels import elementwise

    return elementwise


def test_elementwise_iadd_axpy_bitwise():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 5, 6))
    y = rng.standard_normal((4, 5, 6))
    a = 0.37
    ck = _ck()
    out = np.empty_like(x)
    assert ck.axpy_into(x, y, a, out)
    assert_bits_equal(out, x + a * y)
    # Non-contiguous operands are refused (caller falls back to NumPy).
    assert not ck.axpy_into(x.T, y.T, a, out.T)


def _panel_case(panel: str, shape: tuple[int, int, int]):
    """A perturbed conduction state on one panel with the solver's own
    rotation vector: Yin-local (0, 0, omega) leaves Omega_phi inactive,
    act = (1, 1, 0); Yang-local (0, omega, 0) has all three, (1, 1, 1)."""
    from repro.grids.yinyang import YinYangGrid
    from repro.mhd.initial import conduction_state
    from repro.mhd.parameters import MHDParameters
    from repro.mhd.state import FIELD_NAMES, MHDState

    params = MHDParameters.laptop_demo()
    grid = YinYangGrid(*shape, ri=params.ri, ro=params.ro)
    patch = getattr(grid, panel)
    omega = ((0.0, 0.0, params.omega) if panel == "yin"
             else (0.0, params.omega, 0.0))
    base = conduction_state(patch, params)
    rng = np.random.default_rng(42)
    state = MHDState(
        **{
            n: getattr(base, n) + 0.05 * rng.standard_normal(base.rho.shape)
            for n in FIELD_NAMES
        }
    )
    return patch, params, omega, state, base


@pytest.fixture
def yin_case():
    patch, params, omega, state, _ = _panel_case("yin", (9, 12, 16))
    return patch, params, omega, state


# an even and an odd phi count (the odd one leaves a remainder after the
# vectorised interior loop on any vector width), each on both panels
PANEL_CASES = [(panel, shape) for shape in ((9, 12, 16), (7, 10, 17))
               for panel in ("yin", "yang")]


def test_rhs_c_bitwise_matches_fused(monkeypatch):
    from repro.mhd.equations import PanelEquations

    monkeypatch.setenv(kernel_backend.KERNELS_ENV, "c")
    for panel, shape in PANEL_CASES:
        patch, params, omega, state, base = _panel_case(panel, shape)
        expected_act = (True, True, False) if panel == "yin" else (True, True, True)
        for with_base in (False, True):
            case = f"{panel} {shape} base={with_base}"
            fused = PanelEquations(patch, params, omega, backend="fused")
            ceq = PanelEquations(patch, params, omega, fused=True)
            assert ceq.kernel_backend == "c"
            assert ceq._w2_active == expected_act
            if with_base:
                fused.subtract_base(base)
                ceq.subtract_base(base)
                assert_states_bits_equal(ceq.base_rhs, fused.base_rhs, case)
            want = fused.rhs(state)
            got = ceq.rhs(state)
            assert ceq.kernel_backend == "c", case  # no silent fallback
            assert_states_bits_equal(got, want, case)


def test_isa_names_the_loaded_clone():
    from repro.fd.ckernels import build

    build.load()
    isa = build.isa()
    assert isa in ("avx2", "default")
    assert build.build_status()["isa"] == isa
    assert kernel_backend.probe("c").detail == f"compiled kernels loaded ({isa})"


def test_undispatched_build_gives_the_same_bits(tmp_path, monkeypatch):
    """The sweeps compiled without ``target_clones`` — the baseline code
    a host without AVX2 runs — give the bits of the dispatched build, on
    both panels with the base subtraction."""
    from cffi import FFI

    from repro.fd.ckernels import build, csrc
    from repro.fd.ckernels.rhs import CPanelContext
    from repro.mhd.equations import PanelEquations

    clones = '__attribute__((target_clones("avx2","default")))'
    assert csrc.CSRC.count(clones) == 1
    name = "_repro_ckernels_undispatched"
    builder = FFI()
    builder.cdef(csrc.CDEF)
    builder.set_source(name, csrc.CSRC.replace(clones, ""),
                       extra_compile_args=build.COMPILE_ARGS)
    spec = importlib.util.spec_from_file_location(
        name, builder.compile(tmpdir=str(tmp_path)))
    plain = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plain)

    for panel in ("yin", "yang"):
        patch, params, omega, state, base = _panel_case(panel, (7, 10, 17))
        eq = PanelEquations(patch, params, omega, backend="c")
        eq.subtract_base(base)
        want = eq.rhs(state)
        assert eq.kernel_backend == "c"
        with monkeypatch.context() as m:
            m.setattr(build, "load", lambda: (plain.lib, plain.ffi))
            ctx = CPanelContext(eq)
        assert ctx._lib is plain.lib
        assert_states_bits_equal(ctx.rhs(state, base=eq.base_rhs), want, panel)


def test_rhs_c_out_and_base_bitwise_match_fused(yin_case):
    """The compiled assemble writes into offered storage and subtracts
    the base RHS in the same sweep — bitwise what the fused path gets
    from a fresh evaluation followed by ``iadd_scaled(-1.0, base)``."""
    from repro.mhd.equations import PanelEquations
    from repro.mhd.initial import conduction_state
    from repro.mhd.state import FIELD_NAMES, MHDState

    patch, params, omega, state = yin_case
    fused = PanelEquations(patch, params, omega, backend="fused")
    ceq = PanelEquations(patch, params, omega, backend="c")
    base = conduction_state(patch, params)
    fused.subtract_base(base)
    ceq.subtract_base(base)
    assert_states_bits_equal(ceq.base_rhs, fused.base_rhs, "base")

    want = fused.rhs(state)
    before = state.copy()
    store = MHDState.zeros(patch.shape)
    got = ceq.rhs(state, out=store)
    assert got is store and ceq.kernel_backend == "c"
    fresh = ceq.rhs(state)
    assert fresh is not store
    assert_states_bits_equal(got, want, "out")
    assert_states_bits_equal(fresh, want, "fresh")
    assert_states_bits_equal(state, before, "input")
    # the NumPy paths may ignore offered storage; the result is the same
    assert fused.rhs(state, out=store) is not store
    # storage the C sweep cannot write into is declined, not corrupted
    strided = MHDState(*(np.zeros(patch.shape[::-1]).T for _ in FIELD_NAMES))
    declined = ceq.rhs(state, out=strided)
    assert declined is not strided
    assert not any(np.any(a) for a in strided.arrays())
    assert_bits_equal(declined.p, want.p)


def test_rhs_c_stencil_counts_match_fused(yin_case, monkeypatch):
    from repro.mhd.equations import PanelEquations

    patch, params, omega, state = yin_case
    fused = PanelEquations(patch, params, omega, backend="fused")
    np_stencils.reset_stencil_counts()
    fused.rhs(state)
    fused_counts = np_stencils.stencil_counts()

    monkeypatch.setenv(kernel_backend.KERNELS_ENV, "c")
    ceq = PanelEquations(patch, params, omega, fused=True)
    ceq.rhs(state)  # build the context outside the counted window
    np_stencils.reset_stencil_counts()
    ceq.rhs(state)
    c_counts = np_stencils.stencil_counts()

    assert c_counts == fused_counts == {"diff": 44, "diff2": 3}


def test_serial_dynamo_c_matches_numpy(monkeypatch):
    """10 steps of the serial dynamo, whole stage compiled (RHS with the
    base subtraction, state algebra, RK4 combine) vs the fused NumPy
    driver: bitwise."""
    from repro.core.config import RunConfig
    from repro.core.yycore import YinYangDynamo

    def run(backend_env):
        monkeypatch.setenv(kernel_backend.KERNELS_ENV, backend_env)
        cfg = RunConfig(nr=7, nth=10, nph=30, dt=1e-3,
                        amp_temperature=1e-2, seed=123)
        dyn = YinYangDynamo(cfg)
        for _ in range(10):
            dyn.step()
        return dyn

    ref = run("fused")
    cdyn = run("c")
    for panel, eq in cdyn.equations.items():
        assert eq.kernel_backend == "c", panel
        assert ref.equations[panel].kernel_backend == "fused"
    assert ref.kernels is None and cdyn.kernels is not None
    for panel, state in cdyn.state.items():
        assert_states_bits_equal(state, ref.state[panel], str(panel))


# ---- the rest of the RK4 stage: the final combine ---------------------------------


def _strided(a):
    """A non-contiguous view holding ``a``'s values."""
    big = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    view = big[..., ::2]
    view[...] = a
    assert not view.flags.c_contiguous
    return view


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(2, 6)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    dt=st.floats(min_value=1e-6, max_value=10.0),
    mode=st.sampled_from(("contiguous", "strided-input", "strided-out", "float32")),
)
def test_rk4_combine_bitwise_equals_four_passes(shape, seed, dt, mode):
    """One compiled pass == axpy_into + 3x iadd_scaled, NumPy order,
    and a field the C loop refuses takes exactly that NumPy path."""
    from repro.mhd.state import FIELD_NAMES, MHDState

    rng = np.random.default_rng(seed)

    def rand_state():
        return MHDState(*(rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
                          for _ in FIELD_NAMES))

    y, ks = rand_state(), [rand_state() for _ in range(4)]
    weights = (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0)
    out = MHDState.zeros(shape)
    if mode == "strided-input":
        ks[2].p = _strided(ks[2].p)
    elif mode == "strided-out":
        out.fth = _strided(out.fth)
    elif mode == "float32":
        ks[1].ar = ks[1].ar.astype(np.float32)

    # the reference: the four NumPy passes rk4_step used to make
    want = y.axpy_into(weights[0], ks[0], MHDState.zeros(shape))
    for a, k in zip(weights[1:], ks[1:]):
        want.iadd_scaled(a, k)

    ck = _ck()
    eligible = mode == "contiguous"
    assert ck.rk4_combine_into(y.p, [k.p for k in ks], weights, out.p) == (
        eligible or mode in ("strided-out", "float32"))
    got = y.rk4_combine_into(weights, ks, out, ck)
    assert got is out
    plain = y.rk4_combine_into(weights, ks, MHDState.zeros(shape))
    assert_states_bits_equal(got, want, "compiled")
    assert_states_bits_equal(plain, want, "numpy")
