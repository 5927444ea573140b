import numpy as np
import pytest

from repro.grids.component import ComponentGrid, Panel
from repro.mhd.equations import PanelEquations, rotation_vector_field
from repro.mhd.initial import conduction_state
from repro.mhd.parameters import MHDParameters
from repro.mhd.state import MHDState


@pytest.fixture(scope="module")
def setup():
    params = MHDParameters.laptop_demo()
    grid = ComponentGrid.build(9, 12, 36)
    eqs = PanelEquations(grid, params, (0.0, 0.0, params.omega))
    return grid, params, eqs


class TestRotationField:
    def test_constant_magnitude(self, setup):
        grid, params, eqs = setup
        mag = np.sqrt(sum(np.asarray(c) ** 2 for c in eqs.omega))
        np.testing.assert_allclose(mag, params.omega, atol=1e-12)

    def test_z_axis_components(self, setup):
        """Omega zhat: (Omega cos(theta), -Omega sin(theta), 0)."""
        grid, params, eqs = setup
        wr, wth, wph = eqs.omega
        np.testing.assert_allclose(
            wr[0, :, 0], params.omega * np.cos(grid.theta), atol=1e-12
        )
        np.testing.assert_allclose(
            wth[0, :, 0], -params.omega * np.sin(grid.theta), atol=1e-12
        )
        np.testing.assert_allclose(wph, 0.0, atol=1e-12)

    def test_yang_panel_same_physical_axis(self):
        """Yin with (0,0,w) and Yang with (0,w,0) describe the same
        physical rotation vector: rotating Yang's field into the global
        frame recovers Yin's values at the shared physical points."""
        params = MHDParameters.laptop_demo()
        grid = ComponentGrid.build(5, 12, 36, panel=Panel.YANG)
        w = rotation_vector_field(grid, (0.0, params.omega, 0.0))
        # convert Yang spherical components -> Yang Cartesian -> global
        from repro.coords.spherical import sph_vector_to_cart
        from repro.coords.transforms import yinyang_vector_map

        th, ph = np.meshgrid(grid.theta, grid.phi, indexing="ij")
        vx, vy, vz = sph_vector_to_cart(
            w[0][0], w[1][0], w[2][0], th, ph
        )
        gx, gy, gz = yinyang_vector_map(vx, vy, vz)
        np.testing.assert_allclose(gx, 0.0, atol=1e-12)
        np.testing.assert_allclose(gy, 0.0, atol=1e-12)
        np.testing.assert_allclose(gz, params.omega, atol=1e-12)


class TestSubsidiaryFields:
    def test_b_is_curl_a(self, setup):
        grid, params, eqs = setup
        rng = np.random.default_rng(0)
        state = MHDState.zeros(grid.shape)
        state.rho[:] = 1.0
        state.p[:] = 1.0
        for c in state.a:
            c[:] = rng.normal(size=grid.shape)
        b = eqs.magnetic_field(state)
        expected = eqs.ops.curl(state.a)
        for x, y in zip(b, expected):
            np.testing.assert_array_equal(x, y)

    def test_ideal_ohms_law(self, setup):
        """E = -v x B + eta j (eq. 6)."""
        grid, params, eqs = setup
        rng = np.random.default_rng(1)
        v = tuple(rng.normal(size=grid.shape) for _ in range(3))
        b = tuple(rng.normal(size=grid.shape) for _ in range(3))
        j = tuple(rng.normal(size=grid.shape) for _ in range(3))
        e = eqs.electric_field(v, b, j)
        vxb = eqs.ops.cross(v, b)
        for i in range(3):
            np.testing.assert_allclose(e[i], -vxb[i] + params.eta * j[i], atol=1e-13)


class TestRHSStructure:
    def test_static_unmagnetised_state_evolves_only_through_imbalance(self, setup):
        """With v = 0 and A = 0: continuity and induction RHS vanish
        identically; only the momentum/pressure truncation residual of
        the conduction profile survives."""
        grid, params, eqs = setup
        state = conduction_state(grid, params)
        k = eqs.rhs(state)
        np.testing.assert_allclose(k.rho, 0.0, atol=1e-12)
        for c in (k.ar, k.ath, k.aph):
            np.testing.assert_allclose(c, 0.0, atol=1e-12)
        # tangential momentum balance holds (profile is radial)
        interior = (slice(1, -1),) * 3
        assert np.abs(k.fth[interior]).max() < 1e-8
        assert np.abs(k.fph[interior]).max() < 1e-8

    def test_hydrostatic_residual_converges(self):
        """The radial momentum residual of the analytic balance shrinks
        at second order with radial resolution."""
        params = MHDParameters.laptop_demo()
        res = []
        for nr in (11, 21, 41):
            grid = ComponentGrid.build(nr, 10, 30)
            eqs = PanelEquations(grid, params, (0.0, 0.0, params.omega))
            k = eqs.rhs(conduction_state(grid, params))
            res.append(np.abs(k.fr[1:-1]).max())
        # monotone decrease, with the refinement ratio approaching the
        # asymptotic 4x (the steep inner boundary layer delays it)
        assert res[0] > res[1] > res[2]
        assert res[1] / res[2] > 2.5

    def test_coriolis_force_direction(self, setup):
        """A uniform azimuthal flow in the rotating frame feels a radial/
        latitudinal Coriolis force 2 rho v x Omega, no azimuthal one."""
        grid, params, eqs = setup
        state = conduction_state(grid, params)
        vph = 0.01
        state.fph[:] = state.rho * vph
        k = eqs.rhs(state)
        k0 = eqs.rhs(conduction_state(grid, params))
        interior = (slice(2, -2),) * 3
        dfr = (k.fr - k0.fr)[interior]
        # v x Omega for v = vph phhat, Omega = w zhat:
        # phhat x zhat = ... radial part = vph w sin(theta) > 0 (outward)
        assert dfr.mean() > 0.0

    def test_rhs_returns_new_state(self, setup):
        grid, params, eqs = setup
        state = conduction_state(grid, params)
        k = eqs.rhs(state)
        assert k is not state
        assert k.shape == state.shape

    def test_ohmic_heating_nonnegative(self, setup):
        grid, params, eqs = setup
        rng = np.random.default_rng(2)
        state = conduction_state(grid, params)
        for c in state.a:
            c += 0.1 * rng.normal(size=grid.shape)
        q = eqs.ohmic_heating(state)
        assert q.min() >= 0.0

    def test_energy_equation_heating_raises_pressure(self, setup):
        """Pure Joule heating (v = 0) gives dp/dt = (gamma-1) eta j^2 +
        conduction; with a uniform-T state the conduction term is tiny
        and dp/dt must be positive where j is strong."""
        grid, params, eqs = setup
        state = MHDState.zeros(grid.shape)
        state.rho[:] = 1.0
        state.p[:] = 1.0  # T = 1 uniformly: no conduction of T
        rng = np.random.default_rng(3)
        for c in state.a:
            c[:] = 0.1 * rng.normal(size=grid.shape)
        k = eqs.rhs(state)
        j2 = eqs.ops.norm2(eqs.current_density(eqs.magnetic_field(state)))
        interior = (slice(2, -2),) * 3
        strong = j2[interior] > np.percentile(j2[interior], 90)
        assert np.all(k.p[interior][strong] > 0.0)


class TestFusedMatchesReference:
    """Property test for the PR acceptance criterion: the
    derivative-cached fused RHS agrees with the reference per-operator
    path to <= 1e-13 (relative to each field's magnitude) on randomized
    states, for all three patch flavours."""

    CASES = {
        "yin": (Panel.YIN, (9, 12, 36)),
        "yang": (Panel.YANG, (9, 12, 36)),
        "latlon": (None, (9, 14, 20)),
    }

    @staticmethod
    def _build(kind):
        from repro.grids.latlon import LatLonGrid

        params = MHDParameters.laptop_demo()
        panel, (nr, nth, nph) = TestFusedMatchesReference.CASES[kind]
        if panel is None:
            patch = LatLonGrid.build(nr, nth, nph, ri=params.ri, ro=params.ro)
            omega = (0.0, 0.0, params.omega)
        else:
            patch = ComponentGrid.build(nr, nth, nph, panel=panel)
            omega = (
                (0.0, 0.0, params.omega)
                if panel is Panel.YIN
                else (0.0, params.omega, 0.0)
            )
        return patch, params, omega

    @staticmethod
    def _random_state(shape, seed):
        rng = np.random.default_rng(seed)

        def noise(base):
            return base + 0.3 * rng.standard_normal(shape)

        return MHDState(
            rho=noise(1.0), fr=noise(0.0), fth=noise(0.0), fph=noise(0.0),
            p=noise(1.0), ar=noise(0.0), ath=noise(0.0), aph=noise(0.0),
        )

    @pytest.mark.parametrize("kind", ["yin", "yang", "latlon"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fused_equals_reference(self, kind, seed):
        from repro.mhd.state import FIELD_NAMES

        patch, params, omega = self._build(kind)
        fused = PanelEquations(patch, params, omega, backend="fused")
        reference = PanelEquations(patch, params, omega, backend="numpy")
        state = self._random_state(patch.shape, seed)
        # two fused evaluations: the second exercises the steady-state
        # buffer-pool path (recycled, not freshly zeroed, memory)
        fused.rhs(state)
        kf, kr = fused.rhs(state), reference.rhs(state)
        for name in FIELD_NAMES:
            a, b = getattr(kf, name), getattr(kr, name)
            scale = float(np.max(np.abs(b)))
            assert np.max(np.abs(a - b)) <= 1e-13 * max(scale, 1.0), name

    def test_fused_flag_selects_path(self):
        patch, params, omega = self._build("yin")
        eq = PanelEquations(patch, params, omega, backend="fused")
        assert eq.kernel_backend == "fused"
        state = self._random_state(patch.shape, 7)
        via_flag = eq.rhs(state)
        direct = eq.rhs_fused(state, MHDState.zeros(patch.shape))
        from repro.mhd.state import FIELD_NAMES

        for name in FIELD_NAMES:
            np.testing.assert_array_equal(
                getattr(via_flag, name), getattr(direct, name)
            )


@pytest.mark.parametrize("with_base", [False, True], ids=["plain", "base"])
@pytest.mark.parametrize("backend", ["numpy", "fused", "c"])
def test_rhs_writes_into_out(backend, with_base):
    """The one ``out`` contract on every backend: ``rhs(state, out=store)``
    returns ``store``, overwrites all of it, leaves ``state`` untouched
    and is bit-for-bit ``rhs(state)`` — with and without a base RHS."""
    from repro.fd import backend as kernel_backend
    from repro.grids.yinyang import YinYangGrid

    if not kernel_backend.probe(backend).available:
        pytest.skip(f"{backend} kernel backend unavailable")
    params = MHDParameters.laptop_demo()
    patch = YinYangGrid(7, 10, 17, ri=params.ri, ro=params.ro).yang
    eq = PanelEquations(patch, params, (0.0, params.omega, 0.0), backend=backend)
    assert eq.kernel_backend == backend
    base = conduction_state(patch, params)
    if with_base:
        eq.subtract_base(base)
    rng = np.random.default_rng(5)
    state = MHDState(*(x + 0.05 * rng.standard_normal(x.shape) for x in base.arrays()))
    before = state.copy()
    store = MHDState(*(np.full(patch.shape, np.nan) for _ in range(8)))

    got = eq.rhs(state, out=store)
    fresh = eq.rhs(state)
    assert got is store and fresh is not store
    for g, f, s, b in zip(got.arrays(), fresh.arrays(), state.arrays(), before.arrays()):
        np.testing.assert_array_equal(g.view(np.uint64), f.view(np.uint64))
        np.testing.assert_array_equal(s.view(np.uint64), b.view(np.uint64))
