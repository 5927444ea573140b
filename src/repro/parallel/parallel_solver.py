"""The flat-MPI parallel yycore (paper Section IV), on SimMPI.

Program structure, mirroring the paper:

1. ``world.split`` divides the processes into the Yin group and the Yang
   group ("panels");
2. ``create_cart`` builds a 2-D process array inside each panel
   (``MPI_CART_CREATE``), neighbours via ``shift`` (``MPI_CART_SHIFT``);
3. each process owns a ``theta x phi`` tile (full radial extent) and
   exchanges 2-wide halos with its four neighbours
   (``MPI_SEND``/``MPI_IRECV``);
4. the Yin<->Yang overset interpolation communicates under the world
   communicator.

The parallel solver reproduces the serial
:class:`~repro.core.yycore.YinYangDynamo` *bitwise*: identical stencils
(one-sided exactly at panel edges), identical interpolation arithmetic
and identical reduction association in the time-step estimate.  The
equivalence is asserted by the integration tests.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import RunConfig
from repro.core.guard import HealthReport, assert_healthy
from repro.engine import CadenceController, IntegrationResult, Integrator
from repro.engine.observers import StepObserver, TimerObserver
from repro.fd import backend as kernel_backend
from repro.grids.base import SphericalPatch
from repro.grids.component import Panel
from repro.grids.yinyang import YinYangGrid
from repro.mhd.boundary import WallBC
from repro.mhd.cfl import min_cell_widths
from repro.mhd.equations import PanelEquations
from repro.mhd.initial import conduction_state, perturb_state
from repro.mhd.rk4 import rk4_step
from repro.mhd.state import FIELD_NAMES, MHDState
from repro.parallel.cart import create_cart
from repro.parallel.decomposition import PanelDecomposition
from repro.parallel.backends import get_backend, select
from repro.parallel.halo import HaloExchanger
from repro.parallel.overset_comm import OversetExchanger
from repro.parallel.simmpi import Communicator

Array = np.ndarray


def _restrict(global_field: Array, sl: tuple[slice, slice]) -> Array:
    return np.ascontiguousarray(global_field[:, sl[0], sl[1]])


class ParallelYinYangDynamo:
    """One rank's view of the parallel dynamo.

    Construct inside a SimMPI program (any backend); ``world.size``
    must equal ``2 * pth * pph`` (the paper notes the total process
    count is even).  Every stage is the paper's blocking schedule:
    halo and overset traffic travel as one message per neighbour / per
    donor pair, then the RHS runs.
    """

    #: the step never overlaps communication with compute; kept because
    #: ``benchmarks/e2e/workloads.py`` records it in its run metadata
    overlap = False

    def __init__(self, world: Communicator, config: RunConfig, pth: int,
                 pph: int):
        self.world = world
        self.config = config
        self.pth, self.pph = pth, pph
        nper = pth * pph
        if world.size != 2 * nper:
            raise ValueError(
                f"world size {world.size} != 2 * {pth} * {pph} processes"
            )
        c = config
        self.panel_index = 0 if world.rank < nper else 1
        self.panel: Panel = Panel.YIN if self.panel_index == 0 else Panel.YANG
        # the paper's MPI_COMM_SPLIT into Yin/Yang groups
        self.panel_comm = world.split(color=self.panel_index, key=world.rank)
        self.cart = create_cart(self.panel_comm, (pth, pph))

        # global geometry is cheap and known to every rank
        self.grid = YinYangGrid(
            c.nr, c.nth, c.nph, ri=c.params.ri, ro=c.params.ro,
            extra_theta=c.extra_theta, extra_phi=c.extra_phi,
        )
        self.decomp = PanelDecomposition(c.nth, c.nph, pth, pph)
        self.sub = self.decomp.subdomain(self.panel_comm.rank)

        panel_grid = self.grid.panel(self.panel)
        lsl = self.sub.local_extent_global()
        self.local_patch = SphericalPatch(
            r=panel_grid.r,
            theta=panel_grid.theta[lsl[0]],
            phi=panel_grid.phi[lsl[1]],
        )
        omega = c.params.omega
        omega_cart = (0.0, 0.0, omega) if self.panel is Panel.YIN else (0.0, omega, 0.0)
        # one kernel backend for the rank's life (REPRO_KERNELS read once)
        backend = kernel_backend.select()
        #: compiled elementwise kernels for the state algebra, or None
        self.kernels = kernel_backend.compiled_module(backend)
        self.equations = PanelEquations(self.local_patch, c.params, omega_cart,
                                        backend=backend)
        self.wall_bc = WallBC(c.params, magnetic=c.magnetic_bc)
        self.halo = HaloExchanger(self.cart, self.sub)
        self.overset = OversetExchanger(
            self.grid, self.decomp, world, self.panel_index,
            self.panel_comm.rank,
        )

        self.time = 0.0
        self.step_count = 0
        self._last_dt = float("nan")
        #: wall seconds per step phase; every ``enforce`` books ``comm``
        self.phase_seconds = {"comm": 0.0}

        if c.subtract_base_rhs:
            self.equations.subtract_base(
                self._restrict_state(self._serial_enforced_conduction())
            )
        #: recycled storage for a step's four stage derivatives (see
        #: :class:`~repro.core.yycore.YinYangDynamo`)
        self._ks = (None, None, None, None)
        if self.kernels is not None:
            self._ks = tuple(
                MHDState.zeros(self.local_patch.shape) for _ in range(4)
            )
        self.state = self._initial_state()

    # ---- state setup -----------------------------------------------------------

    def _serial_enforced_conduction(self) -> dict[Panel, MHDState]:
        """The serial driver's enforced conduction pair (global arrays)."""
        pair = {
            p: conduction_state(self.grid.panel(p), self.config.params)
            for p in (Panel.YIN, Panel.YANG)
        }
        self._serial_enforce(pair)
        return pair

    def _serial_enforce(self, pair: dict[Panel, MHDState]) -> None:
        yin, yang = pair[Panel.YIN], pair[Panel.YANG]
        self.grid.apply_overset_scalar(yin.rho, yang.rho)
        self.grid.apply_overset_scalar(yin.p, yang.p)
        self.grid.apply_overset_vector(yin.f, yang.f)
        self.grid.apply_overset_vector(yin.a, yang.a)
        self.wall_bc.apply(yin)
        self.wall_bc.apply(yang)

    def _restrict_state(self, pair: dict[Panel, MHDState]) -> MHDState:
        sl = self.sub.local_extent_global()
        g = pair[self.panel]
        return MHDState(*(_restrict(arr, sl) for arr in g.arrays()))

    def _initial_state(self) -> MHDState:
        """Replicate the serial initial state deterministically, restrict."""
        c = self.config
        pair: dict[Panel, MHDState] = {}
        for k, p in enumerate((Panel.YIN, Panel.YANG)):
            s = conduction_state(self.grid.panel(p), c.params)
            rng = np.random.default_rng(c.seed + k)
            perturb_state(
                s, amp_temperature=c.amp_temperature,
                amp_seed_field=c.amp_seed_field, rng=rng,
            )
            pair[p] = s
        self._serial_enforce(pair)
        return self._restrict_state(pair)

    # ---- TimeDependentSystem interface -------------------------------------------

    def rhs(self, state: MHDState, out: MHDState | None = None) -> MHDState:
        """The tile's derivative (base RHS subtracted by the equations);
        the caller's own — fresh, or written into offered ``out``."""
        return self.equations.rhs(state, out=out)

    def enforce(self, state: MHDState) -> None:
        """Overset exchange, halo exchange, wall conditions — in that
        order, so ring updates reach neighbouring halos before the local
        stencils read them.  Wall seconds accrue to
        ``phase_seconds["comm"]``."""
        t0 = _time.perf_counter()
        # all 8 prognostic fields in ONE message per donor pair
        self.overset.exchange_state(state, tag0=0)
        self.halo.exchange(tuple(state.arrays()))
        self.wall_bc.apply(state)
        self.phase_seconds["comm"] += _time.perf_counter() - t0

    @staticmethod
    def axpy(state: MHDState, a: float, k: MHDState) -> MHDState:
        return state.axpy(a, k)

    def axpy_into(self, state: MHDState, a: float, k: MHDState,
                  out: MHDState) -> MHDState:
        """``state + a*k`` written over the dead stage state ``out``."""
        return state.axpy_into(a, k, out, self.kernels)

    @property
    def rk4_combine(self):
        """:func:`rk4_step`'s one-call final combine, with compiled
        kernels only (see :class:`~repro.core.yycore.YinYangDynamo`)."""
        return self._rk4_combine if self.kernels is not None else None

    def _rk4_combine(self, state: MHDState, weights, ks, out: MHDState) -> MHDState:
        """The final RK4 combine over the dead stage state ``out``."""
        return state.rk4_combine_into(weights, ks, out, self.kernels)

    # ---- stepping ----------------------------------------------------------------

    def estimate_dt(self) -> float:
        """CFL estimate bit-matching the serial driver's.

        The serial code computes per-panel maxima over whole-panel arrays
        and takes the min over panels; max/min reductions are
        association-free, so distributed panel reductions reproduce the
        serial floats exactly.
        """
        c = self.config.params
        s = self.state
        v = s.velocity()
        local = np.array([
            float(np.max(s.p / s.rho)),
            float(np.max(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)),
            float(np.max(s.ar**2 + s.ath**2 + s.aph**2)),
            -float(np.min(s.rho)),  # negated so one max-reduce serves all
        ])
        panel_max = self.panel_comm.allreduce(local, op=np.maximum)
        max_pr, max_v2, max_a2, neg_min_rho = panel_max
        rho_min = -neg_min_rho
        sound = float(np.sqrt(c.gamma * max_pr))
        flow = float(np.sqrt(max_v2))
        alfven = float(
            np.sqrt(max_a2) * (2.0 * np.pi / (c.ro - c.ri)) / np.sqrt(rho_min)
        )
        h = min(min_cell_widths(self.grid.panel(self.panel)))
        d_max = max(c.mu / rho_min, c.kappa / rho_min, c.eta)
        cfl = self.config.cfl
        dt_panel = min(np.inf, cfl * h / max(sound + alfven + flow, 1e-300),
                       cfl * h * h / (2.0 * d_max))
        return float(self.world.allreduce(dt_panel, op=min))

    def step(self, dt: float | None = None) -> float:
        if dt is None:
            dt = self.config.dt or self.estimate_dt()
        self.state = rk4_step(self, self.state, dt, self._ks)
        self.time += dt
        self.step_count += 1
        self._last_dt = dt
        c = self.config
        if c.filter_strength > 0.0 and self.step_count % c.filter_every == 0:
            self._filter_local(self.state, c.filter_strength)
            self.enforce(self.state)
        return dt

    def _filter_local(self, state: MHDState, strength: float) -> None:
        """The Shapiro filter on this rank's owned interior points.

        Reproduces the serial filter bitwise: the increment is evaluated
        from pre-filter values (halos hold the neighbours' pre-filter
        owned data), on exactly the global points the serial code
        filters (one in from every panel edge and wall).
        """
        s = self.sub
        th_lo, th_hi = max(1, s.th0), min(s.nth - 1, s.th1)
        ph_lo, ph_hi = max(1, s.ph0), min(s.nph - 1, s.ph1)
        if th_lo >= th_hi or ph_lo >= ph_hi:
            return
        lt = slice(th_lo - s.gth0, th_hi - s.gth0)
        lp = slice(ph_lo - s.gph0, ph_hi - s.gph0)
        lt_p = slice(lt.start + 1, lt.stop + 1)
        lt_m = slice(lt.start - 1, lt.stop - 1)
        lp_p = slice(lp.start + 1, lp.stop + 1)
        lp_m = slice(lp.start - 1, lp.stop - 1)
        for f in state.arrays():
            c = f[1:-1, lt, lp]
            inc = (
                f[2:, lt, lp] + f[:-2, lt, lp]
                + f[1:-1, lt_p, lp] + f[1:-1, lt_m, lp]
                + f[1:-1, lt, lp_p] + f[1:-1, lt, lp_m]
                - 6.0 * c
            ) / 6.0
            f[1:-1, lt, lp] += strength * inc

    def advance(self, dt: float) -> float:
        """:class:`~repro.engine.system.IntegrableDriver` hook."""
        return self.step(dt)

    def run(self, n_steps: int, *, observers=()) -> IntegrationResult:
        """Advance ``n_steps`` steps through the shared engine.

        Every rank runs the identical loop; the controller's dt requests
        hit the collective ``estimate_dt`` at the same iterations on all
        ranks, so the engine preserves the bitwise serial equivalence
        (same reduction association, same enforce ordering).
        """
        controller = CadenceController.from_config(self.config, n_steps)
        return Integrator(self, controller, observers).run()

    # ---- engine capabilities (guard / checkpoint) -------------------------------

    def check_health(self, *, step: int | None = None,
                     max_grid_reynolds: float = 20.0) -> HealthReport:
        """Guard hook on this rank's tile.  A divergence raises inside
        the rank thread and SimMPI re-raises it in the launcher."""
        return assert_healthy(
            self.local_patch, self.state, self.config.params,
            step=step, max_grid_reynolds=max_grid_reynolds,
        )

    def _rank_path(self, path) -> Path:
        path = Path(path)
        suffix = path.suffix or ".npz"
        return path.with_name(f"{path.stem}_rank{self.world.rank:03d}{suffix}")

    def _placement_meta(self) -> dict[str, str | int]:
        """Where this rank's tile sits in the global state — enough for
        :mod:`~repro.parallel.elastic` to re-decompose the archive
        family onto a different rank count."""
        return {
            "panel": self.panel.value,
            "panel_rank": self.panel_comm.rank,
            "world_rank": self.world.rank,
            "pth": self.pth,
            "pph": self.pph,
            "nth": self.config.nth,
            "nph": self.config.nph,
        }

    def save_checkpoint(self, path) -> Path:
        """Checkpoint hook: per-rank archive (``..._rankNNN.npz``) of the
        local tile — the flat-MPI analogue of the paper's per-process
        I/O; a global save goes through ``gather_state`` on rank 0.
        The archive records the tile's placement, so the family can be
        reassembled and restarted at any rank count."""
        from repro.core.checkpoint import save_checkpoint

        return save_checkpoint(self._rank_path(path), self.state,
                               time=self.time, step=self.step_count,
                               meta=self._placement_meta())

    def restore_global(self, pair: dict[Panel, MHDState], time: float,
                       step: int) -> None:
        """Adopt a global post-enforce panel pair as this rank's state.

        The restriction covers owned points *and* halos (a halo is the
        neighbour's owned data in the global array), so the result is
        bitwise what this rank would hold had it run to this point."""
        self.state = self._restrict_state(pair)
        self.time = time
        self.step_count = step

    def restore_checkpoint(self, path) -> None:
        """Resume this rank from a checkpoint, elastically if needed.

        Fast path: a per-rank archive written by a world of the same
        geometry is loaded directly.  Otherwise — the family was written
        at a different rank count, or the archive is a serial/global
        panel pair — the global state is assembled
        (:func:`~repro.parallel.elastic.load_any_checkpoint`) and
        restricted onto this rank's tile.
        """
        from repro.core.checkpoint import read_checkpoint
        from repro.parallel.elastic import load_any_checkpoint

        rank_path = self._rank_path(path)
        probe = rank_path if rank_path.exists() \
            else rank_path.with_suffix(rank_path.suffix + ".npz")
        if probe.exists():
            states, t, step, meta = read_checkpoint(probe)
            mine = self._placement_meta()
            # empty meta = pre-elastic archive; honour the old contract
            # (the per-rank file was written by this same geometry)
            if not meta or all(meta.get(k) == mine[k]
                               for k in ("panel", "panel_rank", "pth", "pph")):
                if not isinstance(states, MHDState):
                    raise ValueError(
                        f"{probe}: expected a single-tile checkpoint"
                    )
                self.state = states
                self.time = t
                self.step_count = step
                return
        pair, t, step = load_any_checkpoint(path)
        self.restore_global(pair, t, step)

    # ---- gathering -----------------------------------------------------------------

    def gather_state(self) -> dict[Panel, MHDState] | None:
        """Assemble the global panel pair on world rank 0 (None elsewhere)."""
        oth, oph = self.sub.owned_local()
        blocks = {
            n: np.ascontiguousarray(arr[:, oth, oph])
            for n, arr in self.state.named_arrays()
        }
        gathered = self.panel_comm.gather((self.panel_comm.rank, blocks), root=0)
        panel_state: MHDState | None = None
        if self.panel_comm.rank == 0:
            shape = self.grid.panel(self.panel).shape
            panel_state = MHDState.zeros(shape)
            for rank, blk in gathered:
                sl = self.decomp.subdomain(rank).global_slices()
                for n in FIELD_NAMES:
                    getattr(panel_state, n)[:, sl[0], sl[1]] = blk[n]
        # panel roots forward to world rank 0
        if self.world.rank == 0:
            result = {Panel.YIN: panel_state}
            other = self.world.Recv(source=self.decomp.nranks, tag=999)
            result[Panel.YANG] = MHDState(*[other[n] for n in FIELD_NAMES])
            return result
        if self.world.rank == self.decomp.nranks:
            assert panel_state is not None
            self.world.Send(
                {n: getattr(panel_state, n) for n in FIELD_NAMES}, dest=0, tag=999
            )
        return None


@dataclass
class ParallelRunResult:
    """Outcome of :func:`run_parallel_dynamo` (from world rank 0)."""

    states: dict[Panel, MHDState]
    time: float
    steps: int
    dt_history: list[float]
    #: per-world-rank wall seconds spent inside the step loop (TimerObserver)
    rank_step_seconds: list[float] = field(default_factory=list)
    #: resolved kernel backend (``numpy``/``fused``/``c``) the RHS ran on —
    #: after silent fallback, so it reports what actually executed
    kernel_backend: str = "fused"
    #: resolved launcher backend (registry name) the world ran on —
    #: after any warn-and-fallback, so it reports what actually launched
    launcher_backend: str = "thread"
    #: per-world-rank wall seconds inside ``enforce`` (the exchanges
    #: plus wall conditions)
    rank_comm_seconds: list[float] = field(default_factory=list)
    #: global-state :class:`~repro.checkers.fingerprint.Fingerprint`
    #: timeline (rank 0 only; empty unless ``fingerprint_every`` was set)
    fingerprints: list = field(default_factory=list)


class _GatherFingerprints(StepObserver):
    """Collective bitwise fingerprints of the *global* gathered state.

    Every rank participates in ``gather_state`` (it is collective — the
    panel gathers and the cross-panel Send/Recv need all ranks), and
    world rank 0 records the resulting pair's digest.  Captured before
    the first step and after every ``every``-th step, so the timeline
    lines up with a serial run observed by
    :class:`~repro.engine.observers.FingerprintObserver`.
    """

    def __init__(self, every: int):
        self.every = every
        self.fingerprints: list = []

    def _capture(self, driver) -> None:
        from repro.checkers.fingerprint import fingerprint_state

        pair = driver.gather_state()
        if pair is not None:
            self.fingerprints.append(fingerprint_state(
                pair, step=driver.step_count, time=float(driver.time)
            ))

    def on_start(self, driver) -> None:
        self._capture(driver)

    def after_step(self, event) -> None:
        if event.step % self.every == 0:
            self._capture(event.driver)


def _parallel_program(world: Communicator, config: RunConfig, pth: int,
                      pph: int, n_steps: int, restart=None,
                      checkpoint_dir=None,
                      checkpoint_every: int | None = None,
                      fingerprint_every: int | None = None):
    """One rank's whole program: build, (restore,) run, gather.

    Module-level (not a closure) so the process backend can pickle it
    for ``spawn``; all backends call it with identical arguments.
    """
    from repro.engine import CheckpointObserver

    solver = ParallelYinYangDynamo(world, config, pth, pph)
    timer = TimerObserver()
    observers: list = [timer]
    if checkpoint_every:
        observers.append(CheckpointObserver(
            checkpoint_dir or ".", checkpoint_every, restart=restart,
        ))
    elif restart is not None:
        solver.restore_checkpoint(restart)
    prints = None
    if fingerprint_every:
        prints = _GatherFingerprints(fingerprint_every)
        observers.append(prints)
    result = solver.run(n_steps, observers=tuple(observers))
    rank_seconds = world.allgather(float(timer.total_seconds))
    rank_comm = world.allgather(float(timer.comm_seconds))
    gathered = solver.gather_state()
    if world.rank == 0:
        return ParallelRunResult(
            states=gathered, time=solver.time, steps=solver.step_count,
            dt_history=result.dt_history,
            rank_step_seconds=[float(s) for s in rank_seconds],
            kernel_backend=solver.equations.kernel_backend,
            rank_comm_seconds=[float(s) for s in rank_comm],
            fingerprints=prints.fingerprints if prints is not None else [],
        )
    return None


def run_parallel_dynamo(
    config: RunConfig,
    pth: int,
    pph: int,
    n_steps: int,
    *,
    timeout: float | None = None,
    backend: str | None = "thread",
    restart=None,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
    fingerprint_every: int | None = None,
) -> ParallelRunResult:
    """Launch a world of ``2 * pth * pph`` ranks on the chosen launcher
    backend, run ``n_steps`` and return the gathered result.

    ``backend=None`` resolves via the registry (``REPRO_LAUNCHER`` env
    var, falling back down the priority order); a named-but-unavailable
    backend warns and falls back likewise.  The backend that actually
    ran is recorded in ``ParallelRunResult.launcher_backend``.  With
    ``restart`` set, every rank restores from the checkpoint before the
    first step — elastically re-decomposed when the archive was written
    at a different rank count; ``checkpoint_every``/``checkpoint_dir``
    save per-rank archives during the run.

    ``timeout=None`` leaves the deadlock guard to the launcher's
    :func:`~repro.parallel.simmpi.resolve_timeout`:
    ``REPRO_SIMMPI_TIMEOUT`` when set, else ``DEFAULT_TIMEOUT``.
    """
    resolved = select(backend)
    launcher = get_backend(resolved)
    results = launcher.run(
        2 * pth * pph, _parallel_program, config, pth, pph, n_steps,
        restart, checkpoint_dir, checkpoint_every, fingerprint_every,
        timeout=timeout,
    )
    out = results[0]
    assert out is not None
    out.launcher_backend = resolved
    return out
