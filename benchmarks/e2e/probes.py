"""Host and layer probes of the traced run: memory bandwidth and a
compute ceiling, one RHS on every kernel backend, flop counts, message
counts per step, and a ping-pong on every self-launching launcher.

None of this feeds an end-to-end metric.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.grids.yinyang import YinYangGrid
from repro.mhd.equations import PanelEquations
from repro.mhd.initial import conduction_state, perturb_state
from repro.parallel import backends as launchers
from repro.parallel.parallel_solver import ParallelYinYangDynamo
from repro.parallel.tracing import CommTrace, TracedCommunicator
from repro.perf.flops import measure_step_flops_per_point
from workloads import kernel_backends, median_seconds

_CACHE_ROOT = Path("/sys/devices/system/cpu/cpu0/cache")
_FALLBACK_LLC = 32 << 20


def llc_bytes() -> tuple[int, str]:
    """Size of the last-level cache from sysfs (largest level wins)."""
    best = (0, 0)
    for index in sorted(_CACHE_ROOT.glob("index*")):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        size = int(text[:-1]) << {"K": 10, "M": 20, "G": 30}[text[-1]] \
            if text[-1] in "KMG" else int(text)
        best = max(best, (level, size))
    if best[1]:
        return best[1], f"sysfs L{best[0]}"
    return _FALLBACK_LLC, "sysfs unreadable, assumed"


def _mem_available() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) << 10
    except OSError:
        pass
    return 1 << 30


def host_probe(small: bool = False) -> dict:
    """STREAM-style triad ``a = b + s*c`` with each array at least four
    times the last-level cache (capped at a quarter of free memory for
    the three), and an in-L1 ufunc rate as the compute ceiling NumPy
    kernels can reach on one core.  ``small`` (test_smoke.py) shrinks
    the arrays to 8 MiB: quick, and not a bandwidth measurement."""
    llc, llc_source = llc_bytes()
    want = 4 * llc
    array_bytes = min(want, _mem_available() // 12, (8 << 20) if small else want)
    n = array_bytes // 8
    b = np.full(n, 1.0)
    c = np.full(n, 2.0)
    a = np.empty(n)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    # two NumPy passes: read c, write a; read a and b, write a
    triad = 5 * n * 8 / best / 1e9
    del a, b, c

    m = 2048  # 3 x 16 KiB: L1-resident
    x, y, z = np.full(m, 1.0), np.full(m, 1.0000001), np.empty(m)
    reps = 2000
    peak = 0.0
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(reps):
            np.multiply(x, y, out=z)
            np.add(z, x, out=z)
        peak = max(peak, 2 * m * reps / (time.perf_counter() - t0) / 1e9)
    return {
        "triad_GBps": triad,
        "triad_array_bytes": int(n * 8),
        "triad_array_wanted_bytes": int(want),
        "llc_bytes": llc,
        "llc_source": llc_source,
        "peak_gflops": peak,
        "cores": len(os.sched_getaffinity(0)),
    }


def _grid(cfg) -> YinYangGrid:
    return YinYangGrid(cfg.nr, cfg.nth, cfg.nph, ri=cfg.params.ri, ro=cfg.params.ro,
                       extra_theta=cfg.extra_theta, extra_phi=cfg.extra_phi)


def rhs_on_backends(cfg) -> dict:
    """Median ms of one ``PanelEquations.rhs`` on the Yin panel of the
    workload's grid, for every kernel backend (a missing one is recorded
    with the probe's reason), and the grid's build time."""
    out: dict = {"rhs_ms": {}, "skipped": {}}
    grid = _grid(cfg)
    state = conduction_state(grid.yin, cfg.params)
    perturb_state(state, amp_temperature=cfg.amp_temperature,
                  amp_seed_field=cfg.amp_seed_field,
                  rng=np.random.default_rng(cfg.seed))
    for name, reason in kernel_backends().items():
        if reason:
            out["skipped"][name] = reason
            continue
        eq = PanelEquations(grid.yin, cfg.params, (0.0, 0.0, cfg.params.omega),
                            backend=name)
        eq.rhs(state)  # fills the buffer pool
        out["rhs_ms"][name] = 1e3 * median_seconds(lambda eq=eq: eq.rhs(state), reps=5)
    out["grid_build_s"] = median_seconds(lambda: _grid(cfg))
    return out


def flop_counts(cfg) -> dict:
    """Exact flop counts from the program's counting-array measurement
    (per point, on its small default grid) scaled to this grid, and the
    *computed* compulsory memory traffic of one RHS: 8 fields read and
    8 written, 8 bytes each, per point — cache misses not included."""
    work = measure_step_flops_per_point(params=cfg.params)
    panel_points = cfg.nr * cfg.nth * cfg.nph
    return {
        "flops_per_step": work.step_flops_per_point * 2 * panel_points,
        "rhs_flops": work.rhs_flops_per_point * panel_points,
        "rhs_bytes_computed": 16 * 8 * panel_points,
    }


# ---- messages per step (thread launcher: counts only, no wall clock) -------------------


class _CountingComm(TracedCommunicator):
    """Traces the communicators split off it too, so panel-internal
    halo messages are counted with the world's overset ones."""

    def split(self, color, key=None):
        return _CountingComm(self._comm.split(color, key), self.trace)


def _count_program(world, cfg, pth, pph, trace):
    solver = ParallelYinYangDynamo(_CountingComm(world, trace), cfg, pth, pph)
    world.barrier()
    before = (trace.n_messages, trace.total_bytes)
    world.barrier()
    solver.step()
    world.barrier()
    return trace.n_messages - before[0], trace.total_bytes - before[1]


def messages_per_step(cfg) -> dict:
    """Point-to-point messages and payload bytes of one RK4 step at 2
    ranks (1x1 tiles per panel) and 4 ranks (1x2).  Thread ranks share
    one :class:`CommTrace`; nothing here is timed, so running more
    ranks than cores is harmless."""
    out = {}
    for label, (pth, pph) in {"2r": (1, 1), "4r": (1, 2)}.items():
        trace = CommTrace()
        results = launchers.get_backend("thread").run(
            2 * pth * pph, _count_program, cfg, pth, pph, trace, timeout=120.0,
        )
        out[label] = {"msgs": results[0][0], "bytes": results[0][1]}
    return out


# ---- transport microbench -----------------------------------------------------------------

PINGPONG_TRIPS = 200
BANDWIDTH_TRIPS = 8
BANDWIDTH_BYTES = 4 << 20


def _round_trips(comm, payload, trips: int) -> float:
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(trips):
        if comm.rank == 0:
            comm.Send(payload, dest=1, tag=1)
            comm.Recv(source=1, tag=2)
        else:
            comm.Recv(source=0, tag=1)
            comm.Send(payload, dest=0, tag=2)
    return time.perf_counter() - t0


def _pingpong_program(comm):
    """8-byte ping-pong then 4 MiB round trips between ranks 0 and 1
    (module level: process launchers pickle it by name).  Returns
    (one-way latency in us, MB/s); a short untimed pass warms each path."""
    small = np.zeros(1)
    big = np.zeros(BANDWIDTH_BYTES // 8)
    _round_trips(comm, small, 2)
    latency = 1e6 * _round_trips(comm, small, PINGPONG_TRIPS) / (2 * PINGPONG_TRIPS)
    _round_trips(comm, big, 1)
    seconds = _round_trips(comm, big, BANDWIDTH_TRIPS)
    return latency, 2 * BANDWIDTH_TRIPS * big.nbytes / seconds / 1e6


def transport_microbench() -> dict:
    """Latency and bandwidth through ``get_backend(name).run(2, fn)``
    for every launcher that can start its own ranks; the others are
    recorded as skipped with the probe's reason."""
    out: dict = {"pingpong_us": {}, "bandwidth_MBps": {}, "skipped": {}}
    for info in launchers.detect():
        if not info.available or not info.capabilities.self_launch:
            out["skipped"][info.name] = (
                info.detail if not info.available else "needs an external runner"
            )
            continue
        try:
            latency, bandwidth = launchers.get_backend(info.name).run(
                2, _pingpong_program, timeout=60.0)[0]
        except (OSError, RuntimeError) as exc:  # e.g. loopback sockets forbidden
            out["skipped"][info.name] = f"{type(exc).__name__}: {exc}"
            continue
        out["pingpong_us"][info.name] = latency
        out["bandwidth_MBps"][info.name] = bandwidth
    return out
