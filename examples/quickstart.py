#!/usr/bin/env python
"""Quickstart: a small Yin-Yang geodynamo run.

Builds the Yin-Yang grid, starts from the hydrostatic conduction state
with a random temperature perturbation and a magnetic seed (paper
Section III), advances the compressible MHD equations with RK4 and
prints the energy history — the workflow of the paper's Section V at
laptop scale.

Run:  python examples/quickstart.py  [~20 seconds]
"""

from repro import MHDParameters, RunConfig, YinYangDynamo
from repro.engine import TimerObserver


def main() -> None:
    params = MHDParameters.laptop_demo(rayleigh=1e4, ekman=2e-3)
    print("Parameters:")
    print(f"  Rayleigh number    {params.rayleigh:10.3g}   (paper run: 3e6)")
    print(f"  Ekman number       {params.ekman:10.3g}   (paper run: 2e-5)")
    print(f"  Prandtl numbers    Pr = {params.prandtl:g}, Pm = {params.magnetic_prandtl:g}")

    config = RunConfig(
        nr=13, nth=16, nph=48, params=params,
        amp_temperature=2e-2, amp_seed_field=1e-6, seed=2004,
    )
    dyn = YinYangDynamo(config)
    print(f"\nGrid: {dyn.grid!r}")
    print(f"  {dyn.grid.npoints:,} points "
          f"(the paper's flagship: 511 x 514 x 1538 x 2 = "
          f"{511 * 514 * 1538 * 2:,})")
    print(f"  overset boundary ring: {dyn.grid.yin.n_ring} points per panel")

    print("\nAdvancing 120 RK4 steps ...")
    print(f"{'step':>6} {'time':>9} {'dt':>10} {'kinetic E':>12} {'magnetic E':>12}")
    # the CFL step is re-estimated every config.dt_recompute_every steps
    timer = TimerObserver()
    for rec in dyn.run(120, record_every=20, observers=[timer]):
        e = rec.energies
        print(
            f"{rec.step:>6} {rec.time:>9.4f} {rec.dt:>10.2e} "
            f"{e.kinetic:>12.4e} {e.magnetic:>12.4e}"
        )

    e = dyn.energies()
    assert dyn.is_physical(), "state went unphysical"
    print("\nFinal energies:", {k: f"{v:.4g}" for k, v in e.as_dict().items()})
    print(f"{timer.steps_timed / timer.total_seconds:.1f} steps/s "
          f"({timer.steps_timed} steps in {timer.total_seconds:.2f} s)")

if __name__ == "__main__":
    main()
