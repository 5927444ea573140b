"""Command-line interface: regenerate the paper's artefacts.

``python -m repro.cli <command>`` (or the ``repro-paper`` console
script) prints the reproduced tables and figures:

=============  =====================================================
``table1``     Earth Simulator specifications
``table2``     the six-row performance sweep (paper vs model)
``table3``     the SC-paper comparison with recomputed derivations
``list1``      the MPIPROGINF report of the 15.2 TFlops run
``fig1``       Yin-Yang coverage/overlap numbers + ASCII map
``fig2``       column census of a manufactured columnar flow
``volume``     Section V's 500 GB / 127-save accounting
``run``        a small live dynamo run with energy history
``kernels``    detected kernel backends and build-cache status
``backends``   detected launcher backends (thread/process/socket/...)
``worker``     join a socket-launcher world as an external worker
``lint``       the five REP reproducibility rules, one parse per file
``verify-bitwise``  cross-configuration bitwise state-digest check
=============  =====================================================
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_table1(args) -> None:
    from repro.machine.specs import EARTH_SIMULATOR

    rows = EARTH_SIMULATOR.table_rows()
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")


def _cmd_table2(args) -> None:
    from repro.perf.sweep import format_table2, run_table2

    print(format_table2(run_table2()))


def _cmd_table3(args) -> None:
    from repro.perf.comparisons import format_table3

    print(format_table3())


def _cmd_list1(args) -> None:
    from repro.perf.proginf import list1_report

    print(list1_report())


def _cmd_fig1(args) -> None:
    from repro.grids.dissection import overlap_fraction
    from repro.viz.mercator import ascii_sphere_map, coverage_fractions

    covered, doubled = coverage_fractions(180, 360)
    print(f"coverage: {100 * covered:.2f} %   overlap: {100 * doubled:.2f} % "
          f"(analytic {100 * overlap_fraction():.3f} %)")
    print(ascii_sphere_map(args.rows, 3 * args.rows))


def _cmd_fig2(args) -> None:
    from repro.grids.yinyang import YinYangGrid
    from repro.viz.columns import column_profile, synthetic_columns

    grid = YinYangGrid(9, 20, 58)
    states = synthetic_columns(grid, m=args.mode)
    census = column_profile(grid, states, nphi=512)
    print(f"m = {args.mode} columnar flow at r = {census.radius:.2f}: "
          f"{census.n_cyclonic} cyclonic / {census.n_anticyclonic} anti-cyclonic")


def _cmd_volume(args) -> None:
    from repro.io.volume import paper_run_volume

    for k, v in paper_run_volume().items():
        print(f"{k:<28} {v:,.4g}" if isinstance(v, float) else f"{k:<28} {v:,}")


def _cmd_report(args) -> None:
    from repro.perf.report import generate_report

    rep = generate_report()
    print(rep.to_markdown())
    if not rep.all_match:
        raise SystemExit(1)


def _ranks_to_layout(ranks: int):
    """Near-square ``(pth, pph)`` factorisation of a world size.

    The world holds two panels, so ``ranks`` must be even; the per-panel
    process count ``ranks // 2`` is split into the most-square
    ``pth x pph`` process array (pth <= pph), the paper's 2-D topology.
    """
    if ranks < 2 or ranks % 2:
        raise SystemExit(f"--ranks must be a positive even number, got {ranks}")
    nper = ranks // 2
    pth = 1
    for d in range(int(nper**0.5), 0, -1):
        if nper % d == 0:
            pth = d
            break
    return pth, nper // pth


def _announce_kernel_build() -> None:
    """One line when this run is about to compile the C kernels (the
    first use on a machine, or after their source changed) — and the
    build itself, here, so parallel ranks find the cache warm."""
    from repro.fd import backend as kb
    from repro.fd.ckernels import build

    if kb.requested() != "c":
        return
    status = build.build_status()
    if status["toolchain_ok"] and not (status["built"] or status["loaded"]
                                       or status["error"]):
        print(f"compiling the C kernels with {status['toolchain']} (first "
              f"use; cached under {status['cache_dir']}) ...")
        kb.select("c")


def _run_config(args):
    """The demo :class:`RunConfig` of ``run``; a bad grid or step count
    ends in one ``run: <message>`` line and exit status 2."""
    from repro import MHDParameters, RunConfig
    from repro.utils.validation import require

    try:
        require(args.steps >= 0, f"steps must be >= 0, got {args.steps}")
        return RunConfig(nr=args.nr, nth=args.nth, nph=args.nph,
                         params=MHDParameters.laptop_demo(),
                         amp_temperature=2e-2, filter_strength=0.05)
    except ValueError as exc:
        print(f"run: {exc}")
        raise SystemExit(2) from exc


def _cmd_run_parallel(args, config) -> None:
    from repro.mhd.diagnostics import yinyang_energies
    from repro.grids.yinyang import YinYangGrid
    from repro.parallel.parallel_solver import run_parallel_dynamo

    _announce_kernel_build()
    params = config.params
    pth, pph = _ranks_to_layout(args.ranks)
    print(f"running {args.steps} steps on {args.ranks} {args.backend} ranks "
          f"(2 panels x {pth} x {pph}) ...")
    if args.restart:
        print(f"restarting from {args.restart} ...")
    res = run_parallel_dynamo(
        config, pth, pph, args.steps, backend=args.backend,
        restart=args.restart or None,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every or None,
    )
    print(f"kernel backend: {res.kernel_backend}")
    print(f"launcher backend: {res.launcher_backend}")
    grid = YinYangGrid(config.nr, config.nth, config.nph,
                       ri=params.ri, ro=params.ro,
                       extra_theta=config.extra_theta, extra_phi=config.extra_phi)
    for rank, (sec, comm) in enumerate(
        zip(res.rank_step_seconds, res.rank_comm_seconds)
    ):
        rate = res.steps / sec if sec > 0 else float("inf")
        print(f"  rank {rank:>3}  step loop {sec:8.3f} s  ({rate:8.2f} steps/s)  "
              f"comm {comm:7.3f} s")
    e = yinyang_energies(grid, res.states, params)
    print(f"t = {res.time:.4f} after {res.steps} steps")
    print("final:", {k: f"{v:.4g}" for k, v in e.as_dict().items()})


def _cmd_kernels(args) -> None:
    """List kernel backends: detection, active selection, build cache."""
    from repro.fd import backend as kb
    from repro.fd.ckernels import build

    import os

    active = kb.select()
    req = kb.requested()
    for info in kb.detect():
        mark = "*" if info.name == active else " "
        avail = "available" if info.available else "unavailable"
        print(f" {mark} {info.name:<6} {avail:<12} {info.detail}")
    print(f"unset {kb.KERNELS_ENV} resolves to: {kb.default_backend()}")
    env = os.environ.get(kb.KERNELS_ENV)
    src = f"{kb.KERNELS_ENV}={env}" if env else "default"
    line = f"active: {active} ({src}"
    if req != active:
        line += ", fell back"
    print(line + ")")
    status = build.build_status()
    print(f"build cache: {status['cache_dir']}")
    print(f"  shared object {'present' if status['built'] else 'absent'} "
          f"(key {status['source_key']}), "
          f"{'loaded' if status['loaded'] else 'not loaded'} in this process")
    if status["error"]:
        print(f"  last load error: {status['error']}")


def _cmd_backends(args) -> None:
    """List launcher backends: detection, capabilities, active selection."""
    import os

    from repro.parallel import backends as pb

    active = pb.select()
    req = pb.requested()
    for info in pb.detect():
        mark = "*" if info.name == active else " "
        avail = "available" if info.available else "unavailable"
        print(f" {mark} {info.name:<8} {avail:<12} {info.detail}")
        if info.capabilities is not None:
            print(f"   {'':<8} {'':<12} {info.capabilities.summary()}")
    env = os.environ.get(pb.LAUNCHER_ENV)
    src = f"{pb.LAUNCHER_ENV}={env}" if env else "default"
    line = f"active: {active} ({src}"
    if req != active:
        line += ", fell back"
    print(line + ")")


def _cmd_worker(args) -> None:
    """Join a socket-launcher world: connect, receive a rank, run."""
    from repro.parallel.sockmpi import worker_join

    print(f"connecting to coordinator at {args.connect} ...")
    worker_join(args.connect, timeout=args.timeout)
    print("worker finished")


def _cmd_lint(args) -> None:
    """All five REP rules of the lint core's table (REP001, REP013-REP016),
    one parse per file; ``--rules`` selects a subset."""
    from repro.checkers.linter import RULES, lint_paths, to_json

    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in RULES]
        if unknown:
            raise SystemExit(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(RULES))}"
            )
    else:
        rules = None
    violations, n_files = lint_paths(args.paths, rules=rules)
    if args.format == "json":
        print(to_json(violations, n_files))
    else:
        for v in violations:
            print(v.format())
        print(
            f"{len(violations)} violation(s) in {n_files} file(s)"
            if violations
            else f"clean: {n_files} file(s), 0 violations"
        )
    if violations:
        raise SystemExit(1)


def _verify_bitwise_cases():
    """Named configurations and the serial reference each must match.

    Each case is ``(name, kernels, ref_kernels, run_kwargs)``:
    ``kernels`` is the ``REPRO_KERNELS`` value the case runs under
    (``None`` = unset, whatever the default resolves to),
    ``ref_kernels`` the kernel backend of the serial reference timeline
    it must be bitwise-identical to, and ``run_kwargs`` feeds
    :func:`~repro.parallel.parallel_solver.run_parallel_dynamo` (``None``
    = a serial run; ``tiles`` is the per-panel rank layout).  Every
    row names its kernels explicitly, so the
    matrix means the same whichever way the default resolves: the
    compiled C backend's contract is bitwise identity with ``fused``
    (mirroring ``test_rhs_c_bitwise_matches_fused``), and it is held to
    it serially, on every launcher and across an elastic restart.  The ``fused`` case is a second serial
    fused run: run-to-run stability.  ``default`` is what a user who
    sets nothing gets.  The thread row runs 2x3 tiles per panel (12
    ranks), whose own spacings differ from the panel's by an ulp at
    some tiles.  ``elastic`` is special-cased in the driver (checkpoint
    mid-run at 4 ranks, restart at 2).
    """
    return [
        ("fused", "fused", "fused", None),
        ("c", "c", "fused", None),
        ("default", None, "fused", None),
        ("thread", "c", "fused", {"backend": "thread", "tiles": (2, 3)}),
        ("process", "c", "fused", {"backend": "process", "tiles": (1, 2)}),
        ("socket", "c", "fused", {"backend": "socket", "tiles": (1, 2)}),
        ("elastic", "c", "fused", {"backend": "process"}),
    ]


def _cmd_verify_bitwise(args) -> None:
    """Bitwise cross-configuration verification harness.

    Runs a serial reference per kernel backend (today: ``fused``),
    fingerprinting every step, then replays the same configuration
    through each requested case (kernel
    backends, launcher backends, an elastic restart) and demands digest-for-digest identical state timelines.
    The first mismatch is reported as (step, panel, field).  Exit 1 on
    any divergence; unavailable backends are reported and skipped.
    """
    import contextlib
    import os
    import tempfile

    from repro.checkers.fingerprint import first_divergence
    from repro.core.config import RunConfig
    from repro.core.yycore import YinYangDynamo
    from repro.engine import FingerprintObserver
    from repro.parallel.backends import probe
    from repro.parallel.parallel_solver import run_parallel_dynamo

    cases = _verify_bitwise_cases()
    wanted = ["process", "c", "default"] if args.smoke else (
        [c.strip() for c in args.cases.split(",") if c.strip()]
        if args.cases else [name for name, _, _, _ in cases]
    )
    known = {name for name, _, _, _ in cases}
    unknown = [c for c in wanted if c not in known]
    if unknown:
        raise SystemExit(
            f"unknown case(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )

    config = RunConfig(nr=args.nr, nth=args.nth, nph=args.nph, dt=1e-4)
    steps = args.steps

    @contextlib.contextmanager
    def kernels_env(kernels: str | None):
        """Run under ``REPRO_KERNELS=kernels`` (None: unset), the way a
        user selects a backend; rank processes inherit it."""
        saved = os.environ.pop("REPRO_KERNELS", None)
        if kernels is not None:
            os.environ["REPRO_KERNELS"] = kernels
        try:
            yield
        finally:
            os.environ.pop("REPRO_KERNELS", None)
            if saved is not None:
                os.environ["REPRO_KERNELS"] = saved

    def serial_timeline(kernels: str | None):
        with kernels_env(kernels):
            driver = YinYangDynamo(config)
            observer = FingerprintObserver()
            driver.run(steps, observers=(observer,))
            backend = next(iter(driver.equations.values())).kernel_backend
            return observer.fingerprints, backend

    def parallel_timeline(kernels, run_kwargs, *, elastic=False):
        with kernels_env(kernels):
            if not elastic:
                result = run_parallel_dynamo(
                    config, *run_kwargs["tiles"], steps, fingerprint_every=1,
                    timeout=args.timeout, backend=run_kwargs["backend"],
                )
                return result.fingerprints, result.kernel_backend
            # elastic: checkpoint at 4 ranks mid-run, restart at 2 ranks
            with tempfile.TemporaryDirectory() as tmp:
                half = max(1, steps // 2)
                run_parallel_dynamo(
                    config, 1, 2, half, checkpoint_dir=tmp,
                    checkpoint_every=half, timeout=args.timeout,
                    **run_kwargs,
                )
                archive = os.path.join(tmp, f"checkpoint_{half:06d}.npz")
                result = run_parallel_dynamo(
                    config, 1, 1, steps - half, restart=archive,
                    fingerprint_every=1, timeout=args.timeout, **run_kwargs,
                )
                return result.fingerprints, result.kernel_backend

    print(f"grid: nr={args.nr} nth={args.nth} nph={args.nph}, "
          f"{steps} step(s); serial references built per kernel backend")
    references: dict[str, list] = {}

    def reference(ref_kernels: str):
        if ref_kernels not in references:
            timeline, got = serial_timeline(ref_kernels)
            if got != ref_kernels:
                raise SystemExit(
                    f"serial {ref_kernels!r} reference resolved to "
                    f"{got!r}; cannot build the comparison baseline"
                )
            references[ref_kernels] = timeline
        return references[ref_kernels]

    failures: list[str] = []
    for name, kernels, ref_kernels, run_kwargs in cases:
        if name not in wanted:
            continue
        if run_kwargs is not None:
            info = probe(run_kwargs["backend"])
            if not info.available:
                print(f"  {name:<16} SKIP ({info.detail})")
                continue
            timeline, got = parallel_timeline(
                kernels, run_kwargs, elastic=(name == "elastic"),
            )
        else:
            timeline, got = serial_timeline(kernels)
        if kernels is not None and got != kernels:
            print(f"  {name:<16} SKIP (kernel backend resolved to "
                  f"{got!r}; build unavailable?)")
            continue
        divergence = first_divergence(reference(ref_kernels), timeline)
        if divergence is None:
            print(f"  {name:<16} OK   ({len(timeline)} fingerprint(s) on "
                  f"{got} bitwise-identical to serial {ref_kernels})")
        else:
            print(f"  {name:<16} FAIL (vs serial {ref_kernels}) "
                  f"{divergence.describe()}")
            failures.append(name)
    if failures:
        raise SystemExit(1)
    print("verify-bitwise: all compared configurations bitwise-identical")


def _cmd_run(args) -> None:
    from repro import YinYangDynamo
    from repro.core.checkpoint import CheckpointError
    from repro.core.guard import SolverDivergence
    from repro.engine import CheckpointObserver, HealthGuard, TimerObserver

    config = _run_config(args)
    if args.backend != "serial":
        if args.guard:
            raise SystemExit("--guard is a serial-only option")
        _cmd_run_parallel(args, config)
        return

    _announce_kernel_build()
    dyn = YinYangDynamo(config)
    observers = [TimerObserver()]
    if args.guard:
        observers.append(HealthGuard())
    checkpointer = None
    if args.checkpoint_every:
        checkpointer = CheckpointObserver(
            args.checkpoint_dir, args.checkpoint_every, restart=args.restart
        )
        observers.append(checkpointer)
    if args.restart:
        print(f"restarting from {args.restart} ...")
    print(f"running {args.steps} steps on {dyn.grid!r} ...")
    from repro.grids.component import Panel

    print(f"kernel backend: {dyn.equations[Panel.YIN].kernel_backend}")
    started = time.perf_counter()
    try:
        if args.restart and checkpointer is None:
            dyn.restore_checkpoint(args.restart)
        dyn.run(args.steps, record_every=max(1, args.steps // 8),
                observers=observers)
    except SolverDivergence as exc:
        print(f"GUARD: {exc}")
        raise SystemExit(2) from exc
    except (CheckpointError, FileNotFoundError) as exc:
        print(f"RESTART: {exc}")
        raise SystemExit(2) from exc
    wall = time.perf_counter() - started
    for rec in dyn.history:
        e = rec.energies
        print(f"  step {rec.step:>5}  t = {rec.time:8.4f}  dt = {rec.dt:8.2e}  "
              f"KE = {e.kinetic:10.4e}  ME = {e.magnetic:10.4e}")
    if checkpointer is not None and checkpointer.saves:
        print(f"checkpoints: {checkpointer.saves} archives, "
              f"{checkpointer.bytes_written / 1e6:.2f} MB, "
              f"{1e3 * checkpointer.save_seconds / checkpointer.saves:.1f} ms each "
              f"({100 * checkpointer.save_seconds / wall:.1f} % of wall)")
    print("final:", {k: f"{v:.4g}" for k, v in dyn.energies().as_dict().items()})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paper",
        description="Regenerate artefacts of the SC 2004 Yin-Yang geodynamo paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Earth Simulator specifications").set_defaults(fn=_cmd_table1)
    sub.add_parser("table2", help="performance sweep, paper vs model").set_defaults(fn=_cmd_table2)
    sub.add_parser("table3", help="SC-paper comparison").set_defaults(fn=_cmd_table3)
    sub.add_parser("list1", help="MPIPROGINF report").set_defaults(fn=_cmd_list1)

    p = sub.add_parser("fig1", help="Yin-Yang coverage map")
    p.add_argument("--rows", type=int, default=18, help="ASCII map height")
    p.set_defaults(fn=_cmd_fig1)

    p = sub.add_parser("fig2", help="column census demo")
    p.add_argument("--mode", type=int, default=6, help="azimuthal mode number")
    p.set_defaults(fn=_cmd_fig2)

    sub.add_parser("volume", help="Section V data-volume accounting").set_defaults(fn=_cmd_volume)
    sub.add_parser(
        "kernels",
        help="list detected kernel backends (numpy/fused/c), the active "
             "REPRO_KERNELS selection and the cffi build-cache status",
    ).set_defaults(fn=_cmd_kernels)
    sub.add_parser(
        "backends",
        help="list detected launcher backends (thread/process/socket), "
             "their capabilities and the active REPRO_LAUNCHER selection",
    ).set_defaults(fn=_cmd_backends)

    p = sub.add_parser(
        "worker",
        help="join a socket-launcher world as an external worker: connect "
             "to a coordinator started with `run --backend socket`, receive "
             "a rank and run the distributed program",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="coordinator address announced by the launcher")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-wait deadlock timeout "
                        "(default: REPRO_SIMMPI_TIMEOUT or 120)")
    p.set_defaults(fn=_cmd_worker)

    sub.add_parser(
        "report", help="full paper-vs-reproduction comparison (markdown)"
    ).set_defaults(fn=_cmd_report)

    p = sub.add_parser("run", help="small live dynamo run")
    p.add_argument("--nr", type=int, default=11)
    p.add_argument("--nth", type=int, default=14)
    p.add_argument("--nph", type=int, default=42)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--guard", action="store_true",
                   help="watch for divergence; exit 2 with a diagnosis "
                        "instead of printing NaN energies")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="save a checkpoint every N steps (0 = off)")
    p.add_argument("--checkpoint-dir", default="checkpoints",
                   help="directory for --checkpoint-every archives")
    p.add_argument("--restart", default=None, metavar="PATH",
                   help="resume from a checkpoint archive before stepping")
    from repro.parallel.backends import BACKENDS

    p.add_argument("--backend", default="serial",
                   choices=["serial", *BACKENDS],
                   help="serial solver, or a launcher backend for the "
                        "flat-MPI parallel solver (probe with "
                        "`repro-paper backends`)")
    p.add_argument("--ranks", type=int, default=4, metavar="N",
                   help="total ranks for a parallel backend (even; "
                        "2 panels x near-square process array)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "lint",
        help="run all five REP reproducibility rules in one pass: "
             "hot-path allocations (REP001) and the bitwise-determinism "
             "rules (REP013-REP016: unordered iteration, unordered FP "
             "reductions, ambient nondeterminism, FP-contraction hazards)",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format")
    p.add_argument("--rules", default=None, metavar="REP001,REP013,...",
                   help="comma-separated rule subset (default: all five)")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "verify-bitwise",
        help="dynamic bitwise-determinism harness: run a serial numpy "
             "reference with per-step state digests, replay through "
             "kernel/launcher/elastic-restart configurations, "
             "and fail naming the first divergent (step, panel, field)",
    )
    p.add_argument("--nr", type=int, default=5)
    p.add_argument("--nth", type=int, default=10)
    p.add_argument("--nph", type=int, default=30)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run deadlock-guard timeout (seconds; "
                        "default: REPRO_SIMMPI_TIMEOUT or 120)")
    p.add_argument("--cases", default=None,
                   metavar="fused,c,thread,...",
                   help="comma-separated case subset (default: all of "
                        "fused, c, default, thread, process, socket, "
                        "elastic)")
    p.add_argument("--smoke", action="store_true",
                   help="CI subset: just the process launcher and the "
                        "compiled C kernel backend")
    p.set_defaults(fn=_cmd_verify_bitwise)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
