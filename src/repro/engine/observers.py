"""Pluggable step observers: diagnostics, guarding, checkpoints, timing.

An observer receives three hooks from :class:`~repro.engine.integrator.
Integrator`: ``on_start(driver)`` before the first step, ``after_step
(event)`` once per completed step, and ``on_finish(driver)`` when the
loop ends (including when it ends by an observer raising — the guard's
:class:`~repro.core.guard.SolverDivergence` still runs the finishers,
so timers and checkpoints are not lost to a blow-up).

Capabilities are driver-provided: ``HistoryRecorder`` needs
``record(dt=...)``, ``HealthGuard`` needs ``check_health(...)``,
``CheckpointObserver`` needs ``save_checkpoint`` / ``restore_checkpoint``.
Observers verify the capability in ``on_start`` and fail fast with a
clear message rather than mid-run.
"""

from __future__ import annotations

import time as _time
from pathlib import Path

from repro.utils.validation import require


class StepObserver:
    """Base observer: every hook is a no-op."""

    def on_start(self, driver) -> None:
        pass

    def after_step(self, event) -> None:
        pass

    def on_finish(self, driver) -> None:
        pass


def _require_capability(driver, names, who: str) -> None:
    missing = [n for n in names if not callable(getattr(driver, n, None))]
    if missing:
        raise TypeError(
            f"{who} needs driver methods {missing}; "
            f"{type(driver).__name__} does not provide them"
        )


class HistoryRecorder(StepObserver):
    """Record energy diagnostics every ``record_every`` steps.

    Calls ``driver.record(dt=event.dt)`` so the history logs the dt
    *actually used* for the step — adaptive runs record the live CFL
    estimate, not ``config.dt or nan``.
    """

    def __init__(self, record_every: int = 1):
        require(record_every >= 1, "record_every must be >= 1")
        self.record_every = record_every

    def on_start(self, driver) -> None:
        _require_capability(driver, ["record"], "HistoryRecorder")

    def after_step(self, event) -> None:
        if event.step % self.record_every == 0:
            event.driver.record(dt=event.dt)


class HealthGuard(StepObserver):
    """Watch the run's numerical health; raise instead of propagating NaNs.

    Every ``every`` steps the driver's ``check_health`` is invoked,
    which raises :class:`~repro.core.guard.SolverDivergence` (carrying a
    populated :class:`~repro.core.guard.HealthReport`) when the state
    left the physical regime or the grid Reynolds number exceeds
    ``max_grid_reynolds``.  The last clean report is kept on
    ``last_report`` for post-run inspection.
    """

    def __init__(self, *, every: int = 1, max_grid_reynolds: float = 20.0):
        require(every >= 1, "every must be >= 1")
        self.every = every
        self.max_grid_reynolds = max_grid_reynolds
        self.last_report = None
        self.checks = 0

    def on_start(self, driver) -> None:
        _require_capability(driver, ["check_health"], "HealthGuard")

    def after_step(self, event) -> None:
        if event.step % self.every == 0:
            self.last_report = event.driver.check_health(
                step=event.step, max_grid_reynolds=self.max_grid_reynolds
            )
            self.checks += 1


class CheckpointObserver(StepObserver):
    """Periodic checkpoint saves (the paper's 127-snapshot campaign
    pattern), plus optional restart before the first step.

    Writes ``<directory>/<basename>_<step>.npz`` every ``every`` steps
    via the driver's ``save_checkpoint``.  With ``restart`` set, the
    driver's ``restore_checkpoint`` is applied in ``on_start`` — before
    any dt estimate — so a restored run continues the original step
    sequence exactly.  ``paths`` lists the archives published so far;
    ``saves`` / ``bytes_written`` / ``save_seconds`` account for what
    they cost (the run log's ``checkpoints:`` line).
    """

    def __init__(self, directory, every: int, *, basename: str = "checkpoint",
                 restart=None, save_final: bool = False):
        require(every >= 1, "every must be >= 1")
        self.directory = Path(directory)
        self.every = every
        self.basename = basename
        self.restart = restart
        self.save_final = save_final
        self.paths: list[Path] = []
        self.bytes_written = 0
        self.save_seconds = 0.0
        self._last_saved_step: int | None = None

    @property
    def saves(self) -> int:
        """Archives published so far."""
        return len(self.paths)

    def on_start(self, driver) -> None:
        _require_capability(
            driver, ["save_checkpoint", "restore_checkpoint"], "CheckpointObserver"
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.restart is not None:
            driver.restore_checkpoint(self.restart)

    def _save(self, driver, step: int) -> None:
        t0 = _time.perf_counter()
        path = Path(driver.save_checkpoint(
            self.directory / f"{self.basename}_{step:06d}.npz"
        ))
        self.save_seconds += _time.perf_counter() - t0
        self.bytes_written += path.stat().st_size
        self.paths.append(path)
        self._last_saved_step = step

    def after_step(self, event) -> None:
        if event.step % self.every == 0:
            self._save(event.driver, event.step)

    def on_finish(self, driver) -> None:
        step = getattr(driver, "step_count", None)
        if self.save_final and step is not None and step != self._last_saved_step:
            self._save(driver, step)


class FingerprintObserver(StepObserver):
    """Record bitwise state digests every ``every`` steps.

    Captures a :class:`~repro.checkers.fingerprint.Fingerprint` of the
    driver's full state (per-field SHA-256, combined per panel and into
    one root digest) in ``on_start`` — the pre-step state — and after
    every ``every``-th step.  Two runs of the same configuration must
    produce identical fingerprint timelines; comparing timelines with
    :func:`~repro.checkers.fingerprint.first_divergence` names the first
    (step, panel, field) where they part ways.
    """

    def __init__(self, every: int = 1):
        require(every >= 1, "every must be >= 1")
        self.every = every
        self.fingerprints: list = []

    def _capture(self, driver, step: int) -> None:
        from repro.checkers.fingerprint import fingerprint_state

        self.fingerprints.append(fingerprint_state(
            driver.state, step=step, time=float(getattr(driver, "time", 0.0))
        ))

    def on_start(self, driver) -> None:
        if getattr(driver, "state", None) is None:
            raise TypeError(
                "FingerprintObserver needs a driver with a `state` "
                f"attribute; {type(driver).__name__} does not provide one"
            )
        self._capture(driver, int(getattr(driver, "step_count", 0)))

    def after_step(self, event) -> None:
        if event.step % self.every == 0:
            self._capture(event.driver, event.step)


class TimerObserver(StepObserver):
    """Attribute wall-clock time to the run loop, mirroring the paper's
    per-phase MPIPROGINF accounting.

    ``total_seconds`` accumulates one interval per completed step and
    ``steps_timed`` counts them; ``comm_seconds`` reads what the driver
    booked under ``phase_seconds["comm"]``.
    """

    def __init__(self):
        #: wall seconds of the completed steps so far; each rank of a
        #: parallel run allgathers it after its loop, giving the
        #: load-balance picture the paper reads off MPIPROGINF
        self.total_seconds = 0.0
        #: number of step intervals accumulated so far
        self.steps_timed = 0
        self._mark: float | None = None
        self._driver = None

    def on_start(self, driver) -> None:
        self._driver = driver
        self._mark = _time.perf_counter()

    def after_step(self, event) -> None:
        now = _time.perf_counter()
        self.total_seconds += now - (self._mark if self._mark is not None else now)
        self.steps_timed += 1
        self._mark = now

    @property
    def comm_seconds(self) -> float:
        """Wall seconds the driver booked under ``phase_seconds["comm"]``
        (``ParallelYinYangDynamo``: every ``enforce``); 0.0 for drivers
        without one."""
        phases = getattr(self._driver, "phase_seconds", None)
        if not phases:
            return 0.0
        return float(phases.get("comm", 0.0))
