"""Seeded schedule-perturbation fuzzer for the SimMPI transports.

The solver's bitwise-reproducibility guarantee is *schedule
independence*: every delivery order the transports can legally produce
must yield the same floats.  The sanitizer can only audit the one
schedule that ran — this shim makes the transports produce *different*
legal schedules on demand, so tests can pin the blocking step bitwise
identical across many of them.

Two perturbations, both preserving MPI semantics:

* **jitter** — a random sleep before a delivery becomes visible,
  shuffling cross-stream arrival order;
* **hold** — the thread backend's mailbox may park a message until the
  receiver's next ``get``, letting a later message from a *different*
  ``(source, tag)`` stream overtake it.  Per-stream FIFO is preserved
  (a later message of a stream that already has one held queues
  *behind* the held one, and the held set is appended in arrival
  order), and every ``get`` flushes the held set before matching, so
  no delivery is ever delayed past the next receive — the fuzzer can
  reorder, never deadlock.

Enable with ``REPRO_SCHED_FUZZ=<seed>`` (an integer); the thread
backend's mailboxes and the socket router pick it up automatically.
``REPRO_SCHED_FUZZ_DELAY`` (seconds, default ``0.002``) bounds the
jitter.  The RNG sequence is seeded and shared under a lock, so a
fixed seed gives a reproducible *perturbation stream* — thread
scheduling still varies, which is the point: the results must not.
"""

from __future__ import annotations

import os
import random
import threading
import time
import warnings

__all__ = ["ScheduleFuzzer", "FUZZ_ENV", "FUZZ_DELAY_ENV"]

FUZZ_ENV = "REPRO_SCHED_FUZZ"
FUZZ_DELAY_ENV = "REPRO_SCHED_FUZZ_DELAY"

_DEFAULT_MAX_DELAY = 0.002
_DEFAULT_HOLD_PROB = 0.25


class ScheduleFuzzer:
    """Seeded delivery-delay/reorder decisions, thread-safe."""

    def __init__(self, seed: int, max_delay: float = _DEFAULT_MAX_DELAY,
                 hold_prob: float = _DEFAULT_HOLD_PROB):
        self.seed = seed
        self.max_delay = max_delay
        self.hold_prob = hold_prob
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    @classmethod
    def from_env(cls) -> "ScheduleFuzzer | None":
        """A fuzzer per ``REPRO_SCHED_FUZZ``, or None when unset/off."""
        raw = os.environ.get(FUZZ_ENV, "").strip()
        if raw in ("", "0", "off", "no", "false"):
            return None
        try:
            seed = int(raw)
        except ValueError:
            warnings.warn(
                f"{FUZZ_ENV}={raw!r} is not an integer seed; "
                "schedule fuzzing stays off",
                RuntimeWarning, stacklevel=2,
            )
            return None
        max_delay = _DEFAULT_MAX_DELAY
        raw_delay = os.environ.get(FUZZ_DELAY_ENV, "").strip()
        if raw_delay:
            try:
                max_delay = max(0.0, float(raw_delay))
            except ValueError:
                warnings.warn(
                    f"{FUZZ_DELAY_ENV}={raw_delay!r} is not a number; "
                    f"using {_DEFAULT_MAX_DELAY}s",
                    RuntimeWarning, stacklevel=2,
                )
        return cls(seed, max_delay=max_delay)

    def delay(self) -> float:
        with self._lock:
            return self._rng.random() * self.max_delay

    def sleep_jitter(self) -> None:
        d = self.delay()
        if d > 0.0:
            # the fuzzer exists to perturb timing; the bitwise tests
            # assert the results don't care
            time.sleep(d)  # repro: noqa-REP015

    def hold(self) -> bool:
        """Whether to park this delivery until the receiver's next get."""
        with self._lock:
            return self._rng.random() < self.hold_prob
