"""Seeded schedule-perturbation fuzzing (``REPRO_SCHED_FUZZ``).

The fuzzer shim makes the transports produce *different* legal
delivery schedules; the solver's guarantee is that every one of them
yields bitwise-identical floats.  Covered here: the env-var switch,
the mailbox hold/flush machinery (per-stream FIFO must survive
arbitrary hold decisions), and the headline property — the parallel
step pinned bitwise against an unfuzzed baseline across 20 seeds on
the thread backend, plus a fuzzed socket loopback world and a fuzzed
run under the full sanitizer.

Distinct from ``test_parallel_fuzz.py`` (hypothesis stress tests of
message *contents*): this file perturbs message *schedules*.
"""

import contextlib
import threading

import numpy as np
import pytest

from repro.core import RunConfig
from repro.mhd.parameters import MHDParameters
from repro.parallel.fuzz import FUZZ_DELAY_ENV, FUZZ_ENV, ScheduleFuzzer
from repro.parallel.parallel_solver import run_parallel_dynamo
from repro.parallel.simmpi import _MailBox, _Message
from repro.parallel.sockmpi import SockMPI, worker_join


# --------------------------------------------------------------------------
# env switch
# --------------------------------------------------------------------------


class TestFromEnv:
    @pytest.mark.parametrize("raw", ["", "0", "off", "no", "false"])
    def test_off_values(self, monkeypatch, raw):
        monkeypatch.setenv(FUZZ_ENV, raw)
        assert ScheduleFuzzer.from_env() is None

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv(FUZZ_ENV, raising=False)
        assert ScheduleFuzzer.from_env() is None

    def test_integer_seed(self, monkeypatch):
        monkeypatch.setenv(FUZZ_ENV, "1234")
        fuzz = ScheduleFuzzer.from_env()
        assert fuzz is not None and fuzz.seed == 1234

    def test_garbage_seed_warns_and_stays_off(self, monkeypatch):
        monkeypatch.setenv(FUZZ_ENV, "banana")
        with pytest.warns(RuntimeWarning, match="not an integer seed"):
            assert ScheduleFuzzer.from_env() is None

    def test_delay_env(self, monkeypatch):
        monkeypatch.setenv(FUZZ_ENV, "7")
        monkeypatch.setenv(FUZZ_DELAY_ENV, "0.01")
        assert ScheduleFuzzer.from_env().max_delay == 0.01

    def test_garbage_delay_warns_and_uses_default(self, monkeypatch):
        monkeypatch.setenv(FUZZ_ENV, "7")
        monkeypatch.setenv(FUZZ_DELAY_ENV, "soon")
        with pytest.warns(RuntimeWarning, match="not a number"):
            fuzz = ScheduleFuzzer.from_env()
        assert fuzz.max_delay == 0.002

    def test_negative_delay_clamped(self, monkeypatch):
        monkeypatch.setenv(FUZZ_ENV, "7")
        monkeypatch.setenv(FUZZ_DELAY_ENV, "-1")
        assert ScheduleFuzzer.from_env().max_delay == 0.0

    def test_same_seed_same_decision_stream(self):
        a, b = ScheduleFuzzer(99), ScheduleFuzzer(99)
        assert [a.delay() for _ in range(32)] == [b.delay() for _ in range(32)]
        assert [a.hold() for _ in range(32)] == [b.hold() for _ in range(32)]

    def test_delay_bounded(self):
        fuzz = ScheduleFuzzer(3, max_delay=0.004)
        assert all(0.0 <= fuzz.delay() <= 0.004 for _ in range(100))


# --------------------------------------------------------------------------
# mailbox hold/flush: reorders across streams, never within one
# --------------------------------------------------------------------------


class _ScriptedFuzz(ScheduleFuzzer):
    """Deterministic hold decisions; no sleeping."""

    def __init__(self, holds):
        super().__init__(seed=0, max_delay=0.0)
        self._holds = list(holds)

    def hold(self):
        return self._holds.pop(0) if self._holds else False


def _msg(source, tag, payload):
    return _Message(source=source, tag=tag, payload=payload)


class TestMailBoxHold:
    def test_same_stream_fifo_survives_holding(self):
        # first message held; the same-stream follower must queue
        # behind it, not jump into the visible list
        box = _MailBox(fuzz=_ScriptedFuzz([True, True]))
        box.put(_msg(0, 5, "first"))
        box.put(_msg(0, 5, "second"))
        assert box.get(0, 5, timeout=1.0).payload == "first"
        assert box.get(0, 5, timeout=1.0).payload == "second"

    def test_follower_queues_behind_held_even_without_hold_decision(self):
        # the scripted second decision is False, but the stream already
        # has a held message: the follower is force-held behind it
        box = _MailBox(fuzz=_ScriptedFuzz([True, False]))
        box.put(_msg(0, 5, "first"))
        box.put(_msg(0, 5, "second"))
        assert box.get(0, 5, timeout=1.0).payload == "first"
        assert box.get(0, 5, timeout=1.0).payload == "second"

    def test_cross_stream_overtake_is_possible(self):
        # stream (0,5) held; stream (1,5) delivered straight through —
        # a later arrival from a different stream becomes visible first
        box = _MailBox(fuzz=_ScriptedFuzz([True, False]))
        box.put(_msg(0, 5, "early-held"))
        box.put(_msg(1, 5, "late-direct"))
        from repro.parallel.simmpi import ANY_SOURCE
        first = box.get(ANY_SOURCE, 5, timeout=1.0)
        assert first.payload == "late-direct"
        assert box.get(ANY_SOURCE, 5, timeout=1.0).payload == "early-held"

    def test_get_flushes_held_so_no_artificial_deadlock(self):
        box = _MailBox(fuzz=_ScriptedFuzz([True]))
        box.put(_msg(2, 9, "only"))
        # without the flush this would time out: the only copy is held
        assert box.get(2, 9, timeout=1.0).payload == "only"


# --------------------------------------------------------------------------
# the property: fuzzed schedules are bitwise-identical
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def config():
    return RunConfig(nr=5, nth=10, nph=30, params=MHDParameters.laptop_demo(),
                     dt=1e-3, amp_temperature=1e-2)


@pytest.fixture(scope="module")
def baseline(config):
    """Unfuzzed run on the thread backend."""
    return run_parallel_dynamo(config, 1, 2, 2)


def _assert_bitwise_equal(result, reference, label):
    for panel, state in result.states.items():
        for (name, a), (_, b) in zip(state.named_arrays(),
                                     reference.states[panel].named_arrays()):
            np.testing.assert_array_equal(
                a, b, err_msg=f"{label}: {panel} {name}")


class TestBitwiseUnderFuzz:
    @pytest.mark.parametrize("seed", range(1, 21))
    def test_thread_bitwise_across_seeds(self, monkeypatch, config,
                                         baseline, seed):
        monkeypatch.setenv(FUZZ_ENV, str(seed))
        monkeypatch.setenv(FUZZ_DELAY_ENV, "0.0005")
        fuzzed = run_parallel_dynamo(config, 1, 2, 2)
        _assert_bitwise_equal(fuzzed, baseline, f"seed {seed}")

    def test_fuzzed_run_under_sanitizer_is_clean(self, monkeypatch, config,
                                                 baseline):
        # jitter + hold must not trip the protocol recorder, the HB
        # buffer windows, or the poisoned-release checks
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv(FUZZ_ENV, "42")
        monkeypatch.setenv(FUZZ_DELAY_ENV, "0.0005")
        fuzzed = run_parallel_dynamo(config, 1, 2, 2)
        _assert_bitwise_equal(fuzzed, baseline, "sanitized seed 42")


# --------------------------------------------------------------------------
# socket backend: router-side jitter
# --------------------------------------------------------------------------


def _ring_prog(comm):
    comm.Send(np.array([float(comm.rank)]), dest=(comm.rank + 1) % comm.size)
    got = comm.Recv(source=(comm.rank - 1) % comm.size)
    total = comm.allreduce(float(comm.rank), op=lambda a, b: a + b)
    return float(got[0]), total


def _quiet_worker(addr):
    with contextlib.suppress(BaseException):
        worker_join(addr, timeout=60.0)


class TestSocketFuzz:
    def test_fuzzed_loopback_world(self, monkeypatch):
        monkeypatch.setenv(FUZZ_ENV, "17")
        monkeypatch.setenv(FUZZ_DELAY_ENV, "0.0005")
        addr_box, announced = {}, threading.Event()

        def announce(addr):
            addr_box["addr"] = addr
            announced.set()

        launcher = SockMPI(spawn=False, announce=announce)
        out = {}

        def coordinate():
            try:
                out["results"] = launcher.run(3, _ring_prog, timeout=30.0)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                out["error"] = exc

        coord = threading.Thread(target=coordinate, daemon=True)
        coord.start()
        assert announced.wait(30.0)
        workers = [
            threading.Thread(target=_quiet_worker, args=(addr_box["addr"],),
                             daemon=True)
            for _ in range(3)
        ]
        for w in workers:
            w.start()
        coord.join(timeout=60.0)
        assert not coord.is_alive()
        if "error" in out:
            raise out["error"]
        assert out["results"] == [(2.0, 3.0), (0.0, 3.0), (1.0, 3.0)]
