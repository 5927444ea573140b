"""Socket-backed SimMPI: wire-format validation, hostile peers, worlds.

The frame codec is exercised directly with corrupt byte streams; the
coordinator/worker protocol with in-process loopback worlds (threads
running :func:`worker_join` against a non-spawning coordinator) and
with real spawned worker processes.  Every rank function is
module-level — the ASSIGN frame pickles it to the workers.
"""

import contextlib
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.checkers.sanitize import ProtocolViolation
from repro.core import RunConfig, YinYangDynamo
from repro.grids.component import Panel
from repro.mhd.parameters import MHDParameters
from repro.parallel.frames import (
    MAGIC,
    MAX_HEADER_BYTES,
    encode_frame,
    read_frame,
    validate_payload,
)
from repro.parallel.parallel_solver import run_parallel_dynamo
from repro.parallel.simmpi import SimMPI, SimMPIError
from repro.parallel.sockmpi import SockMPI, _recv_exactly_fn, worker_join
from repro.parallel.transport import WorkerError

_PREFIX = struct.Struct("<IBI")
_PLEN = struct.Struct("<Q")


def _buffer_reader(blob: bytes):
    """``recv_exactly`` over a byte buffer (a peer that then hangs up)."""
    view = memoryview(blob)
    pos = 0

    def recv_exactly(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(view):
            raise ProtocolViolation(
                f"connection closed after {len(view) - pos}/{n} B of a frame"
            )
        out = bytes(view[pos:pos + n])
        pos += n
        return out

    return recv_exactly


def _frame_bytes(payload, chan="d", source=0, dest=1, tag=3) -> bytes:
    head, body = encode_frame(chan, source, dest, tag, payload)
    return head + bytes(body)


class TestFrameCodec:
    def test_ndarray_roundtrip(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        frame = read_frame(_buffer_reader(_frame_bytes(arr)))
        assert (frame.chan, frame.source, frame.dest, frame.tag) == ("d", 0, 1, 3)
        np.testing.assert_array_equal(frame.materialise(), arr)

    def test_pickle_roundtrip(self):
        frame = read_frame(_buffer_reader(_frame_bytes({"k": [1, 2]})))
        assert frame.materialise() == {"k": [1, 2]}

    def test_router_head_is_verbatim(self):
        blob = _frame_bytes(np.ones(4))
        frame = read_frame(_buffer_reader(blob))
        assert frame.head + frame.payload == blob

    def test_truncated_stream(self):
        blob = _frame_bytes(np.ones(8))
        for cut in (3, _PREFIX.size + 2, len(blob) - 5):
            with pytest.raises(ProtocolViolation, match="connection closed"):
                read_frame(_buffer_reader(blob[:cut]))

    def test_bad_magic(self):
        blob = bytearray(_frame_bytes(np.ones(2)))
        blob[0] ^= 0xFF
        with pytest.raises(ProtocolViolation, match="bad frame magic"):
            read_frame(_buffer_reader(bytes(blob)))

    def test_unknown_kind(self):
        blob = _PREFIX.pack(MAGIC, 9, 4) + b"xxxx" + _PLEN.pack(0)
        with pytest.raises(ProtocolViolation, match="unknown frame kind"):
            read_frame(_buffer_reader(blob))

    def test_header_cap(self):
        blob = _PREFIX.pack(MAGIC, 1, MAX_HEADER_BYTES + 1)
        with pytest.raises(ProtocolViolation, match="exceeds the"):
            read_frame(_buffer_reader(blob))

    def test_undecodable_header(self):
        header = b"\x00not a pickle"
        blob = _PREFIX.pack(MAGIC, 1, len(header)) + header + _PLEN.pack(0)
        with pytest.raises(ProtocolViolation, match="undecodable frame header"):
            read_frame(_buffer_reader(blob))

    def test_header_wrong_arity(self):
        header = pickle.dumps(("d", 0, 1))
        blob = _PREFIX.pack(MAGIC, 1, len(header)) + header + _PLEN.pack(0)
        with pytest.raises(ProtocolViolation, match="not a 6-tuple"):
            read_frame(_buffer_reader(blob))

    def test_header_wrong_field_types(self):
        header = pickle.dumps(("d", "zero", 1, 3, None, None))
        blob = _PREFIX.pack(MAGIC, 1, len(header)) + header + _PLEN.pack(0)
        with pytest.raises(ProtocolViolation, match="field types invalid"):
            read_frame(_buffer_reader(blob))

    def test_ndarray_shape_disagrees_with_byte_count(self):
        # header claims a 3x3 float64 block (72 B) but carries 8 B
        header = pickle.dumps(("d", 0, 1, 3, "<f8", (3, 3)))
        blob = (_PREFIX.pack(MAGIC, 0, len(header)) + header
                + _PLEN.pack(8) + b"\x00" * 8)
        with pytest.raises(ProtocolViolation, match="claims shape"):
            read_frame(_buffer_reader(blob))

    def test_ndarray_negative_shape(self):
        header = pickle.dumps(("d", 0, 1, 3, "<f8", (-1, 3)))
        blob = _PREFIX.pack(MAGIC, 0, len(header)) + header + _PLEN.pack(0)
        with pytest.raises(ProtocolViolation, match="invalid shape"):
            read_frame(_buffer_reader(blob))

    def test_validate_payload_mismatches(self):
        good = np.zeros((2, 3))
        assert validate_payload(good, (2, 3), np.float64,
                                what="halo", plan="plan") is good
        for bad in (np.zeros((3, 2)), np.zeros((2, 3), dtype=np.float32), "junk"):
            with pytest.raises(ProtocolViolation, match="expects"):
                validate_payload(bad, (2, 3), np.float64,
                                 what="halo", plan="plan")

    def test_truncated_socket_stream(self):
        """The real socket reader reports truncation, not a hang."""
        a, b = socket.socketpair()
        try:
            blob = _frame_bytes(np.ones(16))
            a.sendall(blob[:11])
            a.close()
            b.settimeout(10.0)
            with pytest.raises(ProtocolViolation, match="connection closed"):
                read_frame(_recv_exactly_fn(b, "test peer"))
        finally:
            b.close()
            with contextlib.suppress(OSError):
                a.close()


# ---- loopback worlds ---------------------------------------------------------------


def _pair_prog(comm):
    other = 1 - comm.rank
    comm.Send(np.arange(6, dtype=np.float64) * (comm.rank + 1), dest=other)
    got = comm.Recv(source=other)
    red = comm.allreduce(float(comm.rank + 1), op=lambda a, b: a + b)
    return got.tolist(), red


def _collective_prog(comm):
    gathered = comm.allgather(comm.rank * 10)
    root_val = comm.bcast("payload" if comm.rank == 0 else None, root=0)
    sub = comm.split(color=comm.rank % 2, key=comm.rank)
    sub_sum = sub.allreduce(1, op=lambda a, b: a + b)
    comm.barrier()
    return gathered, root_val, sub_sum


def _failing_prog(comm):
    if comm.rank == 1:
        raise ValueError("deliberate rank failure")
    comm.barrier()
    return comm.rank


def _dying_prog(comm):
    if comm.rank == 1:
        os._exit(1)  # simulate a worker host dropping off the network
    comm.Recv(source=1, tag=5)  # never arrives


def _quiet_worker(addr: str) -> None:
    with contextlib.suppress(BaseException):
        worker_join(addr, timeout=60.0)


def _threaded_world(nprocs, fn, *, before_workers=None, timeout=60.0):
    """A full coordinator + worker world inside this process: the
    coordinator runs in a thread with ``spawn=False`` and each worker
    is a thread calling :func:`worker_join` on the announced address."""
    addr_box: dict[str, str] = {}
    announced = threading.Event()

    def announce(addr: str) -> None:
        addr_box["addr"] = addr
        announced.set()

    launcher = SockMPI(spawn=False, announce=announce)
    out: dict[str, object] = {}

    def coordinate() -> None:
        try:
            out["results"] = launcher.run(nprocs, fn, timeout=timeout)
        except BaseException as exc:  # noqa: BLE001 - re-raised by caller
            out["error"] = exc

    coord = threading.Thread(target=coordinate, daemon=True)
    coord.start()
    assert announced.wait(30.0), "coordinator never announced its address"
    addr = addr_box["addr"]
    if before_workers is not None:
        before_workers(addr)
    workers = [
        threading.Thread(target=_quiet_worker, args=(addr,), daemon=True)
        for _ in range(nprocs)
    ]
    for w in workers:
        w.start()
    coord.join(timeout=120.0)
    assert not coord.is_alive(), "coordinator did not finish"
    if "error" in out:
        raise out["error"]
    return out["results"]


class TestLoopbackWorld:
    def test_p2p_and_reduction(self):
        results = _threaded_world(2, _pair_prog)
        assert results == [
            ([2.0 * i for i in range(6)], 3.0),
            ([float(i) for i in range(6)], 3.0),
        ]

    def test_collectives_and_split(self):
        results = _threaded_world(4, _collective_prog)
        for rank, (gathered, root_val, sub_sum) in enumerate(results):
            assert gathered == [0, 10, 20, 30], rank
            assert root_val == "payload"
            assert sub_sum == 2

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="deliberate rank failure"):
            _threaded_world(2, _failing_prog)

    def test_garbage_handshake_does_not_kill_world(self):
        """Clients speaking HTTP (or nothing at all) are refused; the
        real workers still form the world and finish."""

        def hostile_clients(addr: str) -> None:
            host, port = addr.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10.0) as s:
                s.sendall(b"GET / HTTP/1.0\r\n\r\n")
            with socket.create_connection((host, int(port)), timeout=10.0):
                pass  # connect and hang up without a word

        results = _threaded_world(2, _pair_prog, before_workers=hostile_clients)
        assert results[0] == ([2.0 * i for i in range(6)], 3.0)


class TestSpawnedWorld:
    def test_matches_thread_backend(self):
        sock = SockMPI().run(2, _pair_prog, timeout=120.0)
        thread = SimMPI.run(2, _pair_prog, timeout=60.0)
        assert sock == thread

    def test_mid_run_disconnect_aborts_cleanly(self):
        """A worker dying mid-run (hard exit, no RESULT) must surface as
        a protocol failure on the coordinator — with the surviving rank
        released by the ABORT broadcast, not deadlocked in Recv."""
        with pytest.raises((ProtocolViolation, WorkerError),
                           match="connection failed mid-run|rank 1"):
            SockMPI().run(2, _dying_prog, timeout=30.0)

    def test_is_simmpi_error_family(self):
        assert issubclass(WorkerError, SimMPIError)


class TestSocketDynamo:
    def test_socket_dynamo_matches_serial_bitwise(self):
        cfg = RunConfig(nr=7, nth=12, nph=36,
                        params=MHDParameters.laptop_demo(), dt=1e-3,
                        amp_temperature=1e-2)
        ser = YinYangDynamo(cfg)
        for _ in range(3):
            ser.step()
        par = run_parallel_dynamo(cfg, 1, 1, 3, backend="socket", timeout=240.0)
        assert par.launcher_backend == "socket"
        assert par.steps == 3
        for panel in (Panel.YIN, Panel.YANG):
            for (name, a), b in zip(
                par.states[panel].named_arrays(), ser.state[panel].arrays()
            ):
                np.testing.assert_array_equal(a, b, err_msg=f"{panel} {name}")

    def test_sanitized_socket_dynamo_bitwise(self):
        """The loopback socket world under ``REPRO_SANITIZE=1`` must
        reproduce the serial solver bitwise — the sanitizer's protocol
        verification runs over the socket transport itself, in a child
        interpreter whose spawned workers inherit the variable."""
        code = (
            "import numpy as np\n"
            "from repro.checkers.sanitize import sanitize_enabled\n"
            "assert sanitize_enabled()\n"
            "from repro.core import RunConfig, YinYangDynamo\n"
            "from repro.grids.component import Panel\n"
            "from repro.mhd.parameters import MHDParameters\n"
            "from repro.parallel.parallel_solver import run_parallel_dynamo\n"
            "cfg = RunConfig(nr=7, nth=12, nph=36,\n"
            "                params=MHDParameters.laptop_demo(), dt=1e-3,\n"
            "                amp_temperature=1e-2)\n"
            "ser = YinYangDynamo(cfg)\n"
            "for _ in range(2):\n"
            "    ser.step()\n"
            "par = run_parallel_dynamo(cfg, 1, 1, 2, backend='socket')\n"
            "assert par.launcher_backend == 'socket'\n"
            "for panel in (Panel.YIN, Panel.YANG):\n"
            "    for (name, a), b in zip(par.states[panel].named_arrays(),\n"
            "                            ser.state[panel].arrays()):\n"
            "        np.testing.assert_array_equal(a, b,\n"
            "                                      err_msg=f'{panel} {name}')\n"
            "print('SOCKET_BITWISE_OK')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=300,
            env={"PYTHONPATH": "src", "REPRO_SANITIZE": "1",
                 "PATH": "/usr/bin:/bin"},
            cwd=".",
        )
        assert "SOCKET_BITWISE_OK" in out.stdout, out.stderr
