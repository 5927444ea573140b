"""Launcher-backend registry: probing, selection, fallback, errors."""

import warnings

import pytest

from repro.parallel import backends as pb
from repro.parallel.procmpi import ProcMPI
from repro.parallel.threadmpi import SimMPI
from repro.parallel.sockmpi import SockMPI


@pytest.fixture
def broken(monkeypatch):
    """A registered backend whose probe fails (its module is missing)."""
    monkeypatch.setitem(pb.BACKENDS, "broken", "repro.parallel.no_such_module")
    return "broken"


class TestProbe:
    def test_detect_covers_registry_in_order(self):
        infos = pb.detect()
        assert [i.name for i in infos] == list(pb.BACKENDS)

    def test_builtin_backends_probe_available(self):
        avail = pb.available_backends()
        # thread is the unconditional fallback; process and socket only
        # need shared memory and a loopback socket.
        assert avail[:1] == ["thread"]
        assert {"process", "socket"} <= set(avail)

    def test_probe_reports_capabilities(self):
        sock = pb.probe("socket")
        assert sock.capabilities.cross_host
        assert sock.capabilities.picklable_fn
        assert "cross-host" in sock.capabilities.summary()
        thread = pb.probe("thread")
        assert not thread.capabilities.picklable_fn
        assert "closures ok" in thread.capabilities.summary()

    def test_probe_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown launcher backend"):
            pb.probe("rdma")

    def test_probe_failure_is_not_fatal(self, broken):
        info = pb.probe(broken)
        assert not info.available
        assert "probe failed" in info.detail


class TestSelection:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv(pb.LAUNCHER_ENV, raising=False)
        assert pb.requested() == "thread"
        assert pb.select() == "thread"

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv(pb.LAUNCHER_ENV, "socket")
        assert pb.requested() == "socket"
        assert pb.select() == "socket"

    def test_unknown_env_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv(pb.LAUNCHER_ENV, "rdma")
        with pytest.warns(RuntimeWarning, match="rdma"):
            assert pb.requested() == "thread"

    def test_explicit_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown launcher backend"):
            pb.select("rdma")

    def test_unavailable_selection_warns_and_falls_back(self, broken):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert pb.select(broken) == "thread"

    def test_available_selection_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pb.select("process") == "process"


class TestGetBackend:
    def test_resolves_launchers(self):
        assert pb.get_backend("thread") is SimMPI
        assert pb.get_backend("process") is ProcMPI
        assert isinstance(pb.get_backend("socket"), SockMPI)

    def test_opts_forwarded_to_open_launcher(self):
        launcher = pb.get_backend("socket", bind="127.0.0.1:0", spawn=False)
        assert launcher.bind == "127.0.0.1:0"
        assert launcher.spawn is False

    def test_unexpected_opts_rejected(self):
        with pytest.raises(TypeError, match="thread launcher takes no options"):
            pb.get_backend("thread", bogus=1)

    def test_unknown_names_registry_and_probe_command(self):
        with pytest.raises(ValueError) as exc:
            pb.get_backend("rdma")
        assert "repro-paper backends" in str(exc.value)
        assert "thread" in str(exc.value)

    def test_unavailable_raises_backend_unavailable(self, broken):
        with pytest.raises(pb.BackendUnavailable, match="unavailable"):
            pb.get_backend(broken)
        assert issubclass(pb.BackendUnavailable, ValueError)
