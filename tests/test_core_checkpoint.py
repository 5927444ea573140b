import time
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core import LatLonDynamo, RunConfig, YinYangDynamo
from repro.core.checkpoint import (
    TEMP_SUFFIX,
    CheckpointError,
    load_checkpoint,
    read_meta,
    save_checkpoint,
    verify_checkpoint,
)
from repro.grids.component import Panel
from repro.mhd.parameters import MHDParameters
from repro.mhd.state import MHDState
from repro.parallel.parallel_solver import run_parallel_dynamo


@pytest.fixture()
def pair():
    rng = np.random.default_rng(0)
    out = {}
    for panel in (Panel.YIN, Panel.YANG):
        s = MHDState(*(rng.normal(size=(4, 5, 6)) for _ in range(8)))
        out[panel] = s
    return out


class TestRoundTrip:
    def test_pair_round_trip(self, pair, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, pair, time=1.25, step=42)
        states, t, step = load_checkpoint(path)
        assert t == 1.25 and step == 42
        assert set(states) == {Panel.YIN, Panel.YANG}
        for panel in pair:
            for a, b in zip(states[panel].arrays(), pair[panel].arrays()):
                np.testing.assert_array_equal(a, b)

    def test_single_state_round_trip(self, pair, tmp_path):
        """A lat-lon single state comes back as a bare MHDState, not
        disguised as a Yin panel (the layout is recorded explicitly)."""
        path = tmp_path / "single.npz"
        save_checkpoint(path, pair[Panel.YIN])
        states, t, step = load_checkpoint(path)
        assert isinstance(states, MHDState)
        assert (t, step) == (0.0, 0)
        for a, b in zip(states.arrays(), pair[Panel.YIN].arrays()):
            np.testing.assert_array_equal(a, b)

    def test_single_state_never_a_panel_dict(self, pair, tmp_path):
        """Restore cannot mis-reconstruct a single state as half a
        panel pair."""
        path = save_checkpoint(tmp_path / "single", pair[Panel.YIN])
        states, _, _ = load_checkpoint(path)
        assert not isinstance(states, dict)

    def test_suffix_added_when_missing(self, pair, tmp_path):
        path = tmp_path / "noext"
        save_checkpoint(path, pair)
        states, _, _ = load_checkpoint(tmp_path / "noext")
        assert Panel.YANG in states


class TestResume:
    def test_run_resume_equivalence(self, tmp_path):
        """Checkpointing mid-run and resuming reproduces the direct run
        exactly (fixed dt)."""
        params = MHDParameters.laptop_demo()
        cfg = RunConfig(nr=7, nth=12, nph=36, params=params, dt=1e-3)
        direct = YinYangDynamo(cfg)
        direct.run(6, record_every=0)

        staged = YinYangDynamo(cfg)
        staged.run(3, record_every=0)
        path = staged.save_checkpoint(tmp_path / "mid")
        resumed = YinYangDynamo(cfg)
        resumed.restore_checkpoint(path)
        assert resumed.step_count == 3
        resumed.run(3, record_every=0)

        for panel in (Panel.YIN, Panel.YANG):
            for a, b in zip(resumed.state[panel].arrays(), direct.state[panel].arrays()):
                np.testing.assert_array_equal(a, b)

    def test_restore_rejects_single_state(self, pair, tmp_path):
        params = MHDParameters.laptop_demo()
        path = save_checkpoint(tmp_path / "single", pair[Panel.YIN])
        dyn = YinYangDynamo(RunConfig(nr=7, nth=12, nph=36, params=params))
        with pytest.raises(ValueError, match="panel-pair"):
            dyn.restore_checkpoint(path)

    def test_version_guard(self, pair, tmp_path):
        """Version 2 is the only one read: a future version and the
        retired version 1 are both refused by name."""
        path = save_checkpoint(tmp_path / "v", pair)
        for version in (99, 1):
            data = dict(np.load(path))
            data["_version"] = np.array(version)
            np.savez_compressed(path, **data)
            with pytest.raises(
                    ValueError, match=f"version {version} .only version 2 is supported"):
                load_checkpoint(path)


def _rewrite(path, **changes):
    """Re-save an archive (CRC-valid) with members replaced or, for a
    ``None`` value, dropped."""
    data = dict(np.load(path))
    for key, value in changes.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    np.savez(path, **data)


class TestStoredArchive:
    def test_members_are_stored_and_size_is_raw_bytes(self, pair, tmp_path):
        path = save_checkpoint(tmp_path / "ck.npz", pair)
        raw = sum(a.nbytes for s in pair.values() for a in s.arrays())
        with zipfile.ZipFile(path) as zf:
            members = zf.infolist()
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)
        assert raw <= path.stat().st_size <= raw + 1024 * len(members)

    def test_deflated_archive_from_the_old_writer_still_loads(self, pair, tmp_path):
        path = save_checkpoint(tmp_path / "ck.npz", pair, time=0.5, step=7)
        np.savez_compressed(path, **dict(np.load(path)))
        with zipfile.ZipFile(path) as zf:
            assert {m.compress_type for m in zf.infolist()} == {zipfile.ZIP_DEFLATED}
        states, t, step = load_checkpoint(path)
        assert (t, step) == (0.5, 7)
        for panel in pair:
            for a, b in zip(states[panel].arrays(), pair[panel].arrays()):
                np.testing.assert_array_equal(a, b)
        assert verify_checkpoint(path) == read_meta(path)["fingerprint"]

    def test_save_costs_a_raw_write_plus_a_sha_pass(self, tmp_path):
        """Host-independent cost guard: a production-grid save stays
        within 3x one ``np.save`` of the same bytes to the same
        directory plus one fingerprint pass over them (measured ~1.5x;
        the deflating writer sat at ~35x)."""
        from repro.checkers.fingerprint import states_root_digest

        rng = np.random.default_rng(1)
        pair = {p: MHDState(*(rng.normal(size=(16, 32, 96)) for _ in range(8)))
                for p in (Panel.YIN, Panel.YANG)}
        blob = np.concatenate([a.ravel() for s in pair.values() for a in s.arrays()])

        def best(fn, reps=7):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        floor = (best(lambda: np.save(tmp_path / "raw.npy", blob))
                 + best(lambda: states_root_digest(pair)))
        save = best(lambda: save_checkpoint(tmp_path / "ck.npz", pair))
        assert save < 3 * floor, (
            f"save {1e3 * save:.1f} ms vs write + SHA {1e3 * floor:.1f} ms")


class TestAtomicPublish:
    def test_failed_write_leaves_nothing_and_keeps_the_previous_archive(
            self, pair, tmp_path, monkeypatch):
        path = save_checkpoint(tmp_path / "checkpoint_000001.npz", pair, step=1)
        before = path.read_bytes()

        def torn_savez(fh, **payload):
            fh.write(b"PK half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_savez)
        for name in ("checkpoint_000001.npz", "checkpoint_000002.npz"):
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(tmp_path / name, pair, step=2)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint_000001.npz"]
        assert path.read_bytes() == before
        verify_checkpoint(path)

    def test_temp_name_matches_no_checkpoint_glob(self, tmp_path):
        from repro.parallel.elastic import find_rank_files

        tmp = tmp_path / f"checkpoint_000002_rank000.npz{TEMP_SUFFIX}"
        tmp.write_bytes(b"PK")
        assert find_rank_files(tmp_path / "checkpoint_000002.npz") == []
        assert list(tmp_path.glob("checkpoint_*.npz")) == []
        tmp.unlink()  # conftest fails the session on a surviving temp file


class TestDamagedArchive:
    """Every induced damage ends in one CheckpointError naming the path
    and the cause — no BadZipFile / zlib.error / KeyError tracebacks."""

    @pytest.fixture()
    def archive(self, pair, tmp_path):
        return save_checkpoint(tmp_path / "ck.npz", pair, step=5)

    def test_truncated(self, archive):
        archive.write_bytes(archive.read_bytes()[: archive.stat().st_size // 2])
        for reader in (load_checkpoint, verify_checkpoint):
            with pytest.raises(CheckpointError, match=r"ck\.npz: damaged .*zip"):
                reader(archive)

    def test_flipped_payload_byte(self, archive):
        blob = bytearray(archive.read_bytes())
        with zipfile.ZipFile(archive) as zf:
            info = zf.getinfo("yang:fr.npy")
        blob[info.header_offset + info.compress_size // 2 + 256] ^= 0x01
        archive.write_bytes(bytes(blob))
        for reader in (load_checkpoint, verify_checkpoint):
            with pytest.raises(CheckpointError, match=r"ck\.npz: damaged .*CRC.*yang:fr"):
                reader(archive)

    def test_zeroed_midpoint_of_a_fresh_run_archive(self, tiny_config, tmp_path):
        """What benchmarks/e2e/test_smoke.py does to an archive.  A
        fresh state is full of zeros (momentum, the wall rows of the
        vector potential) that a stored member keeps as zeros; the
        member order puts the midpoint in the Yang density instead."""
        path = YinYangDynamo(tiny_config).save_checkpoint(tmp_path / "ck.npz")
        blob = bytearray(path.read_bytes())
        middle = len(blob) // 2
        assert blob[middle:middle + 64] != bytes(64)
        blob[middle:middle + 64] = bytes(64)
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="CRC.*yang:rho"):
            verify_checkpoint(path)

    def test_flipped_fingerprint_digit(self, archive):
        stored = read_meta(archive)["fingerprint"]
        flipped = ("0" if stored[0] != "0" else "1") + stored[1:]
        _rewrite(archive, **{"_meta:fingerprint": np.array(flipped)})
        with pytest.raises(CheckpointError, match=r"ck\.npz: fingerprint mismatch"):
            verify_checkpoint(archive)

    def test_deleted_fingerprint(self, archive):
        _rewrite(archive, **{"_meta:fingerprint": None})
        with pytest.raises(CheckpointError, match=r"ck\.npz: no fingerprint"):
            verify_checkpoint(archive)

    def test_missing_field(self, archive):
        _rewrite(archive, **{"yin:p": None})
        with pytest.raises(CheckpointError, match=r"ck\.npz: damaged .*KeyError.*yin:p"):
            load_checkpoint(archive)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nothing.npz")


class TestSingleOpen:
    """``verify_checkpoint`` and every driver's ``restore_checkpoint``
    decode an archive once (the deflating reader opened it three times
    on a restart)."""

    @pytest.fixture()
    def opens(self, monkeypatch):
        counts: Counter = Counter()
        real = np.load

        def counting_load(file, *args, **kwargs):
            counts[Path(file).name] += 1
            return real(file, *args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        return counts

    def test_verify(self, pair, tmp_path, opens):
        path = save_checkpoint(tmp_path / "ck.npz", pair)
        verify_checkpoint(path)
        assert opens == {"ck.npz": 1}

    def test_serial_driver(self, tiny_config, tmp_path, opens):
        dyn = YinYangDynamo(tiny_config)
        path = dyn.save_checkpoint(tmp_path / "yy.npz")
        YinYangDynamo(tiny_config).restore_checkpoint(path)
        assert opens == {"yy.npz": 1}

    def test_latlon_driver(self, demo_params, tmp_path, opens):
        cfg = RunConfig(nr=7, nth=12, nph=24, params=demo_params, dt=1e-3)
        dyn = LatLonDynamo(cfg)
        path = dyn.save_checkpoint(tmp_path / "ll.npz")
        LatLonDynamo(cfg).restore_checkpoint(path)
        assert opens == {"ll.npz": 1}

    def test_parallel_driver_and_elastic_assembly(self, tiny_config, tmp_path, opens):
        run_parallel_dynamo(tiny_config, 1, 1, 1, backend="thread",
                            checkpoint_dir=str(tmp_path), checkpoint_every=1)
        base = tmp_path / "checkpoint_000001.npz"
        family = {f"checkpoint_000001_rank{r:03d}.npz": 1 for r in range(2)}
        # same geometry: each rank reads its own tile, once
        run_parallel_dynamo(tiny_config, 1, 1, 1, backend="thread", restart=str(base))
        assert opens == family
        opens.clear()
        # the serial driver assembling the family reads each member once
        YinYangDynamo(tiny_config).restore_checkpoint(base)
        assert opens == family
