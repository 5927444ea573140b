import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "40.96 Tflops" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Kageyama et al." in out
        assert "finite difference" in out

    def test_fig1(self, capsys):
        assert main(["fig1", "--rows", "10"]) == 0
        out = capsys.readouterr().out
        assert "overlap" in out
        assert "#" in out  # the overlap region in the ASCII map

    def test_fig2(self, capsys):
        assert main(["fig2", "--mode", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 cyclonic / 4 anti-cyclonic" in out

    def test_volume(self, capsys):
        assert main(["volume"]) == 0
        out = capsys.readouterr().out
        assert "implied_subsample" in out

    def test_run_small(self, capsys):
        assert main(["run", "--steps", "4", "--nr", "9", "--nth", "12",
                     "--nph", "36"]) == 0
        out = capsys.readouterr().out
        assert "KE =" in out
        assert "final:" in out

    def test_run_guarded_checkpointing_and_restart(self, capsys, tmp_path):
        ckdir = tmp_path / "cks"
        base = ["run", "--nr", "9", "--nth", "12", "--nph", "36"]
        assert main(base + ["--steps", "4", "--guard",
                            "--checkpoint-every", "2",
                            "--checkpoint-dir", str(ckdir)]) == 0
        out = capsys.readouterr().out
        saved = sorted(ckdir.glob("*.npz"))
        assert len(saved) == 2
        # what the saves cost is part of every run log
        mb = sum(p.stat().st_size for p in saved) / 1e6
        assert re.search(
            rf"^checkpoints: 2 archives, {mb:.2f} MB, \d+\.\d ms each "
            r"\(\d+\.\d % of wall\)$", out, re.M), out
        # resume from the last checkpoint and keep going
        assert main(base + ["--steps", "6", "--restart", str(saved[-1])]) == 0
        out = capsys.readouterr().out
        assert "restarting from" in out
        assert "step    10" in out  # 4 checkpointed + 6 more

    @pytest.mark.parametrize("extra", [[], ["--checkpoint-every", "2"]])
    def test_run_restart_from_damaged_archive_exits_2(self, capsys, tmp_path, extra):
        """A torn archive ends the run with one named line, exit 2 —
        whether the driver or the checkpoint observer does the restore."""
        base = ["run", "--nr", "9", "--nth", "12", "--nph", "36", "--steps", "2",
                "--checkpoint-dir", str(tmp_path)]
        assert main(base + ["--checkpoint-every", "2"]) == 0
        good = tmp_path / "checkpoint_000002.npz"
        bad = tmp_path / "torn.npz"
        bad.write_bytes(good.read_bytes()[: good.stat().st_size // 2])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(base + ["--restart", str(bad)] + extra)
        assert exc.value.code == 2
        out = capsys.readouterr().out
        assert f"RESTART: {bad}: damaged checkpoint archive (BadZipFile" in out
        assert "Traceback" not in out

    @pytest.mark.parametrize("argv, message", [
        (["--nr", "2", "--steps", "1"], "run: nr must be >= 5, got 2"),
        (["--nth", "2"], "run: nth must be >= 8, got 2"),
        (["--steps", "-3"], "run: steps must be >= 0, got -3"),
    ])
    def test_run_bad_grid_or_steps_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["run", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out.strip() == message

    def test_backends(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("thread", "process", "socket"):
            assert name in out
        assert "active: thread (default)" in out
        assert "cross-host" in out  # the capabilities column

    def test_kernels_reports_what_unset_resolves_to(self, capsys, monkeypatch):
        from repro.fd import backend as kernel_backend

        monkeypatch.delenv(kernel_backend.KERNELS_ENV, raising=False)
        default = kernel_backend.default_backend()
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert f"unset REPRO_KERNELS resolves to: {default}" in out
        assert f"active: {default} (default)" in out
        monkeypatch.setenv(kernel_backend.KERNELS_ENV, "fused")
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert f"unset REPRO_KERNELS resolves to: {default}" in out
        assert "active: fused (REPRO_KERNELS=fused)" in out

    def test_run_announces_a_first_use_kernel_build(self, capsys, monkeypatch):
        """One line before the run compiles the kernels; none once the
        shared object is cached (or when it cannot be built at all)."""
        from repro import cli
        from repro.fd import backend as kernel_backend
        from repro.fd.ckernels import build

        monkeypatch.delenv(kernel_backend.KERNELS_ENV, raising=False)
        status = dict(build.build_status(), toolchain_ok=True, toolchain="cc",
                      built=False, loaded=False, error=None)
        monkeypatch.setattr(build, "build_status", lambda: status)
        monkeypatch.setattr(kernel_backend, "select", lambda name=None: "c")
        cli._announce_kernel_build()
        assert "compiling the C kernels with cc (first use" in capsys.readouterr().out
        status["built"] = True
        cli._announce_kernel_build()
        assert capsys.readouterr().out == ""
        status.update(built=False, toolchain_ok=False)
        cli._announce_kernel_build()
        assert capsys.readouterr().out == ""

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_run_parallel_restart_roundtrip(self, capsys, tmp_path):
        """Checkpoint on 4 thread ranks, restart on 2 socket ranks —
        the elastic path end to end through the CLI."""
        base = ["run", "--nr", "7", "--nth", "12", "--nph", "36"]
        assert main(base + ["--backend", "thread", "--ranks", "4",
                            "--steps", "2", "--checkpoint-every", "2",
                            "--checkpoint-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "checkpoint_000002.npz"
        assert len(list(tmp_path.glob("checkpoint_000002_rank*.npz"))) == 4
        assert main(base + ["--backend", "socket", "--ranks", "2",
                            "--steps", "2", "--restart", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "launcher backend: socket" in out
        assert "after 4 steps" in out  # 2 checkpointed + 2 more

    def test_run_guard_is_serial_only(self):
        with pytest.raises(SystemExit, match="serial-only"):
            main(["run", "--backend", "thread", "--guard"])

    @pytest.mark.slow
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "15.20" in out
