import json
import os
import struct
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from sensecomm import cli, models
from sensecomm.cli import main, parse_args
from sensecomm.models import ExperimentConfig, load_checkpoint


def run_cli(argv):
    return main(argv)


def exit_code(argv):
    """The process exit status of ``argv``, whether returned or raised."""
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def corpus_loads(monkeypatch):
    """Records every corpus load the CLI makes."""
    loads = []
    real = cli.load_cifar10
    monkeypatch.setattr(cli, "load_cifar10",
                        lambda path: loads.append(path) or real(path))
    return loads


def checkpoint_head(header: bytes) -> bytes:
    """The magic and length-prefixed ``header`` of a checkpoint file."""
    return b"SCM1" + struct.pack("<I", len(header)) + header


def assert_one_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


class TestUsageErrors:
    def test_unknown_channel_value(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--data-dir", str(tmp_path), "--channel", "foo"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--data-dir", "x", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_data_dir(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--data-dir", str(tmp_path / "nope")])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli([])
        assert exc.value.code == 2


class TestGradcheckCommand:
    def test_prints_pass_per_layer(self, capsys):
        assert run_cli(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "dense" in out and "conv2d" in out
        assert "pipeline_joint_rayleigh" in out
        assert "FAIL" not in out


SMOKE = ["--output-size", "4", "--epochs", "1",
         "--limit-train", "256", "--limit-test", "128", "--seed", "5"]


@pytest.fixture(scope="module")
def train_run(fake_cifar_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run_cli(["train", "--data-dir", str(fake_cifar_dir),
                    "--out", str(out)] + SMOKE)
    return code, out


class TestTrainEval:
    def test_train_writes_checkpoint_and_metrics(self, train_run):
        code, out = train_run
        assert code == 0
        assert (out / "checkpoint.bin").is_file()
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["config"]["n_c"] == 4
        assert sum(sum(r) for r in payload["metrics"]["confusion"]) == 128

    def test_checkpoint_is_loadable(self, train_run):
        _, out = train_run
        pipeline, header = load_checkpoint(out / "checkpoint.bin")
        assert pipeline.cfg.n_c == 4
        assert header["seed"] == 5

    def test_eval_subcommand(self, train_run, fake_cifar_dir, tmp_path):
        _, out = train_run
        code = run_cli(["eval", "--data-dir", str(fake_cifar_dir),
                        "--checkpoint", str(out / "checkpoint.bin"),
                        "--out", str(tmp_path)] + SMOKE)
        assert code == 0
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["checkpoint"]["seed"] == 5

    def test_eval_honours_dtype(self, train_run, fake_cifar_dir, tmp_path,
                                monkeypatch):
        _, out = train_run
        dtypes = []
        real = cli.evaluate
        monkeypatch.setattr(cli, "evaluate", lambda pipeline, test, cfg: (
            dtypes.extend(p.value.dtype for p in pipeline.params())
            or real(pipeline, test, cfg)))
        code = run_cli(["eval", "--data-dir", str(fake_cifar_dir),
                        "--checkpoint", str(out / "checkpoint.bin"),
                        "--out", str(tmp_path), "--dtype", "float64"] + SMOKE)
        assert code == 0
        assert set(dtypes) == {np.dtype(np.float64)}
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["config"]["dtype"] == "float64"

    @pytest.mark.parametrize("content", [
        b"SCM1\x00",
        checkpoint_head(b"\xff\xfe"),
        checkpoint_head(b'{"seed": null}'),
        None,
        checkpoint_head(b'{"model": {"n_c1": 4.0, "n_c2": 4, "mode": "joint"}, '
                        b'"tensors": []}'),
        checkpoint_head(b'{"model": {"n_c1": 4, "n_c2": 6, "mode": "joint"}, '
                        b'"tensors": []}'),
    ], ids=["five-bytes", "non-utf8-header", "no-model-key", "missing-file",
            "float-n_c1", "unequal-sizes"])
    def test_bad_checkpoint_fails_before_load(self, content, fake_cifar_dir,
                                              tmp_path, capsys, corpus_loads):
        ckpt = tmp_path / "checkpoint.bin"
        if content is not None:
            ckpt.write_bytes(content)
        out = tmp_path / "out"
        code = exit_code(["eval", "--data-dir", str(fake_cifar_dir),
                          "--checkpoint", str(ckpt), "--out", str(out)] + SMOKE)
        assert code == 2
        assert_one_error_line(capsys)
        assert corpus_loads == []
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--output-size", "8"),
                                             ("--mode", "sensing-only")])
    def test_eval_flag_disagreeing_with_checkpoint_fails_before_load(
            self, flag, value, train_run, fake_cifar_dir, tmp_path, capsys,
            corpus_loads):
        _, run = train_run
        out = tmp_path / "out"
        code = exit_code(["eval", "--data-dir", str(fake_cifar_dir),
                          "--checkpoint", str(run / "checkpoint.bin"),
                          "--out", str(out), flag, value])
        assert code == 2
        assert_one_error_line(capsys)
        assert corpus_loads == []
        assert not out.exists()

    def test_eval_flags_agreeing_with_checkpoint_accepted(
            self, train_run, fake_cifar_dir, tmp_path):
        _, run = train_run
        code = run_cli(["eval", "--data-dir", str(fake_cifar_dir),
                        "--checkpoint", str(run / "checkpoint.bin"),
                        "--out", str(tmp_path), "--mode", "joint"] + SMOKE)
        assert code == 0
        config = json.loads((tmp_path / "metrics.json").read_text())["config"]
        assert (config["n_c"], config["mode"]) == (4, "joint")

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
    @pytest.mark.parametrize("command", ["train", "eval", "sweep-output-size"])
    def test_out_naming_a_file_fails_before_load(self, command, below, train_run,
                                                 fake_cifar_dir, tmp_path,
                                                 capsys, corpus_loads):
        _, run = train_run
        out = tmp_path / "out"
        out.write_text("kept\n")
        argv = [command, "--data-dir", str(fake_cifar_dir), "--out", str(out / below)]
        if command == "eval":
            argv += ["--checkpoint", str(run / "checkpoint.bin")]
        if command == "sweep-output-size":
            argv += ["--points", "2"]
        assert exit_code(argv + SMOKE) == 2
        assert_one_error_line(capsys)
        assert corpus_loads == []
        assert out.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_train_rerun_metrics_byte_identical(self, train_run, fake_cifar_dir,
                                                tmp_path):
        _, out = train_run
        code = run_cli(["train", "--data-dir", str(fake_cifar_dir),
                        "--out", str(tmp_path)] + SMOKE)
        assert code == 0
        assert (tmp_path / "metrics.json").read_bytes() == \
            (out / "metrics.json").read_bytes()


def outputs_at_blas_threads(threads, argv, out, names):
    """Run the CLI in a fresh process at ``threads`` BLAS threads and read
    back the named output files. The timeout turns a hang, such as a fork
    taken while BLAS has live worker threads, into a failure."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
    subprocess.run([sys.executable, "-m", "sensecomm", *argv, "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)
    return [(out / name).read_bytes() for name in names]


class TestThreadCount:
    def test_blas_threads_leave_outputs_byte_identical(self, fake_cifar_dir,
                                                        tmp_path):
        argv = ["train", "--data-dir", str(fake_cifar_dir)] + SMOKE
        outputs = [outputs_at_blas_threads(threads, argv,
                                           tmp_path / f"threads{threads}",
                                           ["metrics.json", "checkpoint.bin"])
                   for threads in ("1", "2")]
        assert outputs[0] == outputs[1]

    def test_blas_threads_leave_sweep_byte_identical(self, fake_cifar_dir,
                                                     tmp_path):
        argv = ["sweep-output-size", "--data-dir", str(fake_cifar_dir),
                "--points", "4,6"] + SMOKE
        outputs = [outputs_at_blas_threads(threads, argv,
                                           tmp_path / f"threads{threads}",
                                           ["sweep_size.json", "sweep_size.csv"])
                   for threads in ("1", "2")]
        assert outputs[0] == outputs[1]


class TestConfigFile:
    def test_key_value_file_sets_defaults(self, fake_cifar_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("output_size=4\nepochs=1\nseed=5\n")
        out = tmp_path / "out"
        code = run_cli(["train", "--data-dir", str(fake_cifar_dir),
                        "--config", str(cfg), "--out", str(out),
                        "--limit-train", "256", "--limit-test", "128"])
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["config"]["n_c"] == 4
        assert payload["config"]["seed"] == 5

    def test_flags_override_file(self, fake_cifar_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"output_size": 8, "epochs": 1, "seed": 5}))
        out = tmp_path / "out"
        code = run_cli(["train", "--data-dir", str(fake_cifar_dir),
                        "--config", str(cfg), "--output-size", "4",
                        "--out", str(out),
                        "--limit-train", "256", "--limit-test", "128"])
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["config"]["n_c"] == 4

    @pytest.mark.parametrize("name, text", [
        ("run.json", '{"format": "xml"}'),
        ("run.cfg", "epochs=abc\n"),
        ("run.json", '{"epochs": 1.7}'),
        ("run.json", '{"mode": "bogus"}'),
        ("run.json", '{"comm_snr_db": NaN}'),
        ("run.cfg", "sensing_snr_db=inf\n"),
        ("run.json", '{"comm_snr_db": 1' + "0" * 400 + "}"),
        ("run.json", '{"epochs": true}'),
        ("run.json", '{"points": [4, 8]}'),
        ("run.cfg", "epoch=1\n"),
        ("run.cfg", "config=other.cfg\n"),
        ("run.cfg", "output_size=1\nmode=sensing-only\n"),
    ], ids=["format-xml", "epochs-abc", "epochs-float", "mode-bogus",
            "comm-snr-nan", "sensing-snr-inf", "comm-snr-huge-int",
            "epochs-true", "points-list", "prefix-key", "config-key",
            "size-1-sensing-only"])
    def test_bad_value_fails_before_load(self, name, text, fake_cifar_dir,
                                         tmp_path, capsys, corpus_loads):
        cfg = tmp_path / name
        cfg.write_text(text)
        out = tmp_path / "out"
        code = exit_code(["train", "--data-dir", str(fake_cifar_dir),
                          "--config", str(cfg), "--out", str(out),
                          "--limit-train", "256", "--limit-test", "128"])
        assert code == 2
        assert_one_error_line(capsys)
        assert corpus_loads == []
        assert not out.exists()

    def test_unknown_config_key(self, fake_cifar_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble=1\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--data-dir", str(fake_cifar_dir),
                     "--config", str(cfg)])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_sweep_output_size_smoke(self, fake_cifar_dir, tmp_path):
        code = run_cli(["sweep-output-size", "--data-dir", str(fake_cifar_dir),
                        "--points", "4,6", "--epochs", "1",
                        "--limit-train", "192", "--limit-test", "96",
                        "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        sweep = json.loads((tmp_path / "sweep_size.json").read_text())
        assert sweep["points"] == [4, 6]
        csv_lines = (tmp_path / "sweep_size.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3  # header + one row per point

    def test_bad_points_value(self, fake_cifar_dir, tmp_path, capsys):
        code = run_cli(["sweep-comm-snr", "--data-dir", str(fake_cifar_dir),
                        "--points", "a,b", "--out", str(tmp_path)])
        assert code == 2

    def test_empty_points_list(self, fake_cifar_dir, tmp_path, capsys,
                               corpus_loads):
        code = exit_code(["sweep-output-size", "--data-dir", str(fake_cifar_dir),
                          "--points", ",", "--out", str(tmp_path / "out")])
        assert code == 2
        assert_one_error_line(capsys)
        assert corpus_loads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, points", [
        ("sweep-output-size", "0"),
        ("sweep-output-size", "4,-2"),
        ("sweep-comm-snr", "nan"),
        ("sweep-sensing-snr", "-inf"),
        ("sweep-output-size", "4,1"),
    ], ids=["size-0", "size-negative", "comm-snr-nan", "sensing-snr-inf",
            "size-1"])
    def test_bad_point_fails_before_load(self, command, points, fake_cifar_dir,
                                         tmp_path, capsys, corpus_loads):
        """Every training's config is built and checked before the corpus
        loads; size 1 is too small for the sensing-only decoder alone."""
        out = tmp_path / "out"
        code = exit_code([command, "--data-dir", str(fake_cifar_dir),
                          f"--points={points}",
                          "--out", str(out)] + SMOKE)
        assert code == 2
        assert_one_error_line(capsys)
        assert corpus_loads == []
        assert not out.exists()

    def test_format_flag_rejected(self):
        # a sweep always writes both .json and .csv
        with pytest.raises(SystemExit) as exc:
            parse_args(["sweep-output-size", "--format", "csv"])
        assert exc.value.code == 2


@pytest.fixture
def poisoned_encoder(monkeypatch):
    """Every image encoder built, here or in a forked worker, starts with
    a NaN conv1 weight."""
    real = models.build_image_encoder

    def poisoned(*args, **kwargs):
        encoder = real(*args, **kwargs)
        encoder.layers[0].w.value[0, 0, 0, 0] = np.nan
        return encoder

    monkeypatch.setattr(models, "build_image_encoder", poisoned)


class TestLimitsAndDivergence:
    @pytest.mark.parametrize("flag, value", [("--limit-test", "0"),
                                             ("--limit-train", "-5")])
    def test_nonpositive_limit_exits_2(self, flag, value, fake_cifar_dir,
                                       tmp_path, corpus_loads):
        out = tmp_path / "out"
        argv = ["train", "--data-dir", str(fake_cifar_dir), "--out", str(out),
                "--output-size", "4", "--epochs", "1",
                "--limit-train", "256", "--limit-test", "128"]
        assert exit_code(argv + [flag, value]) == 2
        assert corpus_loads == []
        assert not out.exists()

    def test_divergence_exits_1_with_one_line(self, fake_cifar_dir, tmp_path,
                                              capsys, monkeypatch):
        monkeypatch.setattr(models, "cross_entropy",
                            lambda probs, labels: float("nan"))
        code = exit_code(["train", "--data-dir", str(fake_cifar_dir),
                          "--out", str(tmp_path)] + SMOKE)
        assert code == 1
        assert_one_error_line(capsys)

    def test_nan_weight_exits_1_with_one_line(self, fake_cifar_dir, tmp_path,
                                              capsys, poisoned_encoder):
        """A NaN conv1 weight must stop training, not be cleared by a ReLU
        and leave a dead encoder behind."""
        code = exit_code(["train", "--data-dir", str(fake_cifar_dir),
                          "--out", str(tmp_path)] + SMOKE)
        assert code == 1
        assert_one_error_line(capsys)

    def test_nan_weight_in_sweep_exits_1_with_one_line(
            self, fake_cifar_dir, tmp_path, capsys, poisoned_encoder):
        """The error of a training in a pool worker reaches the CLI."""
        code = exit_code(["sweep-output-size", "--data-dir", str(fake_cifar_dir),
                          "--points", "4,6", "--out", str(tmp_path)] + SMOKE)
        assert code == 1
        assert_one_error_line(capsys)

    def test_killed_sweep_worker_exits_1_with_one_line(self, fake_cifar_dir,
                                                       tmp_path):
        """A worker killed by a signal loses its training; the sweep must
        fail within seconds instead of waiting for it forever. The timeout
        turns such a wait into a failure."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", KILL_JOINT_TRAININGS, "sweep-output-size",
             "--data-dir", str(fake_cifar_dir), "--points", "4",
             "--out", str(tmp_path)] + SMOKE,
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 1
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not (tmp_path / "sweep_size.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--comm-snr-db", "nan"],
        ["--comm-snr-db", "inf"],
        ["--sensing-snr-db=-inf"],
        ["--offset-db", "nan"],
    ], ids=["comm-nan", "comm-inf", "sensing-minus-inf", "offset-nan"])
    def test_nonfinite_snr_exits_2(self, argv, fake_cifar_dir, tmp_path,
                                   capsys, corpus_loads):
        """A NaN SNR or offset would diverge at step 0 and an infinite one
        train without noise; both fail before the corpus loads."""
        out = tmp_path / "out"
        code = exit_code(["train", "--data-dir", str(fake_cifar_dir),
                          "--out", str(out)] + SMOKE + argv)
        assert code == 2
        assert_one_error_line(capsys)
        assert corpus_loads == []
        assert not out.exists()


# Runs the CLI with every sweep training in joint mode SIGKILLed in its
# worker as it starts, as the OOM killer would.
KILL_JOINT_TRAININGS = """
import os, signal, sys
from sensecomm import cli, harness

real = harness.run_experiment

def run_experiment(cfg, dataset, log_fn=None):
    if cfg.mode == "joint":
        os.kill(os.getpid(), signal.SIGKILL)
    return real(cfg, dataset, log_fn)

harness.run_experiment = run_experiment
sys.exit(cli.main(sys.argv[1:]))
"""


def other_value(f):
    """A legal value of an ExperimentConfig field other than its default."""
    choices = f.metadata["choices"]
    if choices:
        return next(c for c in choices if c != f.default)
    return f.default + 1


class TestConfigDrift:
    """Every ExperimentConfig field is reachable by flag and by config-file
    key, lands in the parsed config unchanged, and a flag beats the file."""

    @pytest.mark.parametrize("f", fields(ExperimentConfig), ids=lambda f: f.name)
    def test_flag_and_file_key_set_the_field(self, f, tmp_path):
        flag = f.metadata["flag"]
        key = flag[2:].replace("-", "_")
        value = other_value(f)
        expected = replace(ExperimentConfig(), **{f.name: value})
        base = ["train", "--data-dir", str(tmp_path)]

        assert parse_args(base + [flag, str(value)]).cfg == expected
        files = {"run.json": json.dumps({key: value}),
                 "run.cfg": f"{key}={value}\n"}
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            assert parse_args(base + ["--config", str(path)]).cfg == expected
            flagged = parse_args(base + ["--config", str(path),
                                         flag, str(f.default)])
            assert flagged.cfg == ExperimentConfig()
