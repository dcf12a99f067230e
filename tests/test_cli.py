import json
import os
import shlex
import signal
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import link_corpus
from sensecomm import cli, models
from sensecomm.cli import main, parse_args
from sensecomm.dataset import RECORD_BYTES, TEST_FILE
from sensecomm.models import (
    ExperimentConfig,
    ModelConfig,
    Pipeline,
    load_checkpoint,
    save_checkpoint,
)
from sensecomm.rng import Rng
from test_models import (
    checkpoint_bytes,
    rewrite_checkpoint,
    save_beyond_float32,
    save_non_finite,
)


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


def with_model(model: bytes) -> bytes:
    """A checkpoint with an intact checksum and no payload whose header
    holds every key, its model entry being the JSON ``model``."""
    return checkpoint_bytes(b'{"dtype": "<f4", "model": %s, "tensors": []}' % model)


def saved_with_model(size: int, **model):
    """A writer of a saved joint ``size``-symbol checkpoint whose header's
    model entry is updated with ``model``."""
    def write(path):
        save_checkpoint(Pipeline(ModelConfig(size, "joint"), Rng(0)), path)
        rewrite_checkpoint(path, lambda header: header["model"].update(model))
    return write


def saved_with_header(**entries):
    """A writer of a saved joint 4-symbol checkpoint whose header is
    updated with ``entries``."""
    def write(path):
        save_checkpoint(Pipeline(ModelConfig(4, "joint"), Rng(0)), path)
        rewrite_checkpoint(path, lambda header: header.update(entries))
    return write


def assert_one_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


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


    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("command", ["train", "eval", "sweep-comm-snr",
                                         "sweep-sensing-snr", "sweep-output-size"])
    def test_format_flag_rejected(self, command, given, fake_cifar_dir,
                                  tmp_path, capsys, corpus_loads):
        """Every command writes both report formats, so none takes
        ``--format``, by flag or by config key."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\n")
        out = tmp_path / "out"
        argv = [command, "--data-dir", str(fake_cifar_dir), "--out", str(out),
                *{"flag": ["--format", "json"], "config": ["--config", str(cfg)]}[given]]
        assert exit_code(argv) == 2
        assert "--format" in assert_one_error_line(capsys)
        assert corpus_loads == []
        assert not out.exists()


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


def out_argv(command, data_dir, run, out):
    """A smoke run of ``command`` into ``out``; eval reads ``run``'s
    checkpoint."""
    argv = [command, "--data-dir", str(data_dir), "--out", str(out)]
    if command == "eval":
        argv += ["--checkpoint", str(run / "checkpoint.bin")]
    if command == "sweep-output-size":
        argv += ["--points", "2"]
    return argv + SMOKE


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

    def test_eval_reads_no_training_pixel(self, train_run, fake_cifar_dir,
                                          tmp_path, pixel_reads):
        _, out = train_run
        code = run_cli(["eval", "--data-dir", str(fake_cifar_dir),
                        "--checkpoint", str(out / "checkpoint.bin"),
                        "--out", str(tmp_path)] + SMOKE)
        assert code == 0
        # --limit-test 128: one batch, one read
        assert [read[2:] for read in pixel_reads()] == [(TEST_FILE, 0, 128)]

    @pytest.mark.parametrize("command, damage", [
        pytest.param(command, damage,
                     id=command if damage == "vanish" else f"{command}-{damage}")
        for damage in ("vanish", "shrink")
        for command in ("train", "eval", "sweep-output-size")])
    def test_deferred_read_error_exits_2_with_one_line(
            self, command, damage, train_run, fake_cifar_dir, tmp_path,
            capsys, monkeypatch):
        """A batch file that vanishes, or shrinks to 100 records, after
        the corpus loads fails the command at the first batch that reads
        it, its first evaluation: in the command's own process for
        ``train`` and ``eval`` (no --limit-test), on a training thread for
        a sweep."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        link_corpus(fake_cifar_dir, corpus)
        real = cli.load_cifar10

        def load_then_remove(path):
            dataset = real(path)
            (corpus / TEST_FILE).unlink()
            if damage == "shrink":
                blob = (fake_cifar_dir / TEST_FILE).read_bytes()
                (corpus / TEST_FILE).write_bytes(blob[:100 * RECORD_BYTES])
            return dataset

        monkeypatch.setattr(cli, "load_cifar10", load_then_remove)
        argv = {"train": ["train"] + SMOKE,
                "eval": ["eval", "--checkpoint",
                         str(train_run[1] / "checkpoint.bin")],
                "sweep-output-size": ["sweep-output-size", "--points", "2"]
                + SMOKE}[command]
        code = exit_code(argv + ["--data-dir", str(corpus),
                                 "--out", str(tmp_path / "out")])
        assert code == 2
        assert {"vanish": "No such file", "shrink": "truncated since it was loaded"
                }[damage] in assert_one_error_line(capsys)
        assert not (tmp_path / "out" / "metrics.json").exists()

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

    # Cases whose ids name n_c1/n_c2 (SCM1's two size keys) set SCM2's one
    # n_c; "unequal-sizes" holds SCM1's pair, which lacks n_c.
    @pytest.mark.parametrize("content, error", [
        (b"SCM2\x00", "malformed checkpoint header"),
        (checkpoint_bytes(b"\xff\xfe"), "malformed checkpoint header"),
        (checkpoint_bytes(b'{"seed": null}'), "malformed checkpoint header"),
        (None, "cannot read checkpoint"),
        (with_model(b'{"n_c": 4.0, "mode": "joint"}'), "got 4.0"),
        (with_model(b'{"n_c1": 4, "n_c2": 6, "mode": "joint"}'),
         "malformed checkpoint header (KeyError: 'n_c')"),
        (with_model(b'{"n_c": true, "mode": "joint"}'), "got True"),
        (with_model(b'{"n_c": 1000000000, "mode": "joint"}'), "got 1000000000"),
        (with_model(b'{"n_c": 3072, "mode": "joint"}'),
         "the header lists 0 tensors, the model it names has 22"),
        (saved_with_model(1, n_c=True), "got True"),
        (saved_with_model(4, n_c=4.0), "got 4.0"),
        (saved_with_header(dtype="<f2"), "unknown tensor dtype '<f2'"),
        (save_non_finite, "1601 stored values are NaN or infinite"),
        (save_beyond_float32, "1 stored values are NaN or infinite as float32"),
    ], ids=["five-bytes", "non-utf8-header", "no-model-key", "missing-file",
            "float-n_c1", "unequal-sizes", "bool-sizes", "huge-sizes",
            "largest-model-no-tensors",
            "bool-n_c2", "float-n_c2", "dtype-f2", "non-finite-values",
            "beyond-float32"])
    def test_bad_checkpoint_fails_before_load(self, content, error, fake_cifar_dir,
                                              tmp_path, capsys, corpus_loads):
        ckpt = tmp_path / "checkpoint.bin"
        if callable(content):
            content(ckpt)
        elif content is not None:
            ckpt.write_bytes(content)
        out = tmp_path / "out"
        # no --output-size: the checkpoint alone must be refused, not its
        # size's disagreement with a flag
        code = exit_code(["eval", "--data-dir", str(fake_cifar_dir),
                          "--checkpoint", str(ckpt), "--out", str(out)]
                         + SMOKE[2:])
        assert code == 2
        assert error in assert_one_error_line(capsys)
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
    def test_out_naming_a_file_creates_nothing(self, command, below, train_run,
                                                 fake_cifar_dir, tmp_path,
                                                 capsys, corpus_loads):
        _, run = train_run
        out = tmp_path / "out"
        out.write_text("kept\n")
        assert exit_code(out_argv(command, fake_cifar_dir, run, out / below)) == 2
        assert_one_error_line(capsys)
        assert corpus_loads == [str(fake_cifar_dir)]
        assert out.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("parent", ["", "missing"],
                             ids=["leaf", "missing-parent"])
    @pytest.mark.parametrize("command", ["train", "eval", "sweep-output-size"])
    def test_out_name_too_long_creates_nothing(self, command, parent, train_run,
                                               fake_cifar_dir, tmp_path,
                                               capsys, corpus_loads):
        """An ``--out`` whose leaf name is too long, below an existing
        directory or below a missing one, which makedirs makes before the
        leaf fails."""
        _, run = train_run
        out = tmp_path / parent / ("x" * 300)
        assert exit_code(out_argv(command, fake_cifar_dir, run, out)) == 2
        assert_one_error_line(capsys)
        assert corpus_loads == [str(fake_cifar_dir)]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["train", "eval", "sweep-output-size"])
    def test_unwritable_out_creates_nothing(self, command, train_run,
                                              fake_cifar_dir, tmp_path, capsys,
                                              corpus_loads, monkeypatch):
        """An existing ``--out`` that cannot be written to. Root may write
        to a 0555 directory, so ``os.access`` is made to say it may not."""
        _, run = train_run
        out = tmp_path / "out"
        out.mkdir()
        real = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: (
            os.path.abspath(path) != str(out) and real(path, mode)))
        assert exit_code(out_argv(command, fake_cifar_dir, run, out)) == 2
        assert_one_error_line(capsys)
        assert corpus_loads == [str(fake_cifar_dir)]
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["train", "eval", "sweep-output-size"])
    def test_missing_corpus_file_leaves_no_out(self, command, train_run,
                                               fake_cifar_dir, tmp_path, capsys,
                                               corpus_loads):
        """The corpus loads, checking its six files, before ``--out`` is
        made, so a corpus without its test file leaves nothing behind."""
        _, run = train_run
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        link_corpus(fake_cifar_dir, corpus)
        (corpus / TEST_FILE).unlink()
        out = tmp_path / "out"
        assert exit_code(out_argv(command, corpus, run, out)) == 2
        assert not out.exists()
        assert_one_error_line(capsys)
        assert corpus_loads == [str(corpus)]

    @pytest.mark.parametrize("command", ["train", "eval", "sweep-output-size"])
    def test_bad_label_byte_leaves_no_out(self, command, train_run,
                                          fake_cifar_dir, tmp_path, capsys):
        """A corpus of the right file sizes is found corrupt only as its
        labels are read, which is before ``--out`` is made, so none of
        ``--out``'s directories is created."""
        _, run = train_run
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        link_corpus(fake_cifar_dir, corpus)
        blob = bytearray((corpus / TEST_FILE).read_bytes())
        blob[0] = 11
        (corpus / TEST_FILE).unlink()
        (corpus / TEST_FILE).write_bytes(bytes(blob))
        out = tmp_path / "missing" / "out"
        assert exit_code(out_argv(command, corpus, run, out)) == 2
        assert_one_error_line(capsys)
        assert not out.exists() and not out.parent.exists()
        assert os.listdir(tmp_path) == ["corpus"]

    @pytest.mark.parametrize("command, name", [
        ("train", "checkpoint.bin"), ("train", "metrics.csv"),
        ("eval", "metrics.json"), ("sweep-output-size", "sweep_size.csv")])
    def test_output_file_that_is_a_directory_creates_nothing(
            self, command, name, train_run, fake_cifar_dir, tmp_path, capsys,
            corpus_loads):
        _, run = train_run
        (tmp_path / name).mkdir()
        assert exit_code(out_argv(command, fake_cifar_dir, run, tmp_path)) == 2
        assert_one_error_line(capsys)
        assert corpus_loads == [str(fake_cifar_dir)]
        assert os.listdir(tmp_path) == [name]
        assert os.listdir(tmp_path / name) == []

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
    back the named output files. The timeout turns a hang, such as threads
    that wait on each other, into a failure."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
    subprocess.run([sys.executable, "-m", "sensecomm", *argv, "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)
    return [(out / name).read_bytes() for name in names]


PIN_ONE_CPU = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from sensecomm import cli
sys.exit(cli.main(sys.argv[1:]))
"""


class TestThreadCount:
    def test_eval_cpu_count_leaves_metrics_byte_identical(
            self, train_run, fake_cifar_dir, tmp_path):
        """Pinned to one CPU, eval runs its four batches on one thread;
        unpinned, on one thread per CPU. The report is the same."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        argv = ["eval", "--data-dir", str(fake_cifar_dir), "--checkpoint",
                str(train_run[1] / "checkpoint.bin"), "--limit-test", "1000"]
        reports = []
        for name, launch in (("pinned", ["-c", PIN_ONE_CPU]),
                             ("unpinned", ["-m", "sensecomm"])):
            subprocess.run([sys.executable, *launch, *argv,
                            "--out", str(tmp_path / name)],
                           env=dict(os.environ, PYTHONPATH=src), check=True,
                           capture_output=True, timeout=300)
            reports.append((tmp_path / name / "metrics.json").read_bytes())
        assert reports[0] == reports[1]

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
        ("run.json", '{"channel": "xml"}'),
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
        ("run.cfg", "seed=-1\n"),
        ("run.json", '{"eval_seed": -1}'),
        ("run.json", '{"output_size": 100000000}'),
        ("run.cfg", "output_size=3073\n"),
    ], ids=["channel-xml", "epochs-abc", "epochs-float", "mode-bogus",
            "comm-snr-nan", "sensing-snr-inf", "comm-snr-huge-int",
            "epochs-true", "points-list", "prefix-key", "config-key",
            "size-1-sensing-only", "seed-negative", "eval-seed-negative",
            "size-1e8", "size-above-source"])
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

    @pytest.mark.parametrize("form", ["json", "key-value"])
    @pytest.mark.parametrize("command, key", [
        ("train", "out"), ("eval", "checkpoint")])
    def test_nul_byte_value_fails_before_load(self, command, key, form,
                                              fake_cifar_dir, tmp_path,
                                              monkeypatch, capsys,
                                              corpus_loads):
        """No path can hold a NUL byte, and no command-line argument can,
        so a config value holding one is refused by its key before the
        corpus loads, and nothing is made."""
        cfg = tmp_path / "run.cfg"
        value = "bad\0path"
        cfg.write_text(json.dumps({key: value}) if form == "json"
                       else f"{key}={value}\n")
        monkeypatch.chdir(tmp_path)
        argv = [command, "--data-dir", str(fake_cifar_dir), "--config",
                str(cfg)] + (["--out", "out"] if key != "out" else [])
        code = exit_code(argv)
        assert code == 2
        assert repr(key) in assert_one_error_line(capsys)
        assert corpus_loads == []
        assert os.listdir(tmp_path) == ["run.cfg"]

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
        # the seed is stated once, in the base config the points move
        assert sweep["config"]["seed"] == 5 and "seeds" not in sweep
        assert [sorted(p) for p in sweep["per_point"]] == [
            ["joint", "sensing_only", "value"]] * 2
        csv_lines = (tmp_path / "sweep_size.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3  # header + one row per point
        assert [line.rsplit(",", 1)[1] for line in csv_lines[1:]] == ["5", "5"]

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


@pytest.fixture
def poisoned_encoder(monkeypatch):
    """Every pipeline built, on any thread, starts with a NaN image-encoder
    conv1 weight."""
    real = models.param_buffers

    def poisoned(shapes, *args):
        values, grads, params = real(shapes, *args)
        assert params[0].name == "image_encoder.conv1.w"
        params[0].value[0, 0, 0, 0] = np.nan
        return values, grads, params

    monkeypatch.setattr(models, "param_buffers", poisoned)


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

    def test_non_finite_eval_output_exits_1(self, train_run, fake_cifar_dir,
                                            tmp_path):
        """Image-encoder dense2 weights of 3e38, finite in float32, overflow
        its products to infinity, which the power normalization turns into
        NaN: eval turns the NaN probabilities into no label and no report.
        It runs in a process of its own, as numpy's warnings, which come
        first on stderr, are errors under pytest."""
        pipe, _ = load_checkpoint(train_run[1] / "checkpoint.bin")
        {p.name: p for p in pipe.params()}["image_encoder.dense2.w"].value[...] = 3e38
        ckpt = tmp_path / "checkpoint.bin"
        save_checkpoint(pipe, ckpt)
        out = tmp_path / "out"
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "sensecomm", "eval", "--data-dir",
             str(fake_cifar_dir), "--checkpoint", str(ckpt),
             "--out", str(out)] + SMOKE,
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 1
        last = done.stderr.strip().splitlines()[-1]
        assert last.startswith("error: non-finite output probabilities"), last
        assert not (out / "metrics.json").exists()

    def test_nan_weight_in_sweep_exits_1_with_one_line(
            self, fake_cifar_dir, tmp_path, capsys, poisoned_encoder):
        """The error of a training on a sweep thread reaches the CLI."""
        code = exit_code(["sweep-output-size", "--data-dir", str(fake_cifar_dir),
                          "--points", "4,6", "--out", str(tmp_path)] + SMOKE)
        assert code == 1
        assert_one_error_line(capsys)

    def test_failed_sweep_training_stops_the_others(self, fake_cifar_dir,
                                                    tmp_path):
        """A training that raises ends the sweep at once: the trainings
        in flight are stopped, not waited for, and those still queued
        (ten trainings outnumber the pool's queue) are dropped without a
        traceback from the pool."""
        assert_faulty_sweep_fails(
            fake_cifar_dir, tmp_path, "4,6,8,10,12",
            joint="raise DivergenceError('injected')",
            sensing_only="time.sleep(60)")

    def test_interrupted_sweep_exits_at_once(self, fake_cifar_dir, tmp_path):
        """SIGINT, as Ctrl-C sends it, ends the sweep while its trainings
        sleep: the command does not wait for them and writes no report."""
        sleep = "time.sleep(60)"
        proc = run_faulty_sweep(
            fake_cifar_dir, tmp_path, "4",
            joint="threading.Timer(1, os.kill, (os.getpid(), signal.SIGINT))"
                  f".start(); {sleep}",
            sensing_only=sleep)
        assert proc.returncode == -signal.SIGINT, proc.stderr
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

    # Every SNR, offset, size and seed flag at the extremes of its type. An
    # SNR of +-7,000 dB (after the animals' offset) gives a noise scale
    # that underflows to 0 or overflows. --epochs is left out: a large
    # value is a long run, not bad input.
    EXTREMES = [(flag, value) for flag in ("--comm-snr-db", "--sensing-snr-db",
                                           "--offset-db")
                for value in (1e308, -1e308, 7000.0, -7000.0)] + [
        (flag, 2**63 - 1) for flag in ("--output-size", "--batch-size",
                                       "--limit-train", "--limit-test",
                                       "--seed", "--eval-seed")]

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("flag, value", EXTREMES)
    def test_extreme_value_runs_or_exits_2(self, flag, value, given, train_run,
                                          fake_cifar_dir, tmp_path, capsys,
                                          corpus_loads):
        """Each value, as a flag or as a config key, either runs or exits 2
        with one line, before the corpus loads and making nothing; it never
        fails at run time. The largest --limit-train would train on the
        whole corpus, a long run, so its case runs ``eval``, which applies
        the limit but trains nothing."""
        smoke = {"--output-size": "4", "--epochs": "1", "--limit-train": "256",
                 "--limit-test": "128", "--seed": "5"}
        smoke.pop(flag, None)  # a config key is overridden by a flag
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        out = tmp_path / "out"
        command = (["eval", "--checkpoint", str(train_run[1] / "checkpoint.bin")]
                   if flag == "--limit-train" else ["train"])
        argv = [*command, "--data-dir", str(fake_cifar_dir), "--out", str(out),
                *(f"{k}={v}" for k, v in smoke.items()),
                {"flag": f"{flag}={value}", "config": f"--config={cfg}"}[given]]
        code = exit_code(argv)
        if code == 0:
            assert (out / "metrics.json").exists()
        else:
            assert code == 2
            assert_one_error_line(capsys)
            assert corpus_loads == []
            assert not out.exists()


# Runs the CLI with one statement injected at the start of every sweep
# training on its thread, one for each mode.
FAULTY_CLI = """
import os, signal, sys, threading, time
from sensecomm import cli, harness
from sensecomm.errors import DivergenceError

real = harness.run_experiment

def run_experiment(cfg, dataset, log_fn=None):
    if cfg.mode == "joint":
        {joint}
    else:
        {sensing_only}
    return real(cfg, dataset, log_fn)

harness.run_experiment = run_experiment
sys.exit(cli.main(sys.argv[1:]))
"""


def run_faulty_sweep(data_dir, out, points, joint, sensing_only="pass"):
    """Run ``sweep-output-size`` over ``points`` with the faults injected.
    The timeout turns a sweep that waits for its trainings into a failure."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = FAULTY_CLI.format(joint=joint, sensing_only=sensing_only)
    return subprocess.run(
        [sys.executable, "-c", script, "sweep-output-size", "--data-dir",
         str(data_dir), "--points", points, "--out", str(out)] + SMOKE,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=15)


def assert_faulty_sweep_fails(data_dir, out, points, joint, sensing_only="pass"):
    """The sweep with the faults injected must exit 1 within seconds with
    one ``error:`` line and no report."""
    proc = run_faulty_sweep(data_dir, out, points, joint, sensing_only)
    assert proc.returncode == 1
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not (out / "sweep_size.json").exists()


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


def readme_commands() -> list[str]:
    """Every ``sensecomm ...`` line of the README's fenced code blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    return [line.strip() for block in text.split("```")[1::2]
            for line in block.splitlines() if line.strip().startswith("sensecomm ")]


@pytest.mark.parametrize("line", readme_commands(),
                         ids=lambda line: line.split()[1])
def test_readme_command_parses(line):
    """A flag that no command takes any more cannot stay in the README's
    examples; parsing reads no file."""
    parse_args(shlex.split(line)[1:])
