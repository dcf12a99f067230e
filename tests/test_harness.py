import gc
import json
import math
import os
import sys
import threading
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import bounded
from sensecomm import harness, models
from sensecomm.dataset import (
    TEST_FILE,
    TRAIN_FILES,
    Dataset,
    load_cifar10,
)
from sensecomm.errors import ConfigError
from sensecomm.harness import (
    SWEEPS,
    ExperimentConfig,
    Metrics,
    SweepResult,
    confusion_matrix,
    emit_report,
    evaluate,
    metrics_from_predictions,
    run_experiment,
    run_sweep,
    summary_line,
    sweep_csv,
    to_json,
)


class TestMetrics:
    def test_hand_computed_confusion(self):
        true2 = np.array([0, 0, 0, 1, 1, 1, 1, 0])
        pred2 = np.array([0, 1, 0, 1, 0, 1, 1, 0])
        m = metrics_from_predictions(true2, pred2, 20)
        assert m.confusion == [[3, 1], [1, 3]]
        assert m.accuracy == pytest.approx(6 / 8)
        assert m.misdetection_rate == pytest.approx(1 / 4)   # FN over true vehicles
        assert m.false_alarm_rate == pytest.approx(1 / 4)    # FP over true animals
        assert sum(sum(row) for row in m.confusion) == 8

    def test_confusion_order_rows_true_cols_pred(self):
        # one true vehicle predicted animal lands in row 1, col 0
        m = confusion_matrix(np.array([1]), np.array([0]))
        assert m == [[0, 0], [1, 0]]

    def test_compression_rate_default_point(self):
        m = metrics_from_predictions(np.array([0, 1]), np.array([0, 1]), 20)
        assert f"{m.compression_rate_pct:.2f}" == "0.65"

    def test_round_trip_through_dict(self):
        m = metrics_from_predictions(np.array([0, 1, 1]), np.array([0, 1, 0]), 8)
        again = Metrics(**json.loads(json.dumps(asdict(m))))
        assert again == m

    def test_summary_line_format(self):
        m = Metrics(accuracy=0.97, confusion=[[1, 0], [0, 1]],
                    misdetection_rate=0.0, false_alarm_rate=0.0,
                    compression_rate_pct=100 * 20 / 3072)
        line = summary_line(asdict(m), 12.3)
        assert "accuracy=0.9700" in line
        assert "compression=0.65%" in line


def tiny_experiment(mode="joint", seed=4):
    return ExperimentConfig(channel_kind="awgn", n_c=4, epochs=1,
                            batch_size=64, seed=seed, eval_seed=91, mode=mode)


@pytest.fixture(scope="module")
def micro_corpus(synthetic_corpus):
    return synthetic_corpus(256, 128, seed=60)


class TestRunExperiment:
    def test_confusion_covers_test_set(self, micro_corpus):
        pipeline, result = run_experiment(tiny_experiment(), micro_corpus)
        conf = result["metrics"]["confusion"]
        assert sum(sum(row) for row in conf) == micro_corpus.test.n
        assert result["seeds"] == {"train": 4, "eval": 91}
        assert len(result["history"]) == 1

    def test_evaluate_matches_metrics_in_result(self, micro_corpus):
        pipeline, result = run_experiment(tiny_experiment(), micro_corpus)
        again = evaluate(pipeline, micro_corpus.test, tiny_experiment())
        assert asdict(again) == result["metrics"]

    def test_test_split_predicted_once_per_epoch(self, micro_corpus,
                                                 monkeypatch):
        """The metrics reuse the last epoch's predictions instead of
        predicting the test split once more."""
        calls = []
        real = models.predict_split

        def counted(*args):
            calls.append(args[1].n)
            return real(*args)

        monkeypatch.setattr(models, "predict_split", counted)
        monkeypatch.setattr(harness, "predict_split", counted)
        run_experiment(replace(tiny_experiment(), epochs=3), micro_corpus)
        assert calls == [micro_corpus.test.n] * 3

    def test_rerun_is_byte_identical(self, micro_corpus):
        _, a = run_experiment(tiny_experiment(), micro_corpus)
        _, b = run_experiment(tiny_experiment(), micro_corpus)
        assert to_json(a) == to_json(b)


class TestRunSweep:
    def test_configs_cover_every_training(self):
        """One config per point and mode, in the order the trainings run."""
        configs = SWEEPS["output_size"].configs(tiny_experiment(), [4, 6])
        assert [(c.n_c, c.mode) for c in configs] == [
            (4, "joint"), (4, "sensing_only"), (6, "joint"), (6, "sensing_only")]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_pool_matches_serial_loop(self, cpus, micro_corpus, monkeypatch):
        """Bytes and log order equal a serial loop's, whatever the number
        of workers."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg, points = tiny_experiment(), [4, 6, 8]
        logged, threads = [], threading.active_count()
        sweep = run_sweep("output_size", points, cfg, micro_corpus,
                          log_fn=logged.append)
        # the pool's threads are gone, so the next sweep forks none
        assert threading.active_count() == threads

        serial, serial_log = SweepResult("n_c", points, asdict(cfg)), []
        for value in points:
            point = {"value": value}
            for mode in ("joint", "sensing_only"):
                serial_log.append(f"[n_c={value}] training {mode}")
                _, result = run_experiment(replace(cfg, n_c=value, mode=mode),
                                           micro_corpus, log_fn=serial_log.append)
                point[mode] = {"metrics": result["metrics"],
                               "history": result["history"]}
            serial.joint_accuracy.append(point["joint"]["metrics"]["accuracy"])
            serial.sensing_accuracy.append(
                point["sensing_only"]["metrics"]["accuracy"])
            serial.per_point.append(point)

        assert to_json(sweep) == to_json(serial)
        assert sweep_csv(sweep) == sweep_csv(serial)
        assert logged == serial_log

    def test_worker_holds_no_finished_pipeline(self, micro_corpus, monkeypatch):
        """A sweep thread keeps no finished training's pipeline, with its
        cached eval activations, while it runs its next training."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        real, finished = harness.run_experiment, []

        def tracked(cfg, dataset, log_fn=None):
            gc.collect()
            alive = bool(finished) and finished[-1]() is not None
            log_fn(f"previous pipeline alive: {alive}")
            pipeline, result = real(cfg, dataset, log_fn)
            finished.append(weakref.ref(pipeline))
            return pipeline, result

        monkeypatch.setattr(harness, "run_experiment", tracked)
        logged = []
        run_sweep("output_size", [4, 6], tiny_experiment(), micro_corpus,
                  log_fn=logged.append)
        assert [line for line in logged if line.startswith("previous")] == [
            "previous pipeline alive: False"] * 4

    def test_workers_read_only_their_batches(self, fake_cifar_dir,
                                             pixel_reads, monkeypatch):
        """A sweep over loaded splits starts no process. Each training
        thread, the calling one among them, reads the records of its own
        batches: every kept training record once per epoch and every kept
        test record once per evaluation, the same number of times each,
        and no other."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        ds = load_cifar10(fake_cifar_dir)
        run_sweep("output_size", [4], tiny_experiment(),
                  Dataset(ds.train.subset(256), ds.test.subset(128)))
        pids, per_thread = set(), {}
        for pid, thread, name, first, count in pixel_reads():
            pids.add(pid)
            records = per_thread.setdefault(thread, {}).setdefault(name, [])
            records.extend(range(first, first + count))
        assert pids == {os.getpid()}
        assert per_thread
        for records in per_thread.values():
            assert records.keys() == {TRAIN_FILES[0], TEST_FILE}
            for name, kept in ((TRAIN_FILES[0], 256), (TEST_FILE, 128)):
                times = np.bincount(records[name])
                assert len(times) == kept and times.min() == times.max(), name

    def test_workers_evaluate_serially(self, synthetic_corpus, monkeypatch):
        """A sweep thread's siblings hold the other CPUs, so it runs its
        evaluations' batches on its own thread: no training, the calling
        thread's included, starts a thread."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real_train, real_start = harness.run_experiment, threading.Thread.start
        training = threading.local()

        def tracked(cfg, dataset, log_fn=None):
            training.on = True
            try:
                return real_train(cfg, dataset, log_fn)
            finally:
                training.on = False

        def start(thread):
            if getattr(training, "on", False):
                raise AssertionError("a sweep training started a thread")
            real_start(thread)

        monkeypatch.setattr(harness, "run_experiment", tracked)
        monkeypatch.setattr(threading.Thread, "start", start)
        # three eval batches: outside a sweep they would run on two threads
        corpus = synthetic_corpus(64, 600, seed=61)
        sweep = run_sweep("output_size", [4], tiny_experiment(), corpus)
        assert len(sweep.per_point) == 1

    def test_threads_run_each_training_once_in_order(self, monkeypatch):
        """More threads than cores, switching as often as the interpreter
        allows, run every task exactly once, and the results come back in
        task order."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        ran = []

        def task(seed):
            ran.append(seed)
            return {"seed": seed}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = bounded(
                lambda: list(models.in_threads(task, list(range(300)))))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(300))
        assert results == [{"seed": i} for i in range(300)]

    def test_sweep_starts_no_process(self, micro_corpus, monkeypatch):
        """The trainings run on threads of the sweep's own process."""
        def no_fork():
            raise AssertionError("the sweep forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", no_fork)
        sweep = run_sweep("output_size", [4, 6], tiny_experiment(), micro_corpus)
        assert len(sweep.per_point) == 2


class TestReports:
    def stub_sweep(self):
        return SweepResult(
            param_name="comm_snr_db", points=[0.0, 3.0],
            joint_accuracy=[0.91, 0.97], sensing_accuracy=[0.80, 0.88],
            config=asdict(tiny_experiment()),
            per_point=[{"value": 0.0}, {"value": 3.0}])

    def test_sweep_csv_layout(self):
        text = sweep_csv(self.stub_sweep())
        lines = text.strip().split("\n")
        assert lines[0] == "param,joint_acc,sensing_acc,seed"
        assert len(lines) == 3
        assert lines[1:] == ["0.0,0.91,0.8,4", "3.0,0.97,0.88,4"]

    def test_json_is_deterministic_and_sorted(self, tmp_path):
        sweep = self.stub_sweep()
        for name in ("a", "b"):
            emit_report(sweep, tmp_path / f"{name}.json", tmp_path / f"{name}.csv")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        payload = json.loads((tmp_path / "a.json").read_text())
        assert payload["points"] == [0.0, 3.0]

    def test_csv_report_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_report(self.stub_sweep(), tmp_path / "sweep.json", path)
        assert path.read_text() == sweep_csv(self.stub_sweep())
        assert path.read_text().count("\n") == 3

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_write_keeps_the_old_report(self, tmp_path, fmt,
                                               fail_writes_midway):
        """A report write that fails midway leaves the earlier report's
        bytes and no temporary file. The JSON is written first, so for
        ``csv`` the JSON write goes through and the CSV write fails."""
        paths = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        path = tmp_path / f"sweep.{fmt}"
        emit_report(self.stub_sweep(), *paths)
        before = path.read_bytes()
        fail_writes_midway(intact=["json", "csv"].index(fmt))
        with pytest.raises(OSError, match="No space"):
            emit_report(replace(self.stub_sweep(),
                                config=asdict(tiny_experiment(seed=5))), *paths)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["sweep.csv", "sweep.json"]

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            emit_report(self.stub_sweep(), tmp_path / "no_dir" / "x.json",
                        tmp_path / "no_dir" / "x.csv")

    def test_experiment_csv_has_metric_columns(self, tmp_path, micro_corpus):
        _, result = run_experiment(tiny_experiment(), micro_corpus)
        path = tmp_path / "metrics.csv"
        emit_report(result, tmp_path / "metrics.json", path)
        header = path.read_text().splitlines()[0]
        assert "accuracy" in header and "misdetection_rate" in header


class TestExperimentConfig:
    def test_reference_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.channel_kind == "awgn"
        assert cfg.comm_snr_db == 3.0
        assert cfg.vehicle_sensing_snr_db == -3.0
        assert cfg.animal_offset_db == 6.0
        assert cfg.n_c == 20
        assert cfg.epochs == 5
        assert cfg.batch_size == 64

    def test_derived_configs(self):
        cfg = ExperimentConfig(mode="sensing_only")
        assert cfg.channel().snr_db == 3.0
        assert cfg.sensing().vehicle_snr_db == -3.0
        assert cfg.model().decoder_in == 20
        assert replace(cfg, mode="joint").model().decoder_in == 40
        assert cfg.np_dtype is np.float32

    @pytest.mark.parametrize("bad", [
        {"channel_kind": "foo"}, {"mode": "both"}, {"dtype": "float16"},
        {"n_c": 0}, {"epochs": 0}, {"batch_size": 0},
        {"comm_snr_db": math.nan}, {"vehicle_sensing_snr_db": -math.inf},
        {"animal_offset_db": math.inf},
        # noise scales of 0, of infinity for animals, and beyond float32
        pytest.param({"comm_snr_db": 7000.0}, id="comm-noise-scale-0"),
        pytest.param({"animal_offset_db": 1e6}, id="animal-noise-scale-inf"),
        pytest.param({"vehicle_sensing_snr_db": -800.0},
                     id="vehicle-noise-scale-beyond-float32"),
    ], ids=lambda bad: next(iter(bad)))
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)
