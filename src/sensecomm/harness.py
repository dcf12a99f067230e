"""Experiment orchestration: evaluation metrics, parameter sweeps, reports.

A sweep retrains a fresh joint model and a fresh sensing-only benchmark at
every grid point, evaluates both on the identical test set under the same
evaluation-seed policy, and emits JSON (full config, metrics, history,
seeds) plus CSV (one row per point) for external plotting.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import multiprocessing
import os
import signal
from contextlib import closing
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Callable

import numpy as np

from .dataset import Dataset, SOURCE_DIM, Split
from .errors import ConfigError, WorkerError
from .models import MODES, ExperimentConfig, Pipeline, predict_split, train


@dataclass
class Metrics:
    """Test-set metrics. The confusion matrix is rows=true, cols=predicted,
    ordered [animal, vehicle]; vehicle (transmitter present) is the positive
    class, so misdetection is a true vehicle predicted animal and a false
    alarm is a true animal predicted vehicle."""
    accuracy: float
    confusion: list[list[int]]
    misdetection_rate: float
    false_alarm_rate: float
    compression_rate_pct: float


def confusion_matrix(true2: np.ndarray, pred2: np.ndarray) -> list[list[int]]:
    m = np.zeros((2, 2), dtype=np.int64)
    np.add.at(m, (true2, pred2), 1)
    return m.tolist()


def metrics_from_predictions(true2: np.ndarray, pred2: np.ndarray,
                             n_c: int) -> Metrics:
    conf = confusion_matrix(true2, pred2)
    (tn, fp), (fn, tp) = conf
    total = tn + fp + fn + tp
    return Metrics(
        accuracy=float((tn + tp) / total),
        confusion=conf,
        misdetection_rate=float(fn / max(tp + fn, 1)),
        false_alarm_rate=float(fp / max(tn + fp, 1)),
        compression_rate_pct=100.0 * n_c / SOURCE_DIM,
    )


def evaluate(pipeline: Pipeline, test: Split, cfg: ExperimentConfig) -> Metrics:
    """One pass over the test split under the fixed evaluation seed."""
    preds = predict_split(pipeline, test, cfg.channel(), cfg.sensing(),
                          cfg.eval_seed)
    return metrics_from_predictions(test.label2, preds, pipeline.cfg.n_c)


def run_experiment(cfg: ExperimentConfig, dataset: Dataset, log_fn=None
                   ) -> tuple[Pipeline, dict]:
    """Train one model per ``cfg`` and package config, metrics, history and
    seeds into a JSON-ready result dict. The metrics come from the last
    epoch's test predictions, the very ones ``evaluate`` would make."""
    pipeline, history, preds = train(dataset, cfg, log_fn=log_fn)
    metrics = metrics_from_predictions(dataset.test.label2, preds, cfg.n_c)
    result = {
        "config": asdict(cfg),
        "metrics": asdict(metrics),
        "history": history,
        "seeds": {"train": cfg.seed, "eval": cfg.eval_seed},
    }
    return pipeline, result


@dataclass
class SweepResult:
    param_name: str
    points: list
    joint_accuracy: list[float] = field(default_factory=list)
    sensing_accuracy: list[float] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    per_point: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class Sweep:
    """One sweep axis: the swept parameter, its default grid, the type of a
    point, how a point moves the base config, and the report file stem."""
    param_name: str
    points: tuple
    point_type: type
    transform: Callable[[ExperimentConfig, Any], ExperimentConfig]
    stem: str

    def configs(self, cfg: ExperimentConfig, points: list) -> list[ExperimentConfig]:
        """The config of every training: each point's, moved from ``cfg``,
        once per mode in ``MODES`` order. Building a config validates it,
        so a bad point raises ``ConfigError`` here."""
        return [replace(self.transform(cfg, p), mode=mode)
                for p in points for mode in MODES]


# The default grids span the ranges the accuracy curves are reported over.
SWEEPS = {
    # the vehicle sensing SNR tracks 6 dB below the communication SNR
    # (animals a further offset lower)
    "comm_snr": Sweep(
        "comm_snr_db", (-5.0, 0.0, 5.0, 10.0), float,
        lambda cfg, p: replace(cfg, comm_snr_db=p, vehicle_sensing_snr_db=p - 6.0),
        "comm"),
    # the vehicle sensing SNR at fixed communication SNR
    "sensing_snr": Sweep(
        "vehicle_sensing_snr_db", (-9.0, -6.0, -3.0, 0.0), float,
        lambda cfg, p: replace(cfg, vehicle_sensing_snr_db=p), "sensing"),
    # both encoder output sizes together; the metrics carry the
    # compression rate per point
    "output_size": Sweep(
        "n_c", (4, 8, 16, 20), int, lambda cfg, p: replace(cfg, n_c=p), "size"),
}


_PR_SET_PDEATHSIG = 1  # from <sys/prctl.h>


def _serve(conn: Connection, dataset: Dataset, parent: int):
    """A sweep worker: train every config received on ``conn`` and send back
    the training's metrics, history and the lines it would have logged, or
    the exception it raised. The worker dies with the sweep's process: one
    outliving a killed parent would idle forever on the inherited corpus."""
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != parent:  # the parent died before prctl took effect
        os._exit(1)
    while True:
        cfg = conn.recv()
        lines: list[str] = []
        try:
            _, result = run_experiment(cfg, dataset, log_fn=lines.append)
        except Exception as exc:
            conn.send(exc)
        else:
            conn.send((result["metrics"], result["history"], lines))


def _train_in_workers(tasks: list[ExperimentConfig], dataset: Dataset):
    """Yield every task's (metrics, history, log lines) in task order.

    The trainings run in forked workers, one per CPU in the process's
    affinity mask (``taskset`` limits them), each sent its next task as it
    returns one. Workers inherit the corpus instead of receiving a pickled
    copy. A task's exception is raised in its turn. Each worker has a pipe
    of its own and shares no lock with the others, so a worker killed by a
    signal (say by the OOM killer) shows at once as the end of its pipe and
    raises ``WorkerError``. The workers are stopped however the sweep ends.
    """
    ctx = multiprocessing.get_context("fork")
    todo = iter(enumerate(tasks))
    workers: dict[Connection, BaseProcess] = {}
    running: dict[Connection, int] = {}  # a busy worker's pipe -> task index
    done: dict[int, Any] = {}

    def lost(conn: Connection):
        workers[conn].join()
        raise WorkerError(f"sweep worker {workers[conn].pid} died (exit code "
                          f"{workers[conn].exitcode}); its training was lost")

    def send_next(conn: Connection):
        index, task = next(todo, (None, None))
        if task is None:
            return
        try:
            conn.send(task)
        except OSError:  # the worker died after its last answer
            lost(conn)
        running[conn] = index

    try:
        for _ in range(min(len(os.sched_getaffinity(0)), len(tasks))):
            conn, child = ctx.Pipe()
            workers[conn] = ctx.Process(target=_serve,
                                        args=(child, dataset, os.getpid()))
            workers[conn].start()
            child.close()
            send_next(conn)
        for index in range(len(tasks)):
            while index not in done:
                for conn in wait(list(running)):
                    try:
                        done[running.pop(conn)] = conn.recv()
                    except EOFError:
                        lost(conn)
                    send_next(conn)
            result = done.pop(index)
            if isinstance(result, Exception):
                raise result
            yield result
    finally:
        for conn, proc in workers.items():
            proc.terminate()
            proc.join()
            conn.close()


def run_sweep(name: str, points: list, cfg: ExperimentConfig, dataset: Dataset,
              log_fn=None) -> SweepResult:
    """Train joint and sensing-only models per point of the ``SWEEPS[name]``
    axis; same seed, test set and eval-seed policy everywhere. Every
    training's config is built, and so validated, before the first one.

    The trainings run in parallel, in forked workers (see
    ``_train_in_workers``). Results and log lines come back in the serial
    order, so nothing the sweep returns or logs depends on the worker
    count."""
    sweep = SWEEPS[name]
    points = [sweep.point_type(p) for p in points]
    configs = sweep.configs(cfg, points)
    out = SweepResult(param_name=sweep.param_name, points=points)
    with closing(_train_in_workers(configs, dataset)) as trained:
        for value in points:
            point = {"value": value, "seed": cfg.seed}
            for mode in MODES:
                metrics, history, lines = next(trained)
                if log_fn is not None:
                    log_fn(f"[{sweep.param_name}={value}] training {mode}")
                    for line in lines:
                        log_fn(line)
                point[mode] = {"metrics": metrics, "history": history}
            out.joint_accuracy.append(point["joint"]["metrics"]["accuracy"])
            out.sensing_accuracy.append(point["sensing_only"]["metrics"]["accuracy"])
            out.seeds.append(cfg.seed)
            out.per_point.append(point)
    return out


def sweep_output_size(sizes: list[int], cfg: ExperimentConfig, dataset: Dataset,
                      log_fn=None) -> SweepResult:
    """The encoder output size sweep, kept by name for external callers."""
    return run_sweep("output_size", sizes, cfg, dataset, log_fn)


def to_json(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline.
    Identical inputs serialize byte-for-byte identically. A dataclass goes
    through ``asdict``."""
    if is_dataclass(obj):
        obj = asdict(obj)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sweep_csv(sweep: SweepResult) -> str:
    """One row per sweep point: param, joint_acc, sensing_acc, seed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["param", "joint_acc", "sensing_acc", "seed"])
    for p, j, s, seed in zip(sweep.points, sweep.joint_accuracy,
                             sweep.sensing_accuracy, sweep.seeds):
        writer.writerow([p, repr(j), repr(s), seed])
    return buf.getvalue()


def emit_report(result, path: str, fmt: str = "json"):
    """Write a result (experiment dict or SweepResult) as JSON or CSV."""
    if fmt == "json":
        payload = to_json(result)
    elif fmt == "csv":
        if isinstance(result, SweepResult):
            payload = sweep_csv(result)
        else:
            metrics = result["metrics"]
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            keys = sorted(k for k in metrics if k != "confusion")
            writer.writerow(keys)
            writer.writerow([repr(metrics[k]) for k in keys])
            payload = buf.getvalue()
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def summary_line(metrics: Metrics, runtime_s: float) -> str:
    return (f"accuracy={metrics.accuracy:.4f}  "
            f"compression={metrics.compression_rate_pct:.2f}%  "
            f"runtime={runtime_s:.1f}s")
