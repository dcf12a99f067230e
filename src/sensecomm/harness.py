"""Experiment orchestration: evaluation metrics, parameter sweeps, reports.

A sweep retrains a fresh joint model and a fresh sensing-only benchmark at
every grid point, evaluates both on the identical test set under the same
evaluation-seed policy, and emits JSON (the base config, and each point's
metrics and history) plus CSV (one row per point) for external plotting.
A single experiment's report is JSON plus a CSV row of its metrics.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import closing
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import Any, Callable

import numpy as np

from .dataset import Dataset, SOURCE_DIM, Split
from .models import (MODES, ExperimentConfig, Pipeline, in_threads, predict_split,
                     train, write_atomic)


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
    config: dict  # asdict of the base config that each point moves
    joint_accuracy: list[float] = field(default_factory=list)
    sensing_accuracy: list[float] = field(default_factory=list)
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


def run_sweep(name: str, points: list, cfg: ExperimentConfig, dataset: Dataset,
              log_fn=None) -> SweepResult:
    """Train joint and sensing-only models per point of the ``SWEEPS[name]``
    axis; same seed, test set and eval-seed policy everywhere. Every
    training's config is built, and so validated, before the first one.

    Through ``in_threads``, each thread, the calling one among them,
    takes the next training in order; a training evaluates on its own
    thread and drops its pipeline as it ends. Results and log lines come
    back in the serial order, whatever the thread count."""
    sweep = SWEEPS[name]
    points = [sweep.point_type(p) for p in points]
    configs = sweep.configs(cfg, points)
    out = SweepResult(sweep.param_name, points, asdict(cfg))

    def _train(task: ExperimentConfig):
        lines: list[str] = []
        result = run_experiment(task, dataset, lines.append)[1]
        return result["metrics"], result["history"], lines

    with closing(in_threads(_train, configs)) as trained:
        for value in points:
            point = {"value": value}
            for mode in MODES:
                metrics, history, lines = next(trained)
                if log_fn is not None:
                    log_fn(f"[{sweep.param_name}={value}] training {mode}")
                    for line in lines:
                        log_fn(line)
                point[mode] = {"metrics": metrics, "history": history}
            out.joint_accuracy.append(point["joint"]["metrics"]["accuracy"])
            out.sensing_accuracy.append(point["sensing_only"]["metrics"]["accuracy"])
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
    for p, j, s in zip(sweep.points, sweep.joint_accuracy, sweep.sensing_accuracy):
        writer.writerow([p, repr(j), repr(s), sweep.config["seed"]])
    return buf.getvalue()


def experiment_csv(result: dict) -> str:
    """One row of an experiment's scalar metrics, by name in sorted order."""
    metrics = result["metrics"]
    keys = sorted(k for k in metrics if k != "confusion")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    writer.writerow([repr(metrics[k]) for k in keys])
    return buf.getvalue()


def emit_report(result, json_path: str, csv_path: str):
    """Write a result (experiment dict or SweepResult) as JSON, then as
    CSV, each replacing its file whole (``write_atomic``)."""
    table = (sweep_csv(result) if isinstance(result, SweepResult)
             else experiment_csv(result))
    write_atomic(json_path, to_json(result).encode("utf-8"))
    write_atomic(csv_path, table.encode("utf-8"))


def summary_line(metrics: dict, runtime_s: float) -> str:
    return (f"accuracy={metrics['accuracy']:.4f}  "
            f"compression={metrics['compression_rate_pct']:.2f}%  "
            f"runtime={runtime_s:.1f}s")
