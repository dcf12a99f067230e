"""Acceptance gate: one test per criterion, each at its stated tolerance.

Criteria that reproduce published accuracy numbers need the real CIFAR-10
binary corpus on disk (CIFAR10_DATA_DIR or ./data/cifar-10-batches-bin);
without it they skip loudly rather than assert against a stand-in. The
remaining criteria are self-contained and always run.
"""

import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from conftest import real_data_dir
from sensecomm.channel import PowerNormalize, sample_realization
from sensecomm.dataset import load_cifar10
from sensecomm.harness import (
    ExperimentConfig,
    metrics_from_predictions,
    run_experiment,
    run_sweep,
    summary_line,
    to_json,
)
from sensecomm.nn.layers import Conv2D, Dense, MaxPool2D, Param
from sensecomm.nn.optim import Adam
from sensecomm.rng import Rng
from sensecomm.selfcheck import run_gradient_checks
from test_layers import conv_oracle, dense_oracle, maxpool_oracle
from test_losses_optim import hand_adam_step

pytestmark = pytest.mark.acceptance

DATA_DIR = real_data_dir()
needs_real_data = pytest.mark.skipif(
    DATA_DIR is None,
    reason="real CIFAR-10 binaries not on disk; set CIFAR10_DATA_DIR or add "
           "data/cifar-10-batches-bin to run the reproduction criteria")

EVAL_SEED = 1234
_cache: dict = {}


def real_dataset():
    if "dataset" not in _cache:
        _cache["dataset"] = load_cifar10(DATA_DIR)
    return _cache["dataset"]


def default_config(kind: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(channel_kind=kind, seed=seed, eval_seed=EVAL_SEED)


def trained_default_metrics(kind: str, seed: int) -> dict:
    key = ("default", kind, seed)
    if key not in _cache:
        _, result = run_experiment(default_config(kind, seed), real_dataset(),
                                   log_fn=print)
        _cache[key] = result["metrics"]
    return _cache[key]


def cached_sweep(name: str):
    if name not in _cache:
        cfg = ExperimentConfig(channel_kind="awgn", seed=0, eval_seed=EVAL_SEED)
        ds = real_dataset()
        if name == "comm":
            _cache[name] = run_sweep("comm_snr", [-5.0, 0.0, 5.0, 10.0], cfg, ds,
                                     log_fn=print)
        elif name == "sensing":
            _cache[name] = run_sweep("sensing_snr", [-9.0, -6.0, -3.0, 0.0], cfg, ds,
                                     log_fn=print)
        else:
            _cache[name] = run_sweep("output_size", [4, 8, 16, 20], cfg, ds,
                                     log_fn=print)
    return _cache[name]


@needs_real_data
def test_c01_awgn_default_reproduction():
    """criterion 1: AWGN defaults reach test accuracy 0.97 +/- 0.03"""
    started = time.monotonic()
    metrics = trained_default_metrics("awgn", 0)
    runtime = time.monotonic() - started
    assert abs(metrics["accuracy"] - 0.97) <= 0.03, metrics
    assert runtime <= 30 * 60


@needs_real_data
def test_c02_rayleigh_default_reproduction():
    """criterion 2: Rayleigh defaults reach test accuracy 0.88 +/- 0.05"""
    started = time.monotonic()
    metrics = trained_default_metrics("rayleigh", 0)
    runtime = time.monotonic() - started
    assert abs(metrics["accuracy"] - 0.88) <= 0.05, metrics
    assert runtime <= 30 * 60


@needs_real_data
def test_c03_confusion_asymmetry_across_seeds():
    """criterion 3: false-alarm rate below misdetection rate for most seeds"""
    for kind in ("awgn", "rayleigh"):
        wins = sum(
            trained_default_metrics(kind, seed)["false_alarm_rate"]
            < trained_default_metrics(kind, seed)["misdetection_rate"]
            for seed in (0, 1, 2))
        assert wins >= 2, f"{kind}: asymmetry held for {wins}/3 seeds"


@needs_real_data
def test_c04_joint_dominates_sensing_only_in_all_sweeps():
    """criterion 4: joint accuracy >= sensing-only accuracy - 0.01 everywhere"""
    for name in ("comm", "sensing", "size"):
        sweep = cached_sweep(name)
        for point, j, s in zip(sweep.points, sweep.joint_accuracy,
                               sweep.sensing_accuracy):
            assert j >= s - 0.01, f"{name} sweep at {point}: joint {j} vs sensing {s}"


@needs_real_data
def test_c05_trend_properties():
    """criterion 5: monotone SNR/size trends and sensing-range dominance"""
    for name in ("comm", "size"):
        acc = cached_sweep(name).joint_accuracy
        for lo, hi in zip(acc, acc[1:]):
            assert hi >= lo - 0.02, f"{name} sweep joint accuracy decreased"
    sweep = cached_sweep("sensing")
    joint_range = max(sweep.joint_accuracy) - min(sweep.joint_accuracy)
    sensing_range = max(sweep.sensing_accuracy) - min(sweep.sensing_accuracy)
    assert sensing_range > joint_range


def test_c06_compression_rate_report():
    """criterion 6: n_c=20 reports a 0.65% compression rate, two decimals"""
    metrics = metrics_from_predictions(np.array([0, 1]), np.array([0, 1]), 20)
    assert f"{metrics.compression_rate_pct:.2f}" == "0.65"
    assert f"compression={metrics.compression_rate_pct:.2f}%" in \
        summary_line(asdict(metrics), 0.0)
    assert metrics.compression_rate_pct == pytest.approx(100 * 20 / 3072)


def test_c07_gradient_check_suite():
    """criterion 7: every layer and the end-to-end pipeline pass FD checks"""
    started = time.monotonic()
    reports = run_gradient_checks()
    runtime = time.monotonic() - started
    for name, report in reports:
        assert report.max_rel_error < 1e-4, f"{name}: {report.max_rel_error}"
        assert report.passed
    names = [n for n, _ in reports]
    assert any(n.startswith("pipeline_joint") for n in names)
    assert runtime <= 120.0


def test_c08_channel_statistics():
    """criterion 8: empirical SNR, fading power, and normalization contracts"""
    norm = PowerNormalize()
    s = norm.forward(Rng(80).standard_normal((5000, 20)))  # 1e5 elements
    assert np.max(np.abs((s ** 2).mean(axis=1) - 1.0)) < 1e-9

    for snr_db in (-3.0, 0.0, 3.0):
        real = sample_realization("awgn", snr_db, 5000, 20, Rng(81), np.float64)
        measured = 10 * np.log10(np.mean(s ** 2) / np.mean(real.noise ** 2))
        assert abs(measured - snr_db) < 0.2, f"awgn at {snr_db} dB: {measured}"

    real = sample_realization("rayleigh", 0.0, 100_000, 1, Rng(82), np.float64)
    assert abs(np.mean(real.gain ** 2) - 1.0) < 0.02

    faded = sample_realization("rayleigh", 3.0, 5000, 20, Rng(83), np.float64)
    signal_power = np.mean((faded.gain[:, None] * s) ** 2)
    measured = 10 * np.log10(signal_power / np.mean(faded.noise ** 2))
    assert abs(measured - 3.0) < 0.2


def test_c09_oracle_equivalence():
    """criterion 9: layer outputs match loop oracles; Adam matches hand math"""
    # sizes come from a numpy generator; weights and inputs from the Rng
    for i in range(20):
        rng, sizes = Rng(900 + i), np.random.default_rng(900 + i)
        layer = Dense(int(sizes.integers(2, 24)), int(sizes.integers(2, 16)), rng,
                      np.float64)
        x = rng.standard_normal((3, layer.w.value.shape[0]))
        diff = layer.forward(x) - dense_oracle(x, layer.w.value, layer.b.value)
        assert np.max(np.abs(diff)) < 1e-12

    for i in range(20):
        rng, sizes = Rng(950 + i), np.random.default_rng(950 + i)
        cin, f = int(sizes.integers(1, 4)), int(sizes.integers(1, 4))
        h = int(sizes.integers(3, 7))
        layer = Conv2D(cin, f, (3, 3), rng, np.float64)
        x = rng.standard_normal((2, h, h, cin))
        diff = layer.forward(x) - conv_oracle(x, layer.w.value, layer.b.value)
        assert np.max(np.abs(diff)) < 1e-12

    for i in range(20):
        rng, sizes = Rng(980 + i), np.random.default_rng(980 + i)
        h, w = int(sizes.integers(2, 8)), int(sizes.integers(2, 8))
        x = np.maximum(np.round(rng.standard_normal((2, h, w, 3))), 0)
        g = rng.standard_normal((2, h // 2, w // 2, 3))
        layer = MaxPool2D()
        out, gx = maxpool_oracle(x, g)
        assert np.array_equal(layer.forward(x, rng), out)
        assert np.array_equal(layer.backward(g), gx)

    p = Param(np.array([1.0]))
    p.grad = np.array([1.0])
    Adam([p]).step()
    expected, _, _ = hand_adam_step(1.0, 1.0)
    assert abs(p.value[0] - expected) < 1e-10


def test_c10_metrics_json_determinism(synthetic_corpus):
    """criterion 10: identical config and seed give byte-identical JSON"""
    ds = synthetic_corpus(256, 128, seed=100)
    cfg = ExperimentConfig(channel_kind="rayleigh", n_c=4, epochs=1,
                           seed=10, eval_seed=EVAL_SEED)
    _, a = run_experiment(cfg, ds)
    _, b = run_experiment(cfg, ds)
    assert to_json(a).encode() == to_json(b).encode()
    assert a["metrics"] == b["metrics"]
