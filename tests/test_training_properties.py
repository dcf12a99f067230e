"""Reduced-scale structural properties of the trained system, on the
synthetic corpus that conftest writes to disk. These exercise the mechanisms behind the full-scale
reproduction runs (which live in test_acceptance.py and need the real
data on disk): information fusion dominance, SNR trends, class-imbalance
error asymmetry, and the collapse to the majority prior when sensing
carries no information.
"""

import numpy as np
import pytest

from sensecomm.harness import ExperimentConfig, metrics_from_predictions, run_sweep
from sensecomm.models import predict_split, train

pytestmark = pytest.mark.slow

EVAL_SEED = 555


@pytest.fixture(scope="module")
def corpus(synthetic_corpus):
    return synthetic_corpus(2000, 800, seed=50)


def run_once(ds, mode, kind="awgn", comm=3.0, veh=-3.0, off=6.0, seed=3,
             nc=20, epochs=2):
    cfg = ExperimentConfig(kind, comm, veh, off, n_c=nc, mode=mode,
                           epochs=epochs, batch_size=64, seed=seed,
                           eval_seed=EVAL_SEED)
    pipeline, history, _ = train(ds, cfg)
    preds = predict_split(pipeline, ds.test, cfg.channel(), cfg.sensing(), EVAL_SEED)
    return metrics_from_predictions(ds.test.label2, preds, nc), history


class TestLearning:
    def test_loss_decreases_both_channel_kinds(self, corpus):
        for kind in ("awgn", "rayleigh"):
            _, history = run_once(corpus, "joint", kind=kind)
            assert history[-1]["train_loss"] < history[0]["train_loss"]
            assert history[-1]["test_accuracy"] > 0.9

    def test_misdetections_exceed_false_alarms_under_hard_noise(self, corpus):
        # animals are the majority class, so a noisy decoder leans toward
        # "no transmitter": vehicle errors (misdetections) dominate
        outcomes = []
        for seed in (3, 7, 11):
            m, _ = run_once(corpus, "joint", comm=-5.0, veh=-11.0, seed=seed)
            assert m.accuracy > 0.85
            outcomes.append(m.misdetection_rate > m.false_alarm_rate)
        assert sum(outcomes) >= 2  # holds for the majority of seeds

    def test_sensing_without_information_collapses_to_prior(self, corpus):
        # drive the reflection 60 dB under the noise floor with no class
        # offset: the second-round signal carries nothing, so the benchmark
        # cannot beat the majority-class rate
        majority = max(corpus.test.label2.mean(), 1 - corpus.test.label2.mean())
        m, _ = run_once(corpus, "sensing_only", veh=-60.0, off=0.0, seed=3)
        assert abs(m.accuracy - majority) < 0.08


class TestSweeps:
    def test_comm_snr_sweep_dominance_and_trend(self, corpus):
        cfg = ExperimentConfig(channel_kind="awgn", epochs=2, seed=3,
                               eval_seed=EVAL_SEED)
        sweep = run_sweep("comm_snr", [-10.0, 3.0], cfg, corpus)
        for j, s in zip(sweep.joint_accuracy, sweep.sensing_accuracy):
            assert j >= s - 0.01
        assert sweep.joint_accuracy[1] >= sweep.joint_accuracy[0] - 0.02
        assert sweep.sensing_accuracy[1] >= sweep.sensing_accuracy[0] - 0.02

    def test_sensing_snr_sweep_ranges_and_gap(self, corpus):
        cfg = ExperimentConfig(channel_kind="awgn", epochs=2, seed=3,
                               eval_seed=EVAL_SEED)
        sweep = run_sweep("sensing_snr", [-20.0, 10.0], cfg, corpus)
        for j, s in zip(sweep.joint_accuracy, sweep.sensing_accuracy):
            assert j >= s - 0.01
        joint_range = max(sweep.joint_accuracy) - min(sweep.joint_accuracy)
        sensing_range = max(sweep.sensing_accuracy) - min(sweep.sensing_accuracy)
        assert sensing_range > joint_range
        gaps = [j - s for j, s in zip(sweep.joint_accuracy, sweep.sensing_accuracy)]
        assert gaps[-1] < gaps[0]  # closes as sensing SNR rises

    def test_output_size_sweep_under_fading(self, corpus):
        cfg = ExperimentConfig(channel_kind="rayleigh", epochs=2, seed=3,
                               eval_seed=EVAL_SEED)
        sweep = run_sweep("output_size", [8, 20], cfg, corpus)
        for j, s in zip(sweep.joint_accuracy, sweep.sensing_accuracy):
            assert j >= s - 0.01
        assert sweep.joint_accuracy[1] >= sweep.joint_accuracy[0] - 0.02
        assert sweep.per_point[0]["joint"]["metrics"]["compression_rate_pct"] == \
            pytest.approx(100 * 8 / 3072)
