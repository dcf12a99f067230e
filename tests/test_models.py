import json
import math
import struct

import numpy as np
import pytest

from sensecomm.channel import ChannelConfig, SensingConfig
from sensecomm.dataset import synthetic_dataset
from sensecomm.errors import ConfigError
from sensecomm.models import (
    ExperimentConfig,
    ModelConfig,
    Pipeline,
    build_decoder,
    build_echo_encoder,
    build_image_encoder,
    load_checkpoint,
    save_checkpoint,
    train,
)
from sensecomm.nn import cross_entropy, cross_entropy_logit_grad
from sensecomm.nn.layers import Dense
from sensecomm.rng import Rng

AWGN = ChannelConfig("awgn", 3.0)
SENSING = SensingConfig(-3.0, 6.0)


def layer_sizes(net):
    return [(p.name, p.value.size) for p in net.params()]


class CountingRng(Rng):
    """An Rng that records the size of every uniform draw made from it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.uniform_sizes = []

    def uniform(self, low=0.0, high=1.0, size=None):
        out = super().uniform(low, high, size)
        self.uniform_sizes.append(np.size(out))
        return out


class TestBuilders:
    def test_image_encoder_activation_shapes(self):
        net = build_image_encoder(20, Rng(0))
        x = np.zeros((2, 32, 32, 3), dtype=np.float32)
        shapes = []
        for layer in net.layers:
            x = layer.forward(x)
            shapes.append(x.shape[1:])
        assert shapes == [
            (30, 30, 8), (30, 30, 8),       # conv1 + relu
            (28, 28, 4), (28, 28, 4),       # conv2 + relu
            (14, 14, 4), (14, 14, 4),       # pool + dropout
            (12, 12, 4), (12, 12, 4),       # conv3 + relu
            (6, 6, 4), (6, 6, 4),           # pool + dropout
            (144,), (128,), (128,), (20,),  # flatten, dense, relu, dense
        ]

    def test_image_encoder_param_count(self):
        # (3*3*3*8+8) + (3*3*8*4+4) + (3*3*4*4+4) + (144*128+128) + (128*20+20)
        params = build_image_encoder(20, Rng(0)).params()
        assert sum(p.value.size for p in params) == 21_804

    def test_image_encoder_final_layer_small_output(self):
        net = build_image_encoder(4, Rng(0))
        final = net.layers[-1]
        assert final.w.value.shape == (128, 4)
        assert final.w.value.size + final.b.value.size == 128 * 4 + 4

    def test_echo_encoder_default_widths(self):
        net = build_echo_encoder(20, Rng(0))
        dense = [l for l in net.layers if isinstance(l, Dense)]
        assert [(d.w.value.shape) for d in dense] == [(20, 20), (20, 20), (20, 20)]

    def test_decoder_joint_widths(self):
        net = build_decoder(40, Rng(0))
        dense = [l for l in net.layers if isinstance(l, Dense)]
        assert [d.w.value.shape for d in dense] == [(40, 40), (40, 20), (20, 2)]

    def test_decoder_sensing_only_widths(self):
        net = build_decoder(20, Rng(0))
        dense = [l for l in net.layers if isinstance(l, Dense)]
        assert [d.w.value.shape for d in dense] == [(20, 20), (20, 10), (10, 2)]

    def test_bad_configs(self):
        with pytest.raises(ConfigError):
            ModelConfig(0, "joint")
        with pytest.raises(ConfigError):
            ModelConfig(4, "both")
        with pytest.raises(ConfigError, match="decoder input"):
            ModelConfig(1, "sensing_only")
        assert ModelConfig(1, "joint").decoder_in == 2
        with pytest.raises(ConfigError):
            ExperimentConfig(epochs=0)


class TestPipelineForward:
    def test_joint_decoder_input_width(self):
        pipe = Pipeline(ModelConfig(20, "joint"), Rng(1))
        assert pipe.decoder.layers[0].w.value.shape == (40, 40)
        x = Rng(2).uniform(size=(3, 32, 32, 3)).astype(np.float32)
        probs = pipe.forward(x, np.array([0, 1, 0]), AWGN, SENSING, rng=Rng(3))
        assert probs.shape == (3, 2)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6

    def test_sensing_only_decoder_input_width(self):
        pipe = Pipeline(ModelConfig(20, "sensing_only"), Rng(1))
        assert pipe.decoder.layers[0].w.value.shape == (20, 20)
        x = Rng(2).uniform(size=(3, 32, 32, 3)).astype(np.float32)
        probs = pipe.forward(x, np.array([0, 1, 0]), AWGN, SENSING, rng=Rng(3))
        assert probs.shape == (3, 2)

    def test_noiseless_pipeline_is_deterministic_composition(self):
        # infinite SNR and zero offset: different channel draws give the
        # same output, which equals running the encoders/decoder directly
        pipe = Pipeline(ModelConfig(8, "joint"), Rng(4), dtype=np.float64)
        channel = ChannelConfig("awgn", np.inf)
        sensing = SensingConfig(np.inf, 0.0)
        x = Rng(5).uniform(size=(2, 32, 32, 3))
        labels = np.array([0, 1])
        p1 = pipe.forward(x, labels, channel, sensing, rng=Rng(6))
        p2 = pipe.forward(x, labels, channel, sensing, rng=Rng(7))
        assert np.array_equal(p1, p2)

    def test_same_seed_shares_image_encoder_init(self):
        joint = Pipeline(ModelConfig(20, "joint"), Rng(11))
        sensing = Pipeline(ModelConfig(20, "sensing_only"), Rng(11))
        for pj, ps in zip(joint.image_encoder.params(), sensing.image_encoder.params()):
            assert np.array_equal(pj.value, ps.value)
        for pj, ps in zip(joint.echo_encoder.params(), sensing.echo_encoder.params()):
            assert np.array_equal(pj.value, ps.value)

    def test_predict_contract(self):
        pipe = Pipeline(ModelConfig(6, "joint"), Rng(12))
        x = Rng(13).uniform(size=(4, 32, 32, 3)).astype(np.float32)
        labels = np.array([0, 1, 1, 0])
        hat = pipe.predict(x, labels, AWGN, SENSING, Rng(14))
        hat2 = pipe.predict(x, labels, AWGN, SENSING, Rng(14))
        probs = pipe.forward(x, labels, AWGN, SENSING, rng=Rng(14))
        assert np.array_equal(hat, hat2)
        assert np.array_equal(hat, probs.argmax(axis=1))
        assert np.all((probs >= 0) & (probs <= 1))

    @pytest.mark.parametrize("mode", ["joint", "sensing_only"])
    @pytest.mark.parametrize("training, sizes", [
        (False, []),
        # one mask per dropout layer, over the pooled 14x14x4 and 6x6x4 maps
        (True, [3 * 14 * 14 * 4, 3 * 6 * 6 * 4]),
    ])
    def test_dropout_draws_only_in_training(self, mode, training, sizes):
        pipe = Pipeline(ModelConfig(6, mode), Rng(18))
        x = Rng(19).uniform(size=(3, 32, 32, 3)).astype(np.float32)
        rng = CountingRng(20)
        pipe.forward(x, np.array([0, 1, 1]), AWGN, SENSING, rng=rng,
                     training=training)
        assert rng.uniform_sizes == sizes

    def test_untrained_loss_near_chance_level(self):
        # an untrained model carries no information: loss sits at or above
        # ln 2, inflated by whatever overconfidence the random logits have
        # (measured spread over init seeds is about 0.7 to 1.6)
        ds = synthetic_dataset(64, 8, seed=20)
        losses = []
        for seed in (21, 22, 23):
            pipe = Pipeline(ModelConfig(20, "joint"), Rng(seed))
            probs = pipe.forward(ds.train.images(), ds.train.label2, AWGN,
                                 SENSING, rng=Rng(seed + 100), training=True)
            losses.append(cross_entropy(probs, ds.train.label2))
        assert all(math.log(2.0) - 0.15 < lo < 1.7 for lo in losses)
        assert min(losses) < math.log(2.0) + 0.15


class TestPipelineBackward:
    @pytest.mark.parametrize("mode", ["joint", "sensing_only"])
    def test_input_grad_flag_leaves_param_grads_bitwise(self, mode):
        pipe = Pipeline(ModelConfig(6, mode), Rng(15))
        x = Rng(16).uniform(size=(4, 32, 32, 3)).astype(np.float32)
        labels = np.array([0, 1, 1, 0])
        probs = pipe.forward(x, labels, AWGN, SENSING, rng=Rng(17))
        grad = cross_entropy_logit_grad(probs, labels)

        grad_x = pipe.backward(grad)
        assert grad_x.shape == x.shape
        with_input = [p.grad for p in pipe.params()]
        assert pipe.backward(grad, input_grad=False) is None
        for p, expected in zip(pipe.params(), with_input):
            assert np.array_equal(p.grad, expected), p.name


class TestTraining:
    def test_bitwise_identical_trajectories(self):
        ds = synthetic_dataset(192, 64, seed=30)
        cfg = ExperimentConfig("awgn", 3.0, -3.0, 6.0, n_c=4, epochs=1,
                               batch_size=64, seed=9, eval_seed=99, mode="joint")
        pipe_a, hist_a, preds_a = train(ds, cfg)
        pipe_b, hist_b, preds_b = train(ds, cfg)
        for pa, pb in zip(pipe_a.params(), pipe_b.params()):
            assert np.array_equal(pa.value, pb.value), pa.name
        assert hist_a == hist_b
        assert np.array_equal(preds_a, preds_b)

    def test_adam_step_count(self):
        ds = synthetic_dataset(130, 32, seed=31)  # 3 batches of 64 -> 2+ partial
        cfg = ExperimentConfig("awgn", 3.0, -3.0, 6.0, n_c=4, epochs=2,
                               batch_size=64, seed=1, eval_seed=2, mode="joint")
        pipe, hist, _ = train(ds, cfg)
        assert len(hist) == 2
        # epochs * ceil(130/64) batches each
        assert [h["epoch"] for h in hist] == [1, 2]

    def test_float64_pipeline_casts_float32_batches(self, monkeypatch):
        ds = synthetic_dataset(64, 32, seed=32)
        cfg = ExperimentConfig(n_c=4, epochs=1, seed=1, eval_seed=2,
                               dtype="float64")
        seen = []
        real = Pipeline.forward

        def forward(self, x, *args, **kwargs):
            probs = real(self, x, *args, **kwargs)
            seen.append((x.dtype, probs.dtype))
            return probs

        monkeypatch.setattr(Pipeline, "forward", forward)
        train(ds, cfg)
        # one training batch and one eval batch
        assert seen == [(np.dtype(np.float32), np.dtype(np.float64))] * 2


def rewrite_checkpoint(path, edit_header=None, payload_end=None, extra=b""):
    """Rewrite a saved checkpoint: edit its JSON header in place, cut the
    payload to ``payload_end`` bytes and append ``extra``."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + hlen])
    if edit_header is not None:
        edit_header(header)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = blob[8 + hlen:][:payload_end]
    path.write_bytes(blob[:4] + struct.pack("<I", len(head)) + head + payload + extra)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        pipe = Pipeline(ModelConfig(6, "joint"), Rng(40))
        path = tmp_path / "model.bin"
        save_checkpoint(pipe, path, seed=7)
        loaded, header = load_checkpoint(path)
        assert header["seed"] == 7
        assert loaded.cfg.mode == "joint"
        assert loaded.cfg.n_c == 6
        for a, b in zip(pipe.params(), loaded.params()):
            assert np.array_equal(a.value.astype(np.float32), b.value)
        x = Rng(41).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        labels = np.array([0, 1])
        p_orig = pipe.forward(x, labels, AWGN, SENSING, rng=Rng(42))
        p_load = loaded.forward(x, labels, AWGN, SENSING, rng=Rng(42))
        assert np.allclose(p_orig, p_load, atol=1e-7)

    def test_header_is_pinned(self, tmp_path):
        """The on-disk header of a 4-symbol joint model: both encoder sizes
        are written, as in every checkpoint so far."""
        path = tmp_path / "model.bin"
        save_checkpoint(Pipeline(ModelConfig(4, "joint"), Rng(7)), path, seed=7)
        blob = path.read_bytes()
        (hlen,) = struct.unpack("<I", blob[4:8])
        assert blob[:4] == b"SCM1"
        assert blob[8:8 + hlen].decode() == GOLDEN_HEADER

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ConfigError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        pipe = Pipeline(ModelConfig(4, "sensing_only"), Rng(43))
        path = tmp_path / "model.bin"
        save_checkpoint(pipe, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(path)

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(Pipeline(ModelConfig(4, "joint"), Rng(44)), path)
        return path

    def test_missing_tensor_rejected(self, saved):
        # drop the last tensor from both header and payload: everything that
        # is listed reads cleanly, and the last bias would stay at init
        rewrite_checkpoint(saved, lambda h: h["tensors"].pop(),
                           payload_end=-4 * 2)
        with pytest.raises(ConfigError, match="tensors"):
            load_checkpoint(saved)

    def test_renamed_tensor_rejected(self, saved):
        def rename(header):
            header["tensors"][0]["name"] = "image_encoder.conv9.w"
        rewrite_checkpoint(saved, rename)
        with pytest.raises(ConfigError, match="conv9"):
            load_checkpoint(saved)

    def test_unequal_encoder_sizes_rejected(self, saved):
        rewrite_checkpoint(saved, lambda h: h["model"].update(n_c2=6))
        with pytest.raises(ConfigError, match="one size"):
            load_checkpoint(saved)

    def test_trailing_bytes_rejected(self, saved):
        rewrite_checkpoint(saved, extra=b"\x00" * 4)
        with pytest.raises(ConfigError, match="trailing"):
            load_checkpoint(saved)


GOLDEN_HEADER = (
    '{"model": {"mode": "joint", "n_c1": 4, "n_c2": 4}, "seed": 7, "tensors": ['
    '{"name": "image_encoder.conv1.w", "shape": [3, 3, 3, 8]}, '
    '{"name": "image_encoder.conv1.b", "shape": [8]}, '
    '{"name": "image_encoder.conv2.w", "shape": [3, 3, 8, 4]}, '
    '{"name": "image_encoder.conv2.b", "shape": [4]}, '
    '{"name": "image_encoder.conv3.w", "shape": [3, 3, 4, 4]}, '
    '{"name": "image_encoder.conv3.b", "shape": [4]}, '
    '{"name": "image_encoder.dense1.w", "shape": [144, 128]}, '
    '{"name": "image_encoder.dense1.b", "shape": [128]}, '
    '{"name": "image_encoder.dense2.w", "shape": [128, 4]}, '
    '{"name": "image_encoder.dense2.b", "shape": [4]}, '
    '{"name": "echo_encoder.dense1.w", "shape": [4, 4]}, '
    '{"name": "echo_encoder.dense1.b", "shape": [4]}, '
    '{"name": "echo_encoder.dense2.w", "shape": [4, 4]}, '
    '{"name": "echo_encoder.dense2.b", "shape": [4]}, '
    '{"name": "echo_encoder.dense3.w", "shape": [4, 4]}, '
    '{"name": "echo_encoder.dense3.b", "shape": [4]}, '
    '{"name": "decoder.dense1.w", "shape": [8, 8]}, '
    '{"name": "decoder.dense1.b", "shape": [8]}, '
    '{"name": "decoder.dense2.w", "shape": [8, 4]}, '
    '{"name": "decoder.dense2.b", "shape": [4]}, '
    '{"name": "decoder.dense3.w", "shape": [4, 2]}, '
    '{"name": "decoder.dense3.b", "shape": [2]}]}')
