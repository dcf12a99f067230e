"""Transmit encoders, fusion decoder, and the end-to-end trained pipeline.

The transmitter runs two encoders: a convolutional image encoder that
compresses a 32x32x3 image to ``n_c`` channel symbols, and a dense echo
encoder that re-encodes the reflected probe signal to ``n_c`` symbols.
The receiver's decoder classifies from the concatenation of both received
vectors (joint mode) or from the second-round vector alone (sensing-only
benchmark). All three networks are trained jointly by backpropagating the
classification loss through both channels; channel realizations act as
fixed multipliers during the backward pass.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    CHANNEL_KINDS,
    ChannelConfig,
    PowerNormalize,
    SensingConfig,
    Transmission,
    sample_realization,
)
from .dataset import Dataset, Split, batch_indices
from .errors import ConfigError, DivergenceError
from .nn import (
    Adam,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Param,
    ReLU,
    Sequential,
    cross_entropy,
    cross_entropy_logit_grad,
    softmax,
)
from .rng import Rng

MODES = ("joint", "sensing_only")
DTYPES = ("float32", "float64")

EVAL_BATCH = 256  # fixed so the eval-seed noise stream is reproducible


@dataclass
class ModelConfig:
    n_c: int  # the output size of both encoders
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not isinstance(self.n_c, (int, np.integer)) or self.n_c < 1:
            raise ConfigError(
                f"encoder output size must be an integer >= 1, got {self.n_c!r}")
        if self.decoder_in < 2:
            raise ConfigError(f"decoder input must be >= 2; n_c {self.n_c} "
                              f"in {self.mode} mode gives {self.decoder_in}")

    @property
    def decoder_in(self) -> int:
        return 2 * self.n_c if self.mode == "joint" else self.n_c


def _flag(flag: str, help: str, choices: tuple | None = None) -> dict:
    return {"flag": flag, "help": help, "choices": choices}


@dataclass
class ExperimentConfig:
    """One experiment's knobs. Defaults are the reference operating point:
    3 dB communication SNR, -3 dB vehicle sensing SNR with animals 6 dB
    lower, encoder outputs of 20, 5 epochs of batches of 64.

    Each field's metadata gives its command-line flag, help and choices;
    the config-file key is the flag name with ``_`` for ``-``.
    """
    channel_kind: str = field(default="awgn", metadata=_flag(
        "--channel", "channel family of every link", CHANNEL_KINDS))
    comm_snr_db: float = field(default=3.0, metadata=_flag(
        "--comm-snr-db", "communication SNR in dB"))
    vehicle_sensing_snr_db: float = field(default=-3.0, metadata=_flag(
        "--sensing-snr-db", "vehicle-class sensing SNR in dB"))
    animal_offset_db: float = field(default=6.0, metadata=_flag(
        "--offset-db", "how many dB below vehicles animals reflect"))
    n_c: int = field(default=20, metadata=_flag(
        "--output-size", "encoder output size n_c for both encoders"))
    epochs: int = field(default=5, metadata=_flag("--epochs", "training epochs"))
    batch_size: int = field(default=64, metadata=_flag(
        "--batch-size", "training batch size"))
    seed: int = field(default=0, metadata=_flag(
        "--seed", "seed of weight init, shuffling, dropout and training noise"))
    eval_seed: int = field(default=1234, metadata=_flag(
        "--eval-seed", "seed of the evaluation channel draws"))
    mode: str = field(default="joint", metadata=_flag(
        "--mode", "joint or sensing-only decoding", MODES))
    dtype: str = field(default="float32", metadata=_flag(
        "--dtype", "floating-point type of weights and activations", DTYPES))

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise ConfigError(f"unknown dtype {self.dtype!r}")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        # an infinite SNR would train without noise, a NaN one diverge
        for name in ("comm_snr_db", "vehicle_sensing_snr_db", "animal_offset_db"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        # the channel kind, mode and n_c are checked where they are used
        self.channel()
        self.model()

    @property
    def np_dtype(self):
        return np.dtype(self.dtype).type

    def channel(self) -> ChannelConfig:
        return ChannelConfig(kind=self.channel_kind, snr_db=self.comm_snr_db)

    def sensing(self) -> SensingConfig:
        return SensingConfig(vehicle_snr_db=self.vehicle_sensing_snr_db,
                             animal_offset_db=self.animal_offset_db)

    def model(self) -> ModelConfig:
        return ModelConfig(n_c=self.n_c, mode=self.mode)


def build_image_encoder(n_c: int, rng: Rng, dtype=np.float32) -> Sequential:
    """Convolutional encoder 32x32x3 -> n_c (final activation linear)."""
    return Sequential([
        Conv2D(3, 8, (3, 3), rng, dtype, name="image_encoder.conv1"),
        ReLU(),
        Conv2D(8, 4, (3, 3), rng, dtype, name="image_encoder.conv2"),
        ReLU(),
        MaxPool2D(),
        Dropout(0.1),
        Conv2D(4, 4, (3, 3), rng, dtype, name="image_encoder.conv3"),
        ReLU(),
        MaxPool2D(),
        Dropout(0.1),
        Flatten(),
        Dense(144, 128, rng, dtype, name="image_encoder.dense1"),
        ReLU(),
        Dense(128, n_c, rng, dtype, name="image_encoder.dense2"),
    ])


def build_echo_encoder(n_c: int, rng: Rng, dtype=np.float32) -> Sequential:
    """Dense encoder for the reflected signal: n_c -> n_c, every layer n_c
    wide."""
    return Sequential([
        Dense(n_c, n_c, rng, dtype, name="echo_encoder.dense1"),
        ReLU(),
        Dense(n_c, n_c, rng, dtype, name="echo_encoder.dense2"),
        ReLU(),
        Dense(n_c, n_c, rng, dtype, name="echo_encoder.dense3"),
    ])


def build_decoder(d_in: int, rng: Rng, dtype=np.float32) -> Sequential:
    """Receiver-side classifier d_in -> 2 logits (softmax applied by caller)."""
    return Sequential([
        Dense(d_in, d_in, rng, dtype, name="decoder.dense1"),
        ReLU(),
        Dense(d_in, d_in // 2, rng, dtype, name="decoder.dense2"),
        ReLU(),
        Dense(d_in // 2, 2, rng, dtype, name="decoder.dense3"),
    ])


class Pipeline:
    """The full transmitter/receiver stack for one mode.

    Networks are built in a fixed order from one seeded stream, so two
    pipelines built with the same seed share identical encoder weights even
    when their decoders differ in shape.
    """

    def __init__(self, cfg: ModelConfig, rng: Rng, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.image_encoder = build_image_encoder(cfg.n_c, rng, dtype)
        self.echo_encoder = build_echo_encoder(cfg.n_c, rng, dtype)
        self.decoder = build_decoder(cfg.decoder_in, rng, dtype)
        self._norm1 = PowerNormalize()
        self._norm2 = PowerNormalize()
        self._tx_comm1: Transmission | None = None
        self._tx_sense: Transmission | None = None
        self._tx_comm2: Transmission | None = None

    def params(self) -> list[Param]:
        return (self.image_encoder.params() + self.echo_encoder.params()
                + self.decoder.params())

    def forward(self, x: np.ndarray, label2: np.ndarray,
                channel_cfg: ChannelConfig, sensing_cfg: SensingConfig,
                rng: Rng, training: bool = False) -> np.ndarray:
        """Run one batch through encode / transmit / reflect / re-encode /
        transmit / decode and return class probabilities.

        The true label feeds only the sensing reflection, where it selects
        the class-dependent SNR. An rng given to a layer stack means
        training, so ``rng`` reaches the image encoder, the one stack with
        dropout, only when ``training`` is set. Its masks come first, then
        the first-round link (joint mode only), sensing and second-round
        link realizations."""
        x = np.asarray(x, dtype=self.dtype)
        joint = self.cfg.mode == "joint"

        feat1 = self.image_encoder.forward(x, rng if training else None)
        s1 = self._norm1.forward(feat1)

        self._tx_comm1 = sample_realization(
            channel_cfg.kind, channel_cfg.snr_db, s1.shape[0], s1.shape[1],
            rng, self.dtype) if joint else None
        snr = sensing_cfg.snr_for_labels(label2)
        self._tx_sense = sample_realization(channel_cfg.kind, snr, s1.shape[0],
                                            s1.shape[1], rng, self.dtype)

        y_r1 = self._tx_comm1.forward(s1) if joint else None
        y_t1 = self._tx_sense.forward(s1)

        feat2 = self.echo_encoder.forward(y_t1)
        s2 = self._norm2.forward(feat2)

        self._tx_comm2 = sample_realization(channel_cfg.kind, channel_cfg.snr_db,
                                            s2.shape[0], s2.shape[1], rng,
                                            self.dtype)
        y_r2 = self._tx_comm2.forward(s2)

        fused = np.concatenate([y_r1, y_r2], axis=1) if joint else y_r2
        logits = self.decoder.forward(fused)
        return softmax(logits)

    def backward(self, grad_logits: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate from decoder logits through all three networks,
        filling every parameter gradient. Returns the gradient with respect
        to the input image, or None when ``input_grad`` is false: training
        has no use for it, and skipping it spares the image encoder's first
        convolution its input-gradient pass."""
        g_fused = self.decoder.backward(grad_logits)
        if self.cfg.mode == "joint":
            n_c = self.cfg.n_c
            g_yr1, g_yr2 = g_fused[:, :n_c], g_fused[:, n_c:]
        else:
            g_yr1, g_yr2 = None, g_fused

        g_s2 = self._tx_comm2.backward(g_yr2)
        g_feat2 = self._norm2.backward(g_s2)
        g_yt1 = self.echo_encoder.backward(g_feat2)

        g_s1 = self._tx_sense.backward(g_yt1)
        if g_yr1 is not None:
            g_s1 = g_s1 + self._tx_comm1.backward(g_yr1)
        g_feat1 = self._norm1.backward(g_s1)
        return self.image_encoder.backward(g_feat1, input_grad=input_grad)

    def predict(self, x: np.ndarray, label2: np.ndarray,
                channel_cfg: ChannelConfig, sensing_cfg: SensingConfig,
                rng: Rng) -> np.ndarray:
        """Inference pass: dropout disabled, one sampled realization per call.
        Returns the predicted labels."""
        probs = self.forward(x, label2, channel_cfg, sensing_cfg, rng=rng)
        return probs.argmax(axis=1)


def predict_split(pipeline: Pipeline, split: Split, channel_cfg: ChannelConfig,
                  sensing_cfg: SensingConfig, eval_seed: int) -> np.ndarray:
    """Predicted labels for a whole split under a fixed evaluation seed,
    one fresh channel realization per sample."""
    rng = Rng(eval_seed)
    out = np.empty(split.n, dtype=np.int64)
    for idx in batch_indices(split.n, EVAL_BATCH):
        out[idx] = pipeline.predict(split.images(idx), split.label2[idx],
                                    channel_cfg, sensing_cfg, rng)
    return out


def accuracy_on(pipeline: Pipeline, split: Split, channel_cfg: ChannelConfig,
                sensing_cfg: SensingConfig, eval_seed: int
                ) -> tuple[float, np.ndarray]:
    """Accuracy on a split and the predicted labels behind it."""
    preds = predict_split(pipeline, split, channel_cfg, sensing_cfg, eval_seed)
    return float((preds == split.label2).mean()), preds


def train(dataset: Dataset, cfg: ExperimentConfig,
          log_fn=None) -> tuple[Pipeline, list[dict], np.ndarray]:
    """Train all three networks jointly.

    Each batch draws fresh channel and sensing realizations, runs the full
    forward pass, and applies one Adam step to every parameter. History
    records per-epoch mean training loss and test accuracy; the last
    epoch's test predictions are returned too.
    """
    init_rng, shuffle_rng, noise_rng = Rng(cfg.seed).split(3)
    channel_cfg, sensing_cfg = cfg.channel(), cfg.sensing()
    pipeline = Pipeline(cfg.model(), init_rng, cfg.np_dtype)
    adam = Adam(pipeline.params())

    history: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        losses = []
        for idx in batch_indices(dataset.train.n, cfg.batch_size, shuffle_rng):
            x = dataset.train.images(idx)
            y = dataset.train.label2[idx]
            probs = pipeline.forward(x, y, channel_cfg, sensing_cfg,
                                     rng=noise_rng, training=True)
            loss = cross_entropy(probs, y)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, step {adam.t}")
            pipeline.backward(cross_entropy_logit_grad(probs, y), input_grad=False)
            adam.step()
            losses.append(loss)
        test_acc, preds = accuracy_on(pipeline, dataset.test, channel_cfg,
                                      sensing_cfg, cfg.eval_seed)
        record = {"epoch": epoch,
                  "train_loss": float(np.mean(losses)),
                  "test_accuracy": test_acc}
        history.append(record)
        if log_fn is not None:
            log_fn(f"epoch {epoch}/{cfg.epochs}  "
                   f"loss={record['train_loss']:.4f}  test_acc={test_acc:.4f}")
    return pipeline, history, preds


# --- checkpoint format ------------------------------------------------------
#
# magic "SCM1", u32 header length, UTF-8 JSON header, then each parameter
# tensor as little-endian float32 in declaration order. The header carries
# the model config, tensor names/shapes, and the training seed. The model
# config gives the encoder sizes as "n_c1" and "n_c2", which must be equal.

CHECKPOINT_MAGIC = b"SCM1"


def save_checkpoint(pipeline: Pipeline, path: str, seed: int | None = None):
    params = pipeline.params()
    header = {
        "model": {"n_c1": pipeline.cfg.n_c, "n_c2": pipeline.cfg.n_c,
                  "mode": pipeline.cfg.mode},
        "seed": seed,
        "tensors": [{"name": p.name, "shape": list(p.value.shape)} for p in params],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for p in params:
            fh.write(np.ascontiguousarray(p.value, dtype="<f4").tobytes())


def load_checkpoint(path: str, dtype=np.float32) -> tuple[Pipeline, dict]:
    """Read a checkpoint into a pipeline of ``dtype``. A file that cannot
    be opened or does not hold exactly this model raises ConfigError."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint: {exc}") from None
    with fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen).decode("utf-8"))
            model = header["model"]
            cfg = ModelConfig(n_c=model["n_c1"], mode=model["mode"])
            tensors = [(meta["name"], meta["shape"]) for meta in header["tensors"]]
        except (struct.error, UnicodeDecodeError, json.JSONDecodeError,
                KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed checkpoint header "
                              f"({type(exc).__name__}: {exc})") from None
        if model != {"n_c1": cfg.n_c, "n_c2": cfg.n_c, "mode": cfg.mode}:
            raise ConfigError(f"{path}: model {model} is not two encoders of "
                              "one size n_c1 = n_c2")
        pipeline = Pipeline(cfg, Rng(0), dtype)
        params = pipeline.params()
        if len(tensors) != len(params):
            raise ConfigError(f"{path}: {len(tensors)} tensors, "
                              f"the model has {len(params)}")
        for p, (name, shape) in zip(params, tensors):
            if name != p.name:
                raise ConfigError(
                    f"{path}: tensor {name!r} where {p.name!r} belongs")
            if list(p.value.shape) != shape:
                raise ConfigError(f"{path}: tensor {name} shape mismatch")
            buf = fh.read(4 * p.value.size)
            if len(buf) != 4 * p.value.size:
                raise ConfigError(f"{path}: truncated tensor data")
            p.value = np.frombuffer(buf, dtype="<f4").reshape(p.value.shape).astype(dtype)
        if fh.read(1):
            raise ConfigError(f"{path}: trailing bytes after the last tensor")
    return pipeline, header
