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

import ctypes
import json
import math
import os
import struct
import threading
import zlib
from collections import Counter, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .channel import (
    CHANNEL_KINDS,
    ChannelConfig,
    PowerNormalize,
    SensingConfig,
    noise_std,
    sample_realization,
)
from .dataset import SOURCE_DIM, Dataset, Split, batch_indices
from .errors import ConfigError, DivergenceError
from .nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Param,
    ReLU,
    Sequential,
    param_buffers,
    softmax,
)
from .nn.losses import cross_entropy, cross_entropy_logit_grad
from .nn.optim import Adam
from .rng import EVAL, TRAIN, Rng

MODES = ("joint", "sensing_only")
DTYPES = ("float32", "float64")

# Pin glibc's heap thresholds. Setting either switches off glibc's dynamic
# rule, under which whether the heap goes back to the kernel depends on
# what the process freed before. The mmap threshold is the largest glibc
# takes on 64-bit, the trim threshold twice it, the ratio the dynamic rule
# keeps: no batch's temporaries leave the heap between batches, so no
# forward faults its working set back in.
_M_TRIM_THRESHOLD = -1  # from <malloc.h>
_M_MMAP_THRESHOLD = -3  # from <malloc.h>
ctypes.CDLL(None).mallopt(_M_MMAP_THRESHOLD, 32 << 20)
ctypes.CDLL(None).mallopt(_M_TRIM_THRESHOLD, 64 << 20)

EVAL_BATCH = 256  # samples per eval task; no draw depends on it
# The most rows an eval forward runs through the image encoder at once. A
# row's features depend on that row alone, so slicing changes no bit, while
# a thread holds a quarter of a batch's conv working set.
ENCODE_CHUNK = 64
KERNEL = (3, 3)  # every convolution's


@dataclass
class ModelConfig:
    n_c: int  # the output size of both encoders
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        # a bool is an int to Python, and an n_c above the source size
        # compresses nothing, however much memory it would take
        if (isinstance(self.n_c, bool) or not isinstance(self.n_c, (int, np.integer))
                or not 1 <= self.n_c <= SOURCE_DIM):
            raise ConfigError(f"encoder output size must be an integer in "
                              f"[1, {SOURCE_DIM}], got {self.n_c!r}")
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
        for name in ("seed", "eval_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        # a zero noise scale would train without noise, an infinite or NaN
        # one diverge; each link's scale is taken in the run's dtype
        vehicle = self.vehicle_sensing_snr_db
        with np.errstate(over="ignore", invalid="ignore"):
            for link, snr in (("communication", self.comm_snr_db),
                              ("vehicle sensing", vehicle),
                              ("animal sensing", vehicle - self.animal_offset_db)):
                scale = self.np_dtype(noise_std(snr))
                if not 0 < scale < math.inf:
                    raise ConfigError(f"{link} SNR {snr} dB gives noise scale "
                                      f"{scale}; it must be finite and above 0")
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


def architecture(cfg: ModelConfig) -> dict[str, list[tuple]]:
    """Each network's layers, the networks in build order: ("conv", in
    channels, filters) with a ``KERNEL`` kernel, ("dense", in, out),
    ("dropout", rate), ("relu",), ("pool",) for 2x2 max-pooling, ("flatten",)
    and ("norm",), the power normalization that ends each encoder. ReLU
    follows each max-pool: max is monotone, so the two orders give the same
    values, and ReLU then sees a quarter of the elements."""
    n, d = cfg.n_c, cfg.decoder_in
    return {
        "image_encoder": [("conv", 3, 8), ("relu",), ("conv", 8, 4), ("pool",),
                          ("relu",), ("dropout", 0.1), ("conv", 4, 4), ("pool",),
                          ("relu",), ("dropout", 0.1), ("flatten",),
                          ("dense", 144, 128), ("relu",), ("dense", 128, n), ("norm",)],
        "echo_encoder": [("dense", n, n), ("relu",), ("dense", n, n), ("relu",),
                         ("dense", n, n), ("norm",)],
        "decoder": [("dense", d, d), ("relu",), ("dense", d, d // 2), ("relu",),
                    ("dense", d // 2, 2)],
    }


def _named(net: str, layers: list[tuple]):
    """Each layer's name, as ``image_encoder.conv2`` for the network's
    second conv, its kind and its sizes."""
    seen = Counter()
    for kind, *sizes in layers:
        seen[kind] += 1
        yield f"{net}.{kind}{seen[kind]}", kind, sizes


def tensor_shapes(cfg: ModelConfig) -> list[tuple[str, list[int]]]:
    """Every parameter's name and shape, in the order of ``Pipeline.params``
    and of the flat buffers, from the table alone: nothing is allocated,
    whatever the model's size."""
    shapes = []
    for net, layers in architecture(cfg).items():
        for name, kind, sizes in _named(net, layers):
            if kind in ("conv", "dense"):
                w = [*KERNEL, *sizes] if kind == "conv" else sizes
                shapes += [(f"{name}.w", w), (f"{name}.b", [w[-1]])]
    return shapes


def build(layers: list[tuple], params) -> Sequential:
    """One network from its table, each Dense and Conv2D layer taking the
    next two of the ``params`` iterator, its weight and its bias."""
    kinds = {"conv": Conv2D, "dense": Dense, "relu": ReLU, "pool": MaxPool2D,
             "dropout": Dropout, "flatten": Flatten, "norm": PowerNormalize}
    return Sequential([kinds[kind](next(params), next(params))
                       if kind in ("conv", "dense") else kinds[kind](*sizes)
                       for kind, *sizes in layers])


class Pipeline:
    """The full transmitter/receiver stack for one mode.

    Its parameters are the ``tensor_shapes`` of its config, each a view of
    two flat buffers, ``values`` and ``grads`` (see ``param_buffers``). The
    weights are drawn from ``rng`` in that order, image encoder, echo
    encoder, decoder, so two pipelines built with the same seed share
    identical encoder weights even when their decoders differ in shape.
    Without an rng every value is zero, for a checkpoint to fill.
    """

    def __init__(self, cfg: ModelConfig, rng: Rng | None, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        self.values, self.grads, self._params = param_buffers(
            tensor_shapes(cfg), rng, dtype)
        taken = iter(self._params)
        self.image_encoder, self.echo_encoder, self.decoder = (
            build(layers, taken) for layers in architecture(cfg).values())

    def params(self) -> list[Param]:
        return self._params

    def forward(self, x: np.ndarray, label2: np.ndarray,
                channel_cfg: ChannelConfig, sensing_cfg: SensingConfig,
                rng: Rng, start: int = 0, dropout: Rng | None = None
                ) -> np.ndarray:
        """Run one batch through encode / transmit / reflect / re-encode /
        transmit / decode and return class probabilities.

        The true label feeds only the sensing reflection, where it selects
        the class-dependent SNR. Row ``i`` is sample ``start + i``: its
        first-round (joint mode only), sensing and second-round
        realizations are links 0, 1 and 2 of ``rng``'s keyed draws, the
        same in either mode.

        A ``dropout`` rng means training, and that a backward follows: the
        three stacks get it, the links are drawn in the ``TRAIN`` domain,
        and every layer, and the pipeline its three links, saves what
        ``backward`` needs. Without it the links are drawn in the ``EVAL``
        domain, no attribute is written, and no ``backward`` may follow.

        Without ``dropout`` the image encoder runs ``ENCODE_CHUNK`` rows at
        a time, to bound its memory; the rest sees the whole batch. Each
        row's probabilities are the same bits in any batch (see ``Dense``)."""
        x = np.asarray(x, dtype=self.dtype)
        joint = self.cfg.mode == "joint"
        training = dropout is not None

        if training:
            s1 = self.image_encoder.forward(x, dropout)
        else:
            s1 = np.concatenate([self.image_encoder.forward(x[i:i + ENCODE_CHUNK])
                                 for i in range(0, len(x), ENCODE_CHUNK)])
        n, n_c = s1.shape

        def link(index, snr_db):
            return sample_realization(channel_cfg.kind, snr_db, n, n_c, rng,
                                      self.dtype, index, start,
                                      TRAIN if training else EVAL)

        comm1 = link(0, channel_cfg.snr_db) if joint else None
        sense = link(1, sensing_cfg.snr_for_labels(label2))
        comm2 = link(2, channel_cfg.snr_db)
        if training:
            self._saved = comm1, sense, comm2

        s2 = self.echo_encoder.forward(sense.forward(s1), dropout)
        y_r2 = comm2.forward(s2)
        fused = np.concatenate([comm1.forward(s1), y_r2], axis=1) if joint else y_r2
        logits = self.decoder.forward(fused, dropout)
        return softmax(logits)

    def backward(self, grad_logits: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate from decoder logits through all three networks,
        filling every parameter gradient. Returns the gradient with respect
        to the input image, or None when ``input_grad`` is false: training
        has no use for it, and skipping it spares the image encoder's first
        convolution its input-gradient pass.

        It consumes what the training forward saved, the links' and every
        layer's, freeing each layer's activations as it passes them, so
        each backward needs a training forward of its own."""
        (comm1, sense, comm2), self._saved = self._saved, None
        g_fused = self.decoder.backward(grad_logits)
        n_c = self.cfg.n_c  # comm2's signal is the last n_c in either mode
        g_s1 = sense.backward(self.echo_encoder.backward(
            comm2.backward(g_fused[:, -n_c:])))
        if comm1 is not None:
            g_s1 = g_s1 + comm1.backward(g_fused[:, :n_c])
        return self.image_encoder.backward(g_s1, input_grad=input_grad)

    def predict(self, x: np.ndarray, label2: np.ndarray,
                channel_cfg: ChannelConfig, sensing_cfg: SensingConfig,
                rng: Rng, start: int = 0) -> np.ndarray:
        """Inference pass: dropout disabled, the evaluation-domain
        realizations of samples ``start`` onwards. Returns the predicted
        labels, each that of its sample alone, whatever the batch. It saves
        nothing, so it is reentrant: threads may run it at once on one
        pipeline and one rng. A sample whose probabilities are not finite
        has no label: it gets -1, where argmax would call it class 0."""
        probs = self.forward(x, label2, channel_cfg, sensing_cfg, rng, start)
        return np.where(np.isfinite(probs).all(axis=1), probs.argmax(axis=1), -1)


# Held while a call of ``in_threads`` runs its tasks.
_FANNING = threading.Lock()


def in_threads(fn, tasks: list):
    """Yield ``fn(task)`` for each task, in task order.

    The calling thread and a daemon thread per further CPU in the affinity
    mask each take the next task no thread has taken; the caller takes one
    whenever the result it must yield next is not done. A helper's error
    is raised in its task's turn, the caller's own at once. After a
    failure, or once the caller stops, no thread takes another task, and
    none in flight is waited for. A call made inside another call's
    tasks, such as a sweep training's evaluation, runs them serially."""
    fanning = _FANNING.acquire(blocking=False)
    workers = min(len(os.sched_getaffinity(0)), len(tasks)) if fanning else 1
    futures = [Future() for _ in tasks]
    # Tasks are taken in order, so once a failure empties the queue every
    # task before it has been taken and ends: no result is awaited in vain.
    todo, guard = deque(range(len(tasks))), threading.Lock()

    def take():
        with guard:
            return todo.popleft() if todo else None

    def work():
        while (i := take()) is not None:
            try:
                futures[i].set_result(fn(tasks[i]))
            except BaseException as exc:
                with guard:  # before the caller can see the failure
                    todo.clear()
                futures[i].set_exception(exc)

    threads = [threading.Thread(target=work, daemon=True)
               for _ in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        for future in futures:
            while not future.done() and (i := take()) is not None:
                futures[i].set_result(fn(tasks[i]))
            yield future.result()
    finally:
        with guard:
            todo.clear()
        if all(future.done() for future in futures):
            for thread in threads:  # each is past its last task
                thread.join()
        if fanning:
            _FANNING.release()


def predict_split(pipeline: Pipeline, split: Split, channel_cfg: ChannelConfig,
                  sensing_cfg: SensingConfig, eval_seed: int) -> np.ndarray:
    """Predicted labels for a whole split under a fixed evaluation seed,
    one channel realization per sample, keyed by its index in the split.

    The split runs in ``EVAL_BATCH`` batches through ``in_threads``. A
    sample's draws depend on neither its batch nor the thread that takes
    it, so neither do the labels. ``Pipeline.predict`` bounds each
    thread's memory by encoding ``ENCODE_CHUNK`` rows at a time. Once
    every batch is in, a sample with no label raises DivergenceError,
    naming the first such sample of the split on any number of CPUs."""
    rng = Rng(eval_seed)

    def predict(idx: np.ndarray) -> np.ndarray:
        return pipeline.predict(split.images(idx), split.label2[idx],
                                channel_cfg, sensing_cfg, rng, int(idx[0]))

    batches = list(batch_indices(split.n, EVAL_BATCH))
    preds = np.concatenate(list(in_threads(predict, batches)))
    if (preds < 0).any():
        raise DivergenceError(f"non-finite output probabilities for "
                              f"sample {int(np.argmin(preds >= 0))}")
    return preds


def accuracy_on(pipeline: Pipeline, split: Split, channel_cfg: ChannelConfig,
                sensing_cfg: SensingConfig, eval_seed: int
                ) -> tuple[float, np.ndarray]:
    """Accuracy on a split and the predicted labels behind it."""
    preds = predict_split(pipeline, split, channel_cfg, sensing_cfg, eval_seed)
    return float((preds == split.label2).mean()), preds


def train(dataset: Dataset, cfg: ExperimentConfig,
          log_fn=None) -> tuple[Pipeline, list[dict], np.ndarray]:
    """Train all three networks jointly.

    Each batch draws the channel and sensing realizations of its samples'
    positions in the run, counted across epochs, runs the full forward
    pass, and applies one Adam step to every parameter. History
    records per-epoch mean training loss and test accuracy; the last
    epoch's test predictions are returned too.
    """
    init_rng, shuffle_rng, dropout_rng = Rng(cfg.seed).split(3)
    channel_rng, seen = Rng(cfg.seed), 0
    channel_cfg, sensing_cfg = cfg.channel(), cfg.sensing()
    pipeline = Pipeline(cfg.model(), init_rng, cfg.np_dtype)
    adam = Adam(pipeline.values, pipeline.grads, pipeline.params())

    history: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        losses = []
        for idx in batch_indices(dataset.train.n, cfg.batch_size, shuffle_rng):
            x = dataset.train.images(idx)
            y = dataset.train.label2[idx]
            probs = pipeline.forward(x, y, channel_cfg, sensing_cfg,
                                     channel_rng, start=seen, dropout=dropout_rng)
            seen += len(idx)
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
# magic "SCM2", u32 header length, UTF-8 JSON header, the payload, then a u32
# CRC-32 (zlib's) of every byte before it; integers are little-endian. The
# header carries the model config ("n_c" and "mode"), the tensor names and
# shapes, the payload's dtype ("<f4" or "<f8") and the training seed. The
# payload is each parameter tensor in declaration order, as little-endian
# floats of that dtype.

CHECKPOINT_MAGIC = b"SCM2"


def write_atomic(path, data: bytes):
    """Write ``data`` to a temporary file beside ``path``, then rename it
    over ``path``. A write that fails leaves the old file as it was and no
    temporary file; a process killed midway may leave the temporary one."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(pipeline: Pipeline, path: str, seed: int | None = None):
    dtype = np.dtype(pipeline.dtype).newbyteorder("<").str
    header = {
        "dtype": dtype,
        "model": {"n_c": pipeline.cfg.n_c, "mode": pipeline.cfg.mode},
        "seed": seed,
        "tensors": [{"name": n, "shape": s} for n, s in tensor_shapes(pipeline.cfg)],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join([CHECKPOINT_MAGIC, struct.pack("<I", len(blob)), blob,
                     pipeline.values.astype(dtype).tobytes()])
    write_atomic(path, body + struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path: str, dtype=np.float32) -> tuple[Pipeline, dict]:
    """Read a checkpoint into a pipeline of ``dtype``, casting the stored
    payload into it. A file that cannot be opened or is not an intact SCM2
    checkpoint of exactly this model raises ConfigError. The magic, the
    header (model config, dtype, tensor shapes), the file size those
    declare, the checksum, the header's tensor list against the
    ``tensor_shapes`` of the model it names, and that every stored value is
    finite once cast to ``dtype`` are checked in that order, all before any
    pipeline is built. The pipeline is built without an rng, so the load
    draws nothing, and its ``values`` buffer takes the cast payload."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint: {exc}") from None
    with fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file (expected SCM2)")
        try:
            size = fh.read(4)
            (hlen,) = struct.unpack("<I", size)
            blob = fh.read(hlen)
            header = json.loads(blob.decode("utf-8"))
            model, stored = header["model"], header["dtype"]
            cfg = ModelConfig(n_c=model["n_c"], mode=model["mode"])
            tensors = [(meta["name"], meta["shape"]) for meta in header["tensors"]]
        except (struct.error, UnicodeDecodeError, json.JSONDecodeError,
                KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed checkpoint header "
                              f"({type(exc).__name__}: {exc})") from None
        if stored not in ("<f4", "<f8"):
            raise ConfigError(f"{path}: unknown tensor dtype {stored!r}, "
                              "expected '<f4' or '<f8'")
        if not all(isinstance(shape, list)
                   and all(type(d) is int and d > 0 for d in shape)
                   for _, shape in tensors):
            raise ConfigError(f"{path}: a tensor shape is not a list of "
                              "positive integers")
        n_values = sum(math.prod(shape) for _, shape in tensors)
        declared = np.dtype(stored).itemsize * n_values
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if declared + 4 > left:
            raise ConfigError(f"{path}: truncated ({left} bytes after the header, "
                              f"which declares {declared} and a 4-byte checksum)")
        if declared + 4 < left:
            raise ConfigError(f"{path}: trailing bytes after the checksum "
                              f"({left - declared - 4})")
        payload, trailer = fh.read(declared), fh.read(4)
        crc = zlib.crc32(payload, zlib.crc32(CHECKPOINT_MAGIC + size + blob))
        if trailer != struct.pack("<I", crc):
            raise ConfigError(f"{path}: checksum mismatch")
        model_tensors = tensor_shapes(cfg)
        if tensors != model_tensors:
            got, want = next(pair for pair in zip_longest(tensors, model_tensors)
                             if pair[0] != pair[1])
            raise ConfigError(f"{path}: the header lists {len(tensors)} tensors, "
                              f"the model it names has {len(model_tensors)}; the "
                              f"first that differs is {got}, where {want} belongs")
        with np.errstate(over="ignore"):  # a float64 above float32's range
            values = np.frombuffer(payload, dtype=stored).astype(dtype)
        bad = np.count_nonzero(~np.isfinite(values))
        if bad:
            raise ConfigError(f"{path}: {bad} stored values are NaN or infinite "
                              f"as {np.dtype(dtype).name}")
        pipeline = Pipeline(cfg, None, dtype)
        pipeline.values[...] = values
    return pipeline, header
