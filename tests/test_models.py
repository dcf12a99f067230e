import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib
from contextlib import closing
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from conftest import bounded
from sensecomm.channel import (
    ChannelConfig,
    PowerNormalize,
    SensingConfig,
)
from sensecomm.dataset import (
    RECORD_BYTES,
    SOURCE_DIM,
    TEST_FILE,
    batch_indices,
    load_cifar10,
)
from sensecomm import models
from sensecomm.errors import ConfigError
from sensecomm.models import (
    ENCODE_CHUNK,
    EVAL_BATCH,
    ExperimentConfig,
    ModelConfig,
    Pipeline,
    architecture,
    build,
    in_threads,
    load_checkpoint,
    predict_split,
    save_checkpoint,
    tensor_shapes,
    train,
)
from sensecomm.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
)
from sensecomm.nn.losses import cross_entropy, cross_entropy_logit_grad
from sensecomm.rng import Rng

AWGN = ChannelConfig("awgn", 3.0)
RAYLEIGH = ChannelConfig("rayleigh", 3.0)
SENSING = SensingConfig(-3.0, 6.0)


def network(net, n_c, mode="joint", seed=0):
    """One network of the ``n_c``-symbol model in ``mode``, from its table."""
    return build(net, architecture(ModelConfig(n_c, mode))[net], Rng(seed))


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
        net = network("image_encoder", 20)
        x = np.zeros((2, 32, 32, 3), dtype=np.float32)
        shapes = []
        for layer in net.layers:
            x = layer.forward(x)
            shapes.append(x.shape[1:])
        assert shapes == [
            (30, 30, 8), (30, 30, 8),       # conv1 + relu
            (28, 28, 4), (14, 14, 4),       # conv2 + pool
            (14, 14, 4), (14, 14, 4),       # relu + dropout
            (12, 12, 4), (6, 6, 4),         # conv3 + pool
            (6, 6, 4), (6, 6, 4),           # relu + dropout
            (144,), (128,), (128,), (20,),  # flatten, dense, relu, dense
            (20,),                          # power normalization
        ]

    def test_image_encoder_param_count(self):
        # (3*3*3*8+8) + (3*3*8*4+4) + (3*3*4*4+4) + (144*128+128) + (128*20+20)
        params = network("image_encoder", 20).params()
        assert sum(p.value.size for p in params) == 21_804

    @pytest.mark.parametrize("mode", ["joint", "sensing_only"])
    def test_tensor_shapes_are_the_built_pipelines(self, mode):
        for n_c in (2, 3, 4, 7, 20, 33, 64, 100):
            cfg = ModelConfig(n_c, mode)
            params = Pipeline(cfg, Rng(0)).params()
            assert tensor_shapes(cfg) == [(p.name, list(p.value.shape))
                                          for p in params], n_c

    def test_image_encoder_final_layer_small_output(self):
        net = network("image_encoder", 4)
        final = net.layers[-2]  # the last is the power normalization
        assert final.w.value.shape == (128, 4)
        assert final.w.value.size + final.b.value.size == 128 * 4 + 4

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_encoders_end_in_unit_power(self, training):
        """Each encoder's last layer scales every output row to squared
        norm n_c, one unit of power per symbol, in a training forward and
        in an eval forward alike."""
        rng = Rng(9) if training else None
        image = Rng(8).uniform(size=(3, 32, 32, 3)).astype(np.float32)
        echo = Rng(10).standard_normal((3, 6)).astype(np.float32)
        for net, x in ((network("image_encoder", 6), image),
                       (network("echo_encoder", 6, seed=1), echo)):
            out = net.forward(x, rng)
            assert np.allclose((out ** 2).sum(axis=1), 6.0, rtol=1e-5)

    def test_echo_encoder_default_widths(self):
        net = network("echo_encoder", 20)
        dense = [l for l in net.layers if isinstance(l, Dense)]
        assert [(d.w.value.shape) for d in dense] == [(20, 20), (20, 20), (20, 20)]

    def test_decoder_joint_widths(self):
        net = network("decoder", 20, "joint")
        dense = [l for l in net.layers if isinstance(l, Dense)]
        assert [d.w.value.shape for d in dense] == [(40, 40), (40, 20), (20, 2)]

    def test_decoder_sensing_only_widths(self):
        net = network("decoder", 20, "sensing_only")
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
        # a bool is an int to Python; an n_c above the source compresses nothing
        for n_c in (True, SOURCE_DIM + 1):
            with pytest.raises(ConfigError, match="output size"):
                ModelConfig(n_c, "joint")
        assert ModelConfig(SOURCE_DIM, "joint").n_c == SOURCE_DIM


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
                     dropout=rng if training else None)
        assert rng.uniform_sizes == sizes

    def test_untrained_loss_near_chance_level(self, synthetic_corpus):
        # an untrained model carries no information: loss sits at or above
        # ln 2, inflated by whatever overconfidence the random logits have
        # (measured spread over init seeds is about 0.7 to 1.6)
        ds = synthetic_corpus(64, 8, seed=20)
        losses = []
        for seed in (21, 22, 23):
            pipe = Pipeline(ModelConfig(20, "joint"), Rng(seed))
            probs = pipe.forward(ds.train.images(), ds.train.label2, AWGN,
                                 SENSING, rng=Rng(seed + 100),
                                 dropout=Rng(seed + 100))
            losses.append(cross_entropy(probs, ds.train.label2))
        assert all(math.log(2.0) - 0.15 < lo < 1.7 for lo in losses)
        assert min(losses) < math.log(2.0) + 0.15


# every Layer subclass, so a new one fails below until it is given an input
SLOT_NODES = ([cls.__name__ for cls in Layer.__subclasses__()]
              + ["Pipeline-joint", "Pipeline-sensing_only"])


def slot_node(name, training=True):
    """A node of the forward graph and a call of its forward on a small
    input. In training it is given an rng, so dropout draws a mask; a
    pipeline draws its links from one either way."""
    x4 = Rng(5).standard_normal((2, 6, 6, 3))
    x2 = Rng(6).standard_normal((2, 4))
    rng = Rng(7) if training else None
    if name.startswith("Pipeline-"):
        pipe = Pipeline(ModelConfig(4, name.removeprefix("Pipeline-")), Rng(1))
        x = Rng(2).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        return pipe, lambda: pipe.forward(x, np.array([0, 1]), AWGN, SENSING,
                                          rng=Rng(3),
                                          dropout=Rng(3) if training else None)
    if name == "PowerNormalize":
        norm = PowerNormalize()
        return norm, lambda: norm.forward(x2, rng)
    layer, x = {"Dense": (Dense(4, 3, Rng(0), np.float64), x2),
                "Conv2D": (Conv2D(3, 2, (3, 3), Rng(0), np.float64), x4),
                "MaxPool2D": (MaxPool2D(), x4),
                "ReLU": (ReLU(), x4),
                "Dropout": (Dropout(0.5), x4),
                "Flatten": (Flatten(), x4)}[name]
    return layer, lambda: layer.forward(x, rng)


def graph_nodes(node):
    """``node`` and, for a pipeline, every node its forward runs."""
    if not isinstance(node, Pipeline):
        return [node]
    return ([node] + node.image_encoder.layers + node.echo_encoder.layers
            + node.decoder.layers)


class TestSavedSlot:
    @pytest.mark.parametrize("name", SLOT_NODES)
    def test_forward_writes_only_saved(self, name):
        """A forward keeps what its backward needs in ``_saved`` and
        changes no other attribute of its node."""
        node, forward = slot_node(name)
        before = dict(vars(node))
        forward()
        after = vars(node)
        changed = {k for k in before.keys() | after.keys()
                   if before.get(k) is not after.get(k)}
        assert changed == {"_saved"}, sorted(changed)

    @pytest.mark.parametrize("name", SLOT_NODES)
    def test_forward_without_rng_writes_nothing(self, name):
        """A forward that no backward follows saves nothing, in the node
        or in any node it runs, so threads can share the node."""
        node, forward = slot_node(name, training=False)
        nodes = graph_nodes(node)
        before = [dict(vars(n)) for n in nodes]
        forward()
        for n, attrs in zip(nodes, before):
            assert vars(n) == attrs, type(n).__name__

    @pytest.mark.parametrize("name", SLOT_NODES)
    def test_backward_consumes_saved(self, name):
        """A backward empties the slot its forward filled, in the node and
        in every node a pipeline runs."""
        node, forward = slot_node(name)
        node.backward(np.ones_like(forward()))
        for n in graph_nodes(node):
            assert n._saved is None, type(n).__name__


@pytest.fixture(scope="module")
def eval_split(synthetic_corpus):
    """Several eval batches, the last of them partial."""
    return synthetic_corpus(1, 1000, seed=50).test


class TestPredictSplit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["joint", "sensing_only"])
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_labels_equal_at_any_cpu_count(self, kind, mode, dtype,
                                           eval_split, monkeypatch):
        """The eval batches on one, two and three threads give the same
        labels: each sample's draws are keyed by its index, whichever
        thread takes its batch. Each batch runs once, on no more threads
        than CPUs, and the threads switch as often as the interpreter
        allows."""
        # an init whose labels mix both classes in every mode and kind
        pipe = Pipeline(ModelConfig(4, mode), Rng(56), dtype)
        channel = ChannelConfig(kind, 3.0)
        ran, real = [], Pipeline.predict

        def predict(self, *args):
            ran.append((args[-1], threading.current_thread().name))
            return real(self, *args)

        monkeypatch.setattr(Pipeline, "predict", predict)
        labels, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as it can
        try:
            for cpus in (1, 2, 3):
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, cpus=cpus: set(range(cpus)))
                ran.clear()
                labels.append(bounded(lambda: predict_split(
                    pipe, eval_split, channel, SENSING, 55)))
                assert sorted(start for start, _ in ran) == list(
                    range(0, eval_split.n, EVAL_BATCH))
                threads = {name for _, name in ran}
                assert len(threads) <= cpus
                assert cpus > 1 or threads == {"caller"}
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(labels[0], labels[1])
        assert np.array_equal(labels[0], labels[2])
        # the labels depend on the draws, so a sample on wrong draws shows
        other = predict_split(pipe, eval_split, channel, SENSING, 59)
        assert not np.array_equal(labels[0], other)

    def test_failed_batch_stops_the_other_threads(self, eval_split, monkeypatch):
        """A batch that raises on the calling thread ends the evaluation at
        once, while the helper's batch is still in flight; the helper
        finishes that batch and takes no other."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        starts, helpers = [], []
        entered, released = threading.Event(), threading.Event()

        def predict(self, x, label2, channel_cfg, sensing_cfg, rng, start):
            starts.append(start)
            if threading.current_thread().name == "caller":
                assert entered.wait(10)
                raise RuntimeError("injected")
            helpers.append(threading.current_thread())
            entered.set()
            assert released.wait(10)  # ends after the calling thread raised
            return np.zeros(len(x), dtype=np.int64)

        monkeypatch.setattr(Pipeline, "predict", predict)
        pipe = Pipeline(ModelConfig(4, "joint"), Rng(56))
        with pytest.raises(RuntimeError, match="injected"):
            bounded(lambda: predict_split(pipe, eval_split, AWGN, SENSING, 55))
        released.set()
        helpers[0].join(10)
        assert not helpers[0].is_alive()
        # four batches: the first two, one taken by each thread
        assert sorted(starts) == [0, EVAL_BATCH]

    def test_labels_equal_at_any_eval_batch(self, eval_split, monkeypatch):
        """Eval batches of 64, 256 and 1,000 samples on one, two and three
        CPUs give the same labels: a sample's draws are keyed by its index
        in the split, not by its batch."""
        pipe = Pipeline(ModelConfig(4, "joint"), Rng(56))
        labels = []
        for batch in (64, 256, 1000):
            monkeypatch.setattr(models, "EVAL_BATCH", batch)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, cpus=cpus: set(range(cpus)))
                labels.append(bounded(lambda: predict_split(
                    pipe, eval_split, RAYLEIGH, SENSING, 55)))
        for other in labels[1:]:
            assert np.array_equal(labels[0], other)

    def test_two_threads_read_each_record_once(self, fake_cifar_dir,
                                               pixel_reads, monkeypatch):
        """Two eval threads over a loaded split read each test record
        once, one read per batch, and nothing ahead of the batches."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        test = load_cifar10(fake_cifar_dir).test
        pipe = Pipeline(ModelConfig(4, "joint"), Rng(57))
        bounded(lambda: predict_split(pipe, test, AWGN, SENSING, 58))
        assert sorted(read[2:] for read in pixel_reads()) == [
            (TEST_FILE, first, min(EVAL_BATCH, test.n - first))
            for first in range(0, test.n, EVAL_BATCH)]

    def test_loaded_split_memory_is_bounded(self, fake_cifar_dir,
                                            monkeypatch):
        """Evaluating a loaded 10,000-record split holds one batch of
        records at a time, not the split's 29 MiB of pixels."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        test = load_cifar10(fake_cifar_dir).test
        pipe = Pipeline(ModelConfig(20, "joint"), Rng(57))
        tracemalloc.start()
        try:
            predict_split(pipe, test, AWGN, SENSING, 58)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak / 2**20

    def test_loaded_split_labels_equal_array_split(self, fake_cifar_dir,
                                                   monkeypatch):
        """A loaded split gives, on one, two and three CPUs, the labels of
        one whole-batch pass over the same records read whole from the
        file."""
        n = 1000
        raw = np.fromfile(fake_cifar_dir / TEST_FILE, np.uint8)
        planar = raw.reshape(-1, RECORD_BYTES)[:n, 1:].reshape(n, 3, 32, 32)
        images = np.ascontiguousarray(planar.transpose(0, 2, 3, 1)) / np.float32(255)
        loaded = load_cifar10(fake_cifar_dir).test.subset(n)
        pipe = Pipeline(ModelConfig(4, "joint"), Rng(56))
        want = pipe.predict(images, loaded.label2, RAYLEIGH, SENSING, Rng(55))
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)))
            got = bounded(lambda: predict_split(pipe, loaded, RAYLEIGH,
                                                SENSING, 55))
            assert np.array_equal(got, want), cpus
        # the labels depend on the pixels, so a wrong record would show
        other = pipe.predict(images[::-1].copy(), loaded.label2, RAYLEIGH,
                             SENSING, Rng(55))
        assert not np.array_equal(other, want)


class TestInThreads:
    def test_nested_call_runs_on_the_calling_thread(self, monkeypatch):
        """A call made from inside a task runs its tasks on that task's
        thread and starts no thread: only the outer call starts threads,
        one per CPU beyond the calling thread."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        real_start, starters = threading.Thread.start, []

        def start(thread):
            if thread.name != "caller":  # not the test's own thread
                starters.append(threading.current_thread().name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)

        def outer(task):
            inner = in_threads(lambda _: threading.current_thread(), [0, 1, 2, 3])
            return threading.current_thread(), list(inner)

        results = bounded(lambda: list(in_threads(outer, [0, 1, 2])))
        assert starters == ["caller"] * 2
        assert len(results) == 3
        for thread, inner in results:
            assert inner == [thread] * 4

    def test_caller_takes_the_next_task_while_a_helper_works(self,
                                                             monkeypatch):
        """Task 1 ends only once task 2 has started. Whichever thread runs
        task 1, the other takes task 2 meanwhile, the calling thread
        included: it does not wait for a helper's result while a task is
        left to take."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        two = threading.Event()

        def task(i):
            if i == 2:
                two.set()
            if i == 1:
                assert two.wait(10)
            return i

        assert drain(task, 4) == ([0, 1, 2, 3], [])

    def test_callers_interrupt_is_raised_at_once(self, monkeypatch):
        """A KeyboardInterrupt from a task that the calling thread took
        ahead of its turn is raised at once, while the helper's earlier
        task is still in flight; the helper then finishes it."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        held, holding, released = [], threading.Event(), threading.Event()

        def task(i):
            if threading.current_thread().name == "caller":
                if i > 0:
                    raise KeyboardInterrupt
                assert holding.wait(10)
                return i
            held.append((i, threading.current_thread()))
            holding.set()
            assert released.wait(10)  # ends after the call has raised
            return i

        got, raised = drain(task, 6)
        (i, helper), = held
        assert helper.is_alive()  # still in task i
        assert [type(exc) for exc in raised] == [KeyboardInterrupt]
        assert got == list(range(i))
        released.set()
        helper.join(10)
        assert not helper.is_alive()

    def test_helper_failure_is_raised_in_its_turn(self, monkeypatch):
        """A helper's task fails while the calling thread runs another:
        the call yields every result before the failed task, in order,
        and then raises its error."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        failed, failing = [], threading.Event()

        def task(i):
            if threading.current_thread().name != "caller":
                failed.append((i, threading.current_thread()))
                failing.set()
                raise ValueError(f"task {i}")
            assert failing.wait(10)
            failed[0][1].join(10)  # past the failure
            return i

        got, raised = drain(task, 9)
        (i, helper), = failed
        assert [str(exc) for exc in raised] == [f"task {i}"]
        assert got == list(range(i))
        assert not helper.is_alive()

    def test_failure_stops_the_callers_own_tasks(self, monkeypatch):
        """The calling thread's second task is in flight when the helper's
        task fails: the caller ends it, takes no other task, and raises the
        failure in its turn."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        mine, failed = [], []
        second, failing = threading.Event(), threading.Event()

        def task(i):
            if threading.current_thread().name != "caller":
                failed.append((i, threading.current_thread()))
                assert second.wait(10)
                failing.set()
                raise ValueError(f"task {i}")
            mine.append(i)
            if len(mine) == 2:
                second.set()
                assert failing.wait(10)
                failed[0][1].join(10)  # past the failure
            return i

        got, raised = drain(task, 9)
        (i, helper), = failed
        assert [str(exc) for exc in raised] == [f"task {i}"]
        assert got == list(range(i))
        assert sorted(mine + [i]) == [0, 1, 2]
        assert not helper.is_alive()

    def test_later_helper_failure_does_not_hang(self, monkeypatch):
        """Three threads: task 2 fails while tasks 0 and 1 are still in
        flight. Both end, and the call yields their results, then raises
        task 2's error; if the calling thread ran task 2, it raises at
        once. No thread takes a task after task 2."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        ran, failing = {}, threading.Event()

        def task(i):
            ran[i] = threading.current_thread()
            if i == 2:
                failing.set()
                raise ValueError("task 2")
            assert failing.wait(10)
            ran[2].join(10)  # past task 2's failure
            return i

        got, raised = drain(task, 9)
        assert [str(exc) for exc in raised] == ["task 2"]
        assert got == ([] if ran[2].name == "caller" else [0, 1])
        for i in (0, 1):
            ran[i].join(10)
            assert not ran[i].is_alive()
        assert sorted(ran) == [0, 1, 2]

    def test_closing_early_stops_the_helpers(self, monkeypatch):
        """A caller that stops after the first result does not wait for
        the helper's task in flight; the helper finishes it and takes no
        other."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        ran, held = {}, []
        holding, released = threading.Event(), threading.Event()

        def task(i):
            ran[i] = threading.current_thread()
            if ran[i].name == "caller":
                assert holding.wait(10)
            elif i > 0:  # held in task 0, it would hold the first result
                held.append(ran[i])
                holding.set()
                assert released.wait(10)  # ends after the caller has closed
            return i

        assert drain(task, 6, take=1) == ([0], [])
        taken = sorted(ran)
        released.set()
        helper, = held
        helper.join(10)
        assert not helper.is_alive()
        assert sorted(ran) == taken


def drain(task, n, take=None):
    """Run ``in_threads(task, range(n))`` through ``bounded``, so that a
    call that hangs fails the test, and stop it after ``take`` results
    (all by default). Returns the results yielded and the exceptions
    raised, ``KeyboardInterrupt`` included."""
    got, raised = [], []

    def consume():
        try:
            with closing(in_threads(task, list(range(n)))) as results:
                for result in islice(results, take):
                    got.append(result)
        except BaseException as exc:
            raised.append(exc)

    bounded(consume)
    return got, raised


def encoder_rows(pipe, monkeypatch):
    """Spy on the image encoder: the list it returns gets the row count of
    every batch or piece the encoder is given."""
    rows, real = [], pipe.image_encoder.forward

    def forward(x, rng=None):
        rows.append(len(x))
        return real(x, rng)

    monkeypatch.setattr(pipe.image_encoder, "forward", forward)
    return rows


class TestEncodeChunks:
    """An eval forward runs the image encoder over pieces of at most
    ``ENCODE_CHUNK`` rows. Its outputs are bitwise those of a reference
    pass that runs the encoder over the whole batch: ``ENCODE_CHUNK``
    raised to the largest batch given, which the spy shows as one
    piece."""

    SIZES = [1, 2, 63, 64, 65, 127, 129, 256]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["joint", "sensing_only"])
    def test_predict_is_bitwise_the_whole_batch_pass(self, mode, dtype,
                                                     monkeypatch):
        pipe = Pipeline(ModelConfig(20, mode), Rng(70), dtype)
        rows = encoder_rows(pipe, monkeypatch)
        x = Rng(71).uniform(size=(256, 32, 32, 3)).astype(np.float32)
        labels = (Rng(72).uniform(size=256) < 0.4).astype(np.int64)

        def outputs(n):
            probs = pipe.forward(x[:n], labels[:n], RAYLEIGH, SENSING, rng=Rng(n))
            hat = pipe.predict(x[:n], labels[:n], RAYLEIGH, SENSING, Rng(n))
            return probs.tobytes(), hat.tobytes()

        for n in self.SIZES:
            rows.clear()
            chunked = outputs(n)
            assert sum(rows) == 2 * n and max(rows) <= ENCODE_CHUNK, (n, rows)
            # a 1-row piece would take numpy's GEMV path, with other rounding
            assert n == 1 or min(rows) > 1, (n, rows)
            rows.clear()
            with monkeypatch.context() as whole:
                whole.setattr(models, "ENCODE_CHUNK", max(self.SIZES))
                assert outputs(n) == chunked, n
            assert rows == [n, n]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["joint", "sensing_only"])
    def test_predict_split_is_bitwise_the_whole_batch_pass(self, mode, dtype,
                                                           eval_split,
                                                           monkeypatch):
        pipe = Pipeline(ModelConfig(20, mode), Rng(73), dtype)
        for n in self.SIZES + [eval_split.n]:
            split = eval_split.subset(n)
            chunked = predict_split(pipe, split, RAYLEIGH, SENSING, 74)
            with monkeypatch.context() as whole:
                whole.setattr(models, "ENCODE_CHUNK", EVAL_BATCH)
                rows = encoder_rows(pipe, whole)
                reference = predict_split(pipe, split, RAYLEIGH, SENSING, 74)
            assert sorted(rows) == sorted(map(len, batch_indices(n, EVAL_BATCH)))
            assert chunked.tobytes() == reference.tobytes(), n

    @pytest.mark.parametrize("dtype, bound_mib", [(np.float32, 16),
                                                  (np.float64, 40)])
    def test_predict_memory_is_bounded(self, dtype, bound_mib):
        """One 256-sample predict allocates at most a few pieces' worth.
        The image encoder over the whole batch peaked at 32.8 MiB in
        float32 and 71.7 MiB in float64; in 64-row pieces, 8.2 and
        22.5 MiB."""
        pipe = Pipeline(ModelConfig(20, "joint"), Rng(75), dtype)
        x = Rng(76).uniform(size=(256, 32, 32, 3)).astype(np.float32)
        labels = (Rng(77).uniform(size=256) < 0.4).astype(np.int64)
        tracemalloc.start()
        try:
            pipe.predict(x, labels, AWGN, SENSING, Rng(78))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, peak / 2**20


class TestPipelineBackward:
    @pytest.mark.parametrize("mode", ["joint", "sensing_only"])
    def test_input_grad_flag_leaves_param_grads_bitwise(self, mode):
        pipe = Pipeline(ModelConfig(6, mode), Rng(15))
        x = Rng(16).uniform(size=(4, 32, 32, 3)).astype(np.float32)
        labels = np.array([0, 1, 1, 0])

        def forward():  # the same draws each time
            return pipe.forward(x, labels, AWGN, SENSING, rng=Rng(17),
                                dropout=Rng(17))

        grad = cross_entropy_logit_grad(forward(), labels)
        grad_x = pipe.backward(grad)
        assert grad_x.shape == x.shape
        with_input = [p.grad.copy() for p in pipe.params()]
        forward()  # a backward consumes what its forward saved
        assert pipe.backward(grad, input_grad=False) is None
        for p, expected in zip(pipe.params(), with_input):
            assert np.array_equal(p.grad, expected), p.name

    @pytest.mark.parametrize("dtype, bound_mib", [(np.float32, 14),
                                                  (np.float64, 28)])
    def test_training_step_memory_is_bounded(self, dtype, bound_mib):
        """A batch-64 training step holds 11.0 MiB of saved activations
        after its forward in float32. The backward frees each layer's as it
        passes it, so the step peaks at 11.4 MiB (23.7 in float64); with
        every layer's kept until the end, it peaked at 19.1 (38.2) during
        conv2's input gradient."""
        pipe = Pipeline(ModelConfig(20, "joint"), Rng(18), dtype)
        x = Rng(19).uniform(size=(64, 32, 32, 3)).astype(np.float32)
        labels = (Rng(20).uniform(size=64) < 0.5).astype(np.int64)
        tracemalloc.start()
        try:
            probs = pipe.forward(x, labels, AWGN, SENSING, rng=Rng(21),
                                 dropout=Rng(21))
            pipe.backward(cross_entropy_logit_grad(probs, labels),
                          input_grad=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, peak / 2**20


FAULTS = """
import os, resource, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from sensecomm.dataset import Dataset, load_cifar10
from sensecomm.models import ExperimentConfig, Pipeline, predict_split, train
from sensecomm.rng import Rng

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

ds = load_cifar10(sys.argv[2])
cfg = ExperimentConfig(epochs=3)
marks = []
if sys.argv[1] == "eval":
    pipe, test = Pipeline(cfg.model(), Rng(cfg.seed)), ds.test.subset(1024)
    for _ in range(2):
        predict_split(pipe, test, cfg.channel(), cfg.sensing(), cfg.eval_seed)
        marks.append(faults())
else:
    train(Dataset(ds.train.subset(640), ds.test.subset(256)), cfg,
          lambda line: marks.append(faults()))
print(marks[-1] - marks[-2])
"""


@pytest.mark.parametrize("case", ["eval", "train"])
def test_repeated_work_faults_no_memory_back_in(case, fake_cifar_dir):
    """A second evaluation of 1,024 samples, or a training's third epoch
    (10 steps and a 256-sample evaluation), reuses the heap the one before
    it freed, so it takes under 1,000 minor page faults, where glibc's
    dynamic thresholds cost the evaluation ~12,000 and, with every layer
    releasing its saved state, the epoch ~26,000. It runs in a fresh
    process, so that memory this one freed earlier sets no threshold, and
    on one CPU, so that eval runs on the calling thread alone and the count
    does not depend on which thread ran which batch."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS, case, str(fake_cifar_dir)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120)
    assert int(proc.stdout) < 1000, proc.stdout


class TestTraining:
    def test_bitwise_identical_trajectories(self, synthetic_corpus):
        ds = synthetic_corpus(192, 64, seed=30)
        cfg = ExperimentConfig("awgn", 3.0, -3.0, 6.0, n_c=4, epochs=1,
                               batch_size=64, seed=9, eval_seed=99, mode="joint")
        pipe_a, hist_a, preds_a = train(ds, cfg)
        pipe_b, hist_b, preds_b = train(ds, cfg)
        for pa, pb in zip(pipe_a.params(), pipe_b.params()):
            assert np.array_equal(pa.value, pb.value), pa.name
        assert hist_a == hist_b
        assert np.array_equal(preds_a, preds_b)

    def test_adam_step_count(self, synthetic_corpus):
        ds = synthetic_corpus(130, 32, seed=31)  # 3 batches of 64 -> 2+ partial
        cfg = ExperimentConfig("awgn", 3.0, -3.0, 6.0, n_c=4, epochs=2,
                               batch_size=64, seed=1, eval_seed=2, mode="joint")
        pipe, hist, _ = train(ds, cfg)
        assert len(hist) == 2
        # epochs * ceil(130/64) batches each
        assert [h["epoch"] for h in hist] == [1, 2]

    def test_float64_pipeline_casts_float32_batches(self, synthetic_corpus,
                                                    monkeypatch):
        ds = synthetic_corpus(64, 32, seed=32)
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

    @pytest.mark.parametrize("mode", ["joint", "sensing_only"])
    def test_zero_rows_send_no_gradient_spike(self, mode, synthetic_corpus,
                                              monkeypatch):
        """The first batch of this setup meets all-zero echo-encoder rows.
        They carry no signal, so the first Adam step sees no spike on the
        bias behind them: 3.5e9 (joint) and 1.0e10 (sensing-only) when
        their gradient was sqrt(n_c) * g / NORM_EPS, below 0.05 since."""
        zero_rows, real_norm = [], PowerNormalize.forward

        def norm(self, s, rng=None):
            zero_rows.append(int((np.abs(s).max(axis=1) == 0).sum()))
            return real_norm(self, s, rng)

        class FirstStep(Exception):
            pass

        def step(self):
            raise FirstStep({p.name: float(np.abs(p.grad).max())
                             for p in self.params})

        monkeypatch.setattr(PowerNormalize, "forward", norm)
        monkeypatch.setattr(models.Adam, "step", step)
        with pytest.raises(FirstStep) as first:
            train(synthetic_corpus(2000, 800, seed=50),
                  ExperimentConfig("rayleigh", n_c=4, seed=3, mode=mode))
        assert sum(zero_rows) > 0  # the setup still meets a zero row
        grads = first.value.args[0]
        assert grads["echo_encoder.dense3.b"] < 1e3, grads


def test_both_modes_see_the_same_draws(synthetic_corpus, monkeypatch):
    """At one seed, joint and sensing-only draw bitwise-equal sensing and
    second-round realizations and dropout masks, in a training step and in
    the evaluation after it; joint mode adds its first-round link."""
    ds = synthetic_corpus(64, 8, seed=33)
    real_sample, real_dropout = models.sample_realization, Dropout.forward

    def draws(mode):
        links, masks = [], []

        def sample(*args, **kwargs):
            links.append(real_sample(*args, **kwargs))
            return links[-1]

        def dropout(self, x, rng=None):
            out = real_dropout(self, x, rng)
            if rng is not None:
                masks.append(self._saved.copy())
            return out

        with monkeypatch.context() as spy:
            spy.setattr(models, "sample_realization", sample)
            spy.setattr(Dropout, "forward", dropout)
            train(ds, ExperimentConfig("rayleigh", n_c=4, epochs=1,
                                       seed=34, eval_seed=35, mode=mode))
        return links, masks

    joint, joint_masks = draws("joint")
    sensing, sensing_masks = draws("sensing_only")
    # one training forward, then one eval forward
    assert len(joint) == 6 and len(sensing) == 4
    del joint[::3]  # the first-round links
    for a, b in zip(joint, sensing, strict=True):
        assert np.array_equal(a.gain, b.gain)
        assert np.array_equal(a.noise, b.noise)
    assert len(joint_masks) == 2
    for a, b in zip(joint_masks, sensing_masks, strict=True):
        assert np.array_equal(a, b)


def checkpoint_bytes(head: bytes, payload: bytes = b"") -> bytes:
    """A checkpoint file around a raw JSON ``head`` and ``payload``: the
    magic, the header length, both, and the CRC-32 of all of it."""
    body = b"SCM2" + struct.pack("<I", len(head)) + head + payload
    return body + struct.pack("<I", zlib.crc32(body))


def checkpoint_parts(blob: bytes) -> tuple[bytes, bytes]:
    """The raw JSON header and the payload of a checkpoint file's bytes."""
    (hlen,) = struct.unpack("<I", blob[4:8])
    return blob[8:8 + hlen], blob[8 + hlen:-4]


def rewrite_checkpoint(path, edit_header=None, payload_end=None, extra=b""):
    """Rewrite a saved checkpoint: edit its JSON header in place, cut the
    payload to ``payload_end`` bytes and append ``extra``. The checksum is
    rewritten to match, so a load reaches the check that the edit aims at."""
    head, payload = checkpoint_parts(path.read_bytes())
    header = json.loads(head)
    if edit_header is not None:
        edit_header(header)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(checkpoint_bytes(head, payload[:payload_end] + extra))


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

    @pytest.mark.parametrize("mode", ["joint", "sensing_only"])
    def test_save_load_save_is_byte_equal(self, tmp_path, mode):
        """A float32 pipeline saved, loaded and saved again writes the same
        bytes; loaded as float64, every value is the payload's, cast."""
        pipe = Pipeline(ModelConfig(6, mode), Rng(45))
        draw = Rng(46)
        for p in pipe.params():  # biases start at zero: make them count
            p.value[...] = draw.standard_normal(p.value.shape)
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_checkpoint(pipe, first, seed=7)
        save_checkpoint(load_checkpoint(first)[0], second, seed=7)
        assert first.read_bytes() == second.read_bytes()
        wide, _ = load_checkpoint(first, np.float64)
        for a, b in zip(pipe.params(), wide.params()):
            assert b.value.dtype == np.float64
            assert b.value.tobytes() == a.value.astype(np.float64).tobytes(), a.name

    def test_header_is_pinned(self, tmp_path):
        """The on-disk layout of a 4-symbol float32 joint model: the SCM2
        magic, a header with one encoder size and the payload's dtype, and
        the CRC-32 of every byte before the trailer."""
        path = tmp_path / "model.bin"
        save_checkpoint(Pipeline(ModelConfig(4, "joint"), Rng(7)), path, seed=7)
        blob = path.read_bytes()
        head, payload = checkpoint_parts(blob)
        assert blob[:4] == b"SCM2"
        assert head.decode() == GOLDEN_HEADER
        assert blob == checkpoint_bytes(head, payload)

    def test_scm1_file_rejected(self, saved):
        """A checkpoint in the SCM1 layout (two encoder sizes, no checksum)
        is refused by its magic, and the message names the format read."""
        head, payload = checkpoint_parts(saved.read_bytes())
        header = json.loads(head)
        n_c = header["model"].pop("n_c")
        header["model"].update(n_c1=n_c, n_c2=n_c)
        head = json.dumps(header, sort_keys=True).encode("utf-8")
        saved.write_bytes(b"SCM1" + struct.pack("<I", len(head)) + head + payload)
        with pytest.raises(ConfigError,
                           match=r"not a checkpoint file \(expected SCM2\)"):
            load_checkpoint(saved)

    def test_flipped_trailer_rejected(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[-1] ^= 0x80
        saved.write_bytes(blob)
        with pytest.raises(ConfigError, match="checksum"):
            load_checkpoint(saved)

    def test_flipped_payload_rejected_before_build(self, saved, no_build):
        """A payload bit flip is caught by the checksum before any
        pipeline is built for the file."""
        blob = bytearray(saved.read_bytes())
        blob[-100] ^= 0x01
        saved.write_bytes(blob)
        with pytest.raises(ConfigError, match="checksum"):
            load_checkpoint(saved)

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

    @pytest.fixture
    def no_build(self, saved, monkeypatch):
        """Once ``saved`` is written, building a pipeline fails the test."""
        def no_build(*args, **kwargs):
            raise AssertionError("a pipeline was built for a refused file")

        monkeypatch.setattr(models, "Pipeline", no_build)

    def test_failed_save_keeps_the_old_file(self, saved, fail_writes_midway):
        """A save that fails midway leaves the earlier checkpoint's bytes
        and no temporary file."""
        before = saved.read_bytes()
        fail_writes_midway()
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(Pipeline(ModelConfig(6, "joint"), Rng(45)), saved)
        assert saved.read_bytes() == before
        assert os.listdir(saved.parent) == [saved.name]

    def test_missing_tensor_rejected(self, saved, no_build):
        # drop the last tensor from both header and payload: everything that
        # is listed reads cleanly, and the last bias would stay at init
        rewrite_checkpoint(saved, lambda h: h["tensors"].pop(),
                           payload_end=-4 * 2)
        with pytest.raises(ConfigError, match="tensors"):
            load_checkpoint(saved)

    def test_renamed_tensor_rejected(self, saved, no_build):
        def rename(header):
            header["tensors"][0]["name"] = "image_encoder.conv9.w"
        rewrite_checkpoint(saved, rename)
        with pytest.raises(ConfigError, match="conv9"):
            load_checkpoint(saved)

    def test_trailing_bytes_rejected(self, saved):
        rewrite_checkpoint(saved, extra=b"\x00" * 4)
        with pytest.raises(ConfigError, match="trailing"):
            load_checkpoint(saved)

    def test_largest_header_without_data_fails_before_build(self, saved):
        """A header at the largest n_c over no tensor data is refused by
        its byte count, not after building a pipeline of ~85M parameters."""
        rewrite_checkpoint(saved, lambda h: h["model"].update(
            n_c=SOURCE_DIM), payload_end=0)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="truncated"):
                load_checkpoint(saved)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("tensors", ["none", "another-model"])
    def test_header_naming_another_model_fails_before_build(
            self, saved, tensors, no_build):
        """A header whose tensor list is not that of the model it names is
        refused before that model is built, even when the file size and the
        checksum agree with the header: the 84-byte file that names the
        largest joint model over no tensors, and a 4-symbol model's intact
        tensors and payload under that name."""
        if tensors == "none":
            saved.write_bytes(checkpoint_bytes(
                b'{"dtype": "<f4", "model": {"n_c": 3072, "mode": "joint"}, '
                b'"tensors": []}'))
            assert saved.stat().st_size == 84
        else:
            rewrite_checkpoint(saved, lambda h: h["model"].update(n_c=SOURCE_DIM))
        with pytest.raises(ConfigError, match="tensors, the model it names has 22;"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("shape", [[4.0, 4], [0, 4], -4, [True, 4],
                                       [3.0, 3, 3, 8]])
    def test_bad_tensor_shape_rejected(self, saved, shape):
        def reshape(header):
            header["tensors"][0]["shape"] = shape
        rewrite_checkpoint(saved, reshape)
        with pytest.raises(ConfigError, match="positive integers"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("mode", ["joint", "sensing_only"])
    def test_float64_round_trip_is_bitwise(self, tmp_path, mode):
        """A float64 model is saved in float64: loaded back as float64,
        every value is the original's, bit for bit."""
        pipe = Pipeline(ModelConfig(4, mode), Rng(47), np.float64)
        draw = Rng(48)
        for p in pipe.params():  # biases start at zero: make them count
            p.value[...] = draw.standard_normal(p.value.shape)
        path = tmp_path / "model.bin"
        save_checkpoint(pipe, path)
        loaded, header = load_checkpoint(path, np.float64)
        assert header["dtype"] == "<f8"
        for a, b in zip(pipe.params(), loaded.params()):
            assert b.value.tobytes() == a.value.tobytes(), a.name

    @pytest.mark.parametrize("dtype", ["<f2", ">f4", "float32", 4, None,
                                       pytest.param(..., id="missing")])
    def test_unknown_dtype_rejected(self, saved, dtype):
        def edit(header):
            if dtype is ...:
                del header["dtype"]
            else:
                header["dtype"] = dtype
        rewrite_checkpoint(saved, edit)
        with pytest.raises(ConfigError, match="dtype"):
            load_checkpoint(saved)


GOLDEN_HEADER = (
    '{"dtype": "<f4", '
    '"model": {"mode": "joint", "n_c": 4}, "seed": 7, "tensors": ['
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
