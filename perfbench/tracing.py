"""Spans around the package's public callables, installed from outside.

``Tracer.install`` replaces public methods and functions of ``sensecomm``'s
``nn``, ``channel``, ``rng``, ``dataset``, ``models`` and ``harness`` modules
with wrappers that record one span per call: a name, the parent span that was
open when the call started, and start and end times in nanoseconds. A
function imported by name into another module (``from .nn import
cross_entropy``) is replaced there too, so every call site is seen.
``uninstall`` puts the originals back. The package's source is not edited.

Spans stay in memory until ``take`` hands them over; ``summarize`` turns the
spans of the traced jobs into the per-layer metrics. A span's self time is
its duration minus the durations of its direct children, which never
overlap because the package runs on one thread.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

from sensecomm import channel, dataset, harness, models, rng
from sensecomm.nn import layers, losses, optim

NS_PER_MS = 1e6
NS_PER_S = 1e9


def _conv_name(suffix):
    # Conv2D keeps no name of its own; its weight is "<net>.conv<k>.w".
    return lambda layer: f"nn.{layer.w.name.split('.')[-2]}.{suffix}"


# (owner, attribute, span name or callable(self) -> span name)
METHODS = [
    (layers.Conv2D, "forward", _conv_name("fwd")),
    (layers.Conv2D, "backward", _conv_name("bwd")),
    (layers.MaxPool2D, "forward", "nn.maxpool.fwd"),
    (layers.MaxPool2D, "backward", "nn.maxpool.bwd"),
    (layers.ReLU, "forward", "nn.relu.fwd"),
    (layers.ReLU, "backward", "nn.relu.bwd"),
    (layers.Dropout, "forward", "nn.dropout.fwd"),
    (layers.Dropout, "backward", "nn.dropout.bwd"),
    (layers.Dense, "forward", "nn.dense.fwd"),
    (layers.Dense, "backward", "nn.dense.bwd"),
    (optim.Adam, "step", "nn.adam.step"),
    (channel.PowerNormalize, "forward", "channel.norm.fwd"),
    (channel.PowerNormalize, "backward", "channel.norm.bwd"),
    (channel.Transmission, "forward", "channel.tx.fwd"),
    (channel.Transmission, "backward", "channel.tx.bwd"),
    (models.Pipeline, "__init__", "models.pipeline.init"),
    (models.Pipeline, "forward", "models.pipeline.fwd"),
    (models.Pipeline, "backward", "models.pipeline.bwd"),
    (models.Pipeline, "predict", "models.predict"),
]

FUNCTIONS = [
    (losses, "cross_entropy", "nn.loss"),
    (losses, "cross_entropy_logit_grad", "nn.loss"),
    (channel, "sample_realization", "channel.sample"),
    (dataset, "load_cifar10", "dataset.load"),
    (models, "train", "models.train"),
    (models, "accuracy_on", "models.epoch_eval"),
    (models, "load_checkpoint", "models.checkpoint_load"),
    (harness, "run_experiment", "harness.point"),
    (harness, "evaluate", "harness.evaluate"),
    (harness, "sweep_output_size", "harness.sweep"),
    (harness, "to_json", "harness.report"),
]

# Rng draw methods whose returned elements are counted (no span).
DRAWS = [("standard_normal", "normal"), ("uniform", "uniform")]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, parent index or -1, start_ns, end_ns)
        self.draws = {"normal": 0, "uniform": 0}
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if fixed else name(args[0])
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (label, parent, t0, t1)
        return wrapper

    def _count(self, kind, fn):
        draws = self.draws

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            draws[kind] += getattr(out, "size", 1)
            return out
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for cls, attr, name in METHODS:
            self._set(cls, attr, self._span(name, cls.__dict__[attr]))
        for attr, kind in DRAWS:
            self._set(rng.Rng, attr, self._count(kind, rng.Rng.__dict__[attr]))
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            wrapped = self._span(name, original)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("sensecomm")
                        and getattr(mod, attr, None) is original):
                    self._set(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> tuple[list, dict]:
        """Hand over the spans and draw counts recorded so far and start
        afresh. Only called while no span is open."""
        spans, draws = list(self.spans), dict(self.draws)
        self.spans.clear()
        self.draws.update(normal=0, uniform=0)
        return spans, draws


def _pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(jobs: list[tuple[list, dict]], setup_spans: list) -> dict:
    """Per-layer metrics from the spans of the traced jobs and of set-up.

    Layer forward times are per ``Pipeline.forward`` call and backward times
    per ``Pipeline.backward`` call, so on a training workload they add up
    to a share of one step.
    """
    total = defaultdict(int)       # name -> summed duration, ns
    calls = defaultdict(int)       # name -> number of spans
    durs = defaultdict(list)       # name -> durations, ns
    train_self = 0                 # self time of models.train spans, ns
    steps = []                     # step intervals, ns
    sweep_busy = 0                 # harness.point time inside sweeps, ns
    for spans, _ in jobs:
        child = [0] * len(spans)
        adam_ends = defaultdict(list)
        for name, parent, t0, t1 in spans:
            d = t1 - t0
            total[name] += d
            calls[name] += 1
            durs[name].append(d)
            if parent >= 0:
                child[parent] += d
            if name == "nn.adam.step":
                adam_ends[parent].append(t1)
            if name == "harness.point" and parent >= 0 \
                    and spans[parent][0] == "harness.sweep":
                sweep_busy += d
        for i, (name, _, t0, t1) in enumerate(spans):
            if name == "models.train":
                train_self += t1 - t0 - child[i]
        # A step runs from the end of one Adam update to the end of the next
        # in the same training run, so it includes the batch gather.
        for ends in adam_ends.values():
            steps.extend(b - a for a, b in zip(ends, ends[1:]))

    n_fwd = calls["models.pipeline.fwd"]
    n_bwd = calls["models.pipeline.bwd"]
    n_step = calls["nn.adam.step"]

    def per(name, n, unit=NS_PER_MS):
        return total[name] / n / unit if n else 0.0

    def mean(name, unit):
        return per(name, calls[name], unit)

    out = {}
    for layer in ("conv1", "conv2", "conv3", "maxpool", "relu", "dense"):
        out[f"nn.{layer}.bwd_ms"] = per(f"nn.{layer}.bwd", n_bwd)
    out["nn.adam.step_ms"] = mean("nn.adam.step", NS_PER_MS)
    out["nn.loss_ms"] = per("nn.loss", n_step)
    for layer in ("conv1", "conv2", "conv3", "maxpool", "relu", "dropout", "dense"):
        out[f"nn.{layer}.fwd_ms"] = per(f"nn.{layer}.fwd", n_fwd)
    out["channel.sample_ms"] = per("channel.sample", n_fwd)
    out["channel.norm.fwd_ms"] = per("channel.norm.fwd", n_fwd)
    out["channel.norm.bwd_ms"] = per("channel.norm.bwd", n_bwd)
    out["channel.tx_ms"] = (per("channel.tx.fwd", n_fwd)
                            + per("channel.tx.bwd", n_fwd))
    out["rng.normal_draws"] = statistics.median(d["normal"] for _, d in jobs)
    out["rng.uniform_draws"] = statistics.median(d["uniform"] for _, d in jobs)

    setup = defaultdict(list)
    for name, _, t0, t1 in setup_spans:
        setup[name].append(t1 - t0)
    out["dataset.load_s"] = statistics.median(setup["dataset.load"]) / NS_PER_S
    out["models.checkpoint_load_ms"] = (
        statistics.median(setup["models.checkpoint_load"]) / NS_PER_MS
        if setup["models.checkpoint_load"] else 0.0)

    out["models.step_ms_p50"] = _pct(steps, 0.50) / NS_PER_MS
    out["models.step_ms_p95"] = _pct(steps, 0.95) / NS_PER_MS
    out["models.step_count"] = len(steps)
    out["models.pipeline.fwd_ms"] = mean("models.pipeline.fwd", NS_PER_MS)
    out["models.pipeline.bwd_ms"] = mean("models.pipeline.bwd", NS_PER_MS)
    out["models.train_loop_self_ms"] = train_self / n_step / NS_PER_MS if n_step else 0.0
    out["models.epoch_eval_s"] = mean("models.epoch_eval", NS_PER_S)
    predict = durs["models.predict"]
    out["models.predict_batch_ms_p50"] = _pct(predict, 0.50) / NS_PER_MS
    out["models.predict_batch_ms_p95"] = _pct(predict, 0.95) / NS_PER_MS
    out["models.predict_batch_count"] = len(predict)
    out["models.pipeline_build_ms"] = mean("models.pipeline.init", NS_PER_MS)

    out["harness.point_s_p50"] = _pct(durs["harness.point"], 0.50) / NS_PER_S
    out["harness.evaluate_s"] = mean("harness.evaluate", NS_PER_S)
    out["harness.report_ms"] = mean("harness.report", NS_PER_MS)
    out["harness.sweep_busy_ratio"] = (sweep_busy / total["harness.sweep"]
                                       if total["harness.sweep"] else 0.0)
    out["trace.spans_per_job"] = statistics.median(len(s) for s, _ in jobs)
    return out
