"""The benchmark's tracer wraps package callables by name from outside
``src/``; a renamed or removed target breaks ``perfbench/run.py --trace 1``.
These tests install the tracer for real, so such a rename fails here."""

import importlib.util
from pathlib import Path

import numpy as np

from sensecomm.channel import ChannelConfig, SensingConfig
from sensecomm.models import ModelConfig, Pipeline
from sensecomm.rng import Rng

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def originals(tracing):
    out = {}
    for cls, attr, _ in tracing.METHODS:
        out[(cls, attr)] = cls.__dict__[attr]
    for attr, _ in tracing.DRAWS:
        out[(tracing.rng.Rng, attr)] = tracing.rng.Rng.__dict__[attr]
    for module, attr, _ in tracing.FUNCTIONS:
        out[(module, attr)] = getattr(module, attr)
    return out


def test_install_wraps_every_target_and_uninstall_restores():
    tracing = load_tracing()
    before = originals(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, attr), original in before.items():
            assert getattr(owner, attr) is not original, f"{owner}.{attr}"
        pipe = Pipeline(ModelConfig(4, "joint"), Rng(0))
        pipe.forward(Rng(1).uniform(size=(2, 32, 32, 3)), np.array([0, 1]),
                     ChannelConfig("rayleigh", 3.0), SensingConfig(-3.0, 6.0),
                     rng=Rng(2))
    finally:
        tracer.uninstall()
    assert originals(tracing) == before
    names = {span[0] for span in tracer.spans}
    assert {"models.pipeline.fwd", "channel.sample", "channel.tx.fwd",
            "channel.norm.fwd", "nn.conv1.fwd"} <= names
