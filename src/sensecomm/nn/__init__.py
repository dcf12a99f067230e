from .layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    Param,
    ReLU,
    Sequential,
    compute_fans,
    glorot_uniform,
    softmax,
)
from .losses import LOG_CLAMP, cross_entropy, cross_entropy_logit_grad
from .optim import Adam

__all__ = [
    "Adam",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "LOG_CLAMP",
    "Layer",
    "MaxPool2D",
    "Param",
    "ReLU",
    "Sequential",
    "compute_fans",
    "cross_entropy",
    "cross_entropy_logit_grad",
    "glorot_uniform",
    "softmax",
]
