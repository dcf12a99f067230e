"""Adam optimizer with bias correction, operating in place on Param arrays."""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError
from .layers import Param

LR = 0.001
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-7


class Adam:
    """Standard Adam. Moments are kept per parameter in the parameter dtype;
    the update is p -= LR * m_hat / (sqrt(v_hat) + EPS).
    """

    def __init__(self, params: list[Param]):
        self.params = params
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                raise DivergenceError(f"no gradient for {p.name} at step {self.t}")
            if not np.all(np.isfinite(g)):
                raise DivergenceError(
                    f"non-finite gradient in {p.name} at step {self.t}")
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.value -= LR * m_hat / (np.sqrt(v_hat) + EPS)
