"""Adam optimizer with bias correction, operating in place on Param arrays."""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError
from .layers import Param, share_buffers

LR = 0.001
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-7


class Adam:
    """Standard Adam over the whole model at once: every param's value and
    gradient become views of one buffer each (:func:`share_buffers`), and
    the moments are two more buffers like them, in the parameter dtype. The
    update is p -= LR * m_hat / (sqrt(v_hat) + EPS), elementwise, so it is
    bitwise the one a loop over the tensors would make.
    """

    def __init__(self, params: list[Param]):
        self.params = params
        self.t = 0
        self.values, self.grads = share_buffers(params)
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)

    def step(self):
        self.t += 1
        g = self.grads
        with np.errstate(over="ignore"):  # an overflow is raised below
            g2 = g * g
            if not np.all(np.isfinite(g2)):
                bad = next(p for p in self.params
                           if not np.all(np.isfinite(p.grad * p.grad)))
                raise DivergenceError(
                    f"non-finite gradient in {bad.name} at step {self.t}")
        self.m *= BETA1
        self.m += (1.0 - BETA1) * g
        self.v *= BETA2
        self.v += (1.0 - BETA2) * g2
        m_hat = self.m / (1.0 - BETA1 ** self.t)
        v_hat = self.v / (1.0 - BETA2 ** self.t)
        self.values -= LR * m_hat / (np.sqrt(v_hat) + EPS)
