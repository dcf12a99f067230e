"""Adam optimizer with bias correction, stepping flat parameter buffers in place."""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError
from .layers import Param

LR = 0.001
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-7


class Adam:
    """Standard Adam over the whole model at once: it steps the flat
    ``values`` buffer from the flat ``grads`` buffer, of which ``params``
    are the views (see :func:`~.layers.param_buffers`), and keeps its
    moments in two more buffers like them, in the parameter dtype. The
    update is p -= LR * m_hat / (sqrt(v_hat) + EPS), elementwise, so it is
    bitwise the one a loop over the tensors would make.
    """

    def __init__(self, values: np.ndarray, grads: np.ndarray, params: list[Param]):
        self.values, self.grads, self.params = values, grads, params
        self.t = 0
        self.m = np.zeros_like(values)
        self.v = np.zeros_like(values)

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
