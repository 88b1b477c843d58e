"""First-order optimizers operating on :class:`~repro.rl.nn.Parameter` lists.

The parameters an optimizer trains tile one flat buffer
(:class:`~repro.rl.nn.ParameterStore`), so a step is one ufunc chain over
that buffer, written in place: the networks keep their array references
(no re-wiring after each step). Elementwise, the chain is the
per-parameter update term for term, so it is bit-identical to it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .nn import Parameter, flat_parameter

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer over a fixed parameter list tiling one buffer."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        #: every parameter as one flat parameter (views, not copies)
        self.flat = flat_parameter("optimizer", self.params)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        self.flat.grad.fill(0.0)


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self, params: Iterable[Parameter], lr: float = 1e-2, momentum: float = 0.0
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self._velocity = np.zeros_like(self.flat.value)

    def step(self) -> None:
        p = self.flat
        if self.momentum:
            v = self._velocity
            v *= self.momentum
            v += p.grad
            p.value -= self.lr * v
        else:
            p.value -= self.lr * p.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 3e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self._m = np.zeros_like(self.flat.value)
        self._v = np.zeros_like(self.flat.value)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        step_size = self.lr * np.sqrt(bias2) / bias1
        g, m, v = self.flat.grad, self._m, self._v
        # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; p -= step*m/(sqrt(v)+eps),
        # through two temporaries (IEEE products commute)
        t = (1.0 - self.beta1) * g
        m *= self.beta1
        m += t
        np.multiply(g, g, out=t)
        t *= 1.0 - self.beta2
        v *= self.beta2
        v += t
        np.sqrt(v, out=t)
        t += self.eps
        u = step_size * m
        u /= t
        self.flat.value -= u

    @property
    def t(self) -> int:
        """Number of optimizer steps taken."""
        return self._t
