"""Minimal neural-network layer stack with manual backpropagation.

The RL algorithms (PPO, SAC) need small multilayer perceptrons with exact
gradients. Rather than depending on a deep-learning framework (a gated
dependency in this reproduction) we implement the forward/backward passes
directly on numpy arrays. Everything is batched: inputs are
``(batch, features)`` and the backward pass is a single matrix product per
layer, per the HPC guide's vectorization rules.

Design:

* :class:`Parameter` — a named array plus its gradient accumulator. The
  optimizer updates ``value`` in place so layer references stay valid.
* :class:`Dense`, :class:`Tanh`, :class:`ReLU` — layers with
  ``forward``/``backward``.
* :class:`MLP` — a layer pipeline with convenience constructors, gradient
  zeroing, parameter iteration and state-dict (de)serialization; its
  row-exact :meth:`MLP.forward_rows` serves deterministic acting.

The backward pass of each layer consumes ``dL/d(output)`` and returns
``dL/d(input)``, accumulating parameter gradients as a side effect — so
input gradients (needed by SAC's policy loss, which differentiates the
Q-network with respect to the action input) come for free.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Parameter", "Layer", "Dense", "Tanh", "ReLU", "Identity", "MLP", "orthogonal_init"]


class Parameter:
    """A trainable array with an accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray) -> None:
        self.name = name
        # C-contiguous storage: cache-friendly matmuls and view-safe ravel().
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


def orthogonal_init(
    shape: tuple[int, int], gain: float, rng: np.random.Generator
) -> np.ndarray:
    """Orthogonal weight initialization (the standard PPO choice)."""
    a = rng.standard_normal(shape)
    if shape[0] < shape[1]:
        a = a.T
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # deterministic sign convention
    if shape[0] < shape[1]:
        q = q.T
    return gain * q[: shape[0], : shape[1]]


class Layer:
    """Base layer: ``forward`` caches what ``backward`` needs."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        return []


class Dense(Layer):
    """Affine layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        gain: float = 2.0**0.5,
        name: str = "dense",
    ) -> None:
        self.w = Parameter(f"{name}.w", orthogonal_init((in_dim, out_dim), gain, rng))
        self.b = Parameter(f"{name}.b", np.zeros(out_dim))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.w.grad += self._x.T @ dout
        self.b.grad += dout.sum(axis=0)
        return dout @ self.w.value.T

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]


class Tanh(Layer):
    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return dout * (1.0 - self._y * self._y)


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return dout * self._mask


class Identity(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout


_ACTIVATIONS: dict[str, Callable[[], Layer]] = {
    "tanh": Tanh,
    "relu": ReLU,
    "identity": Identity,
}


class MLP:
    """A multilayer perceptron with manual backprop.

    Parameters
    ----------
    sizes:
        Layer widths including input and output,
        e.g. ``(obs_dim, 64, 64, act_dim)``.
    activation:
        Hidden activation name (``'tanh'`` or ``'relu'``).
    out_gain:
        Orthogonal gain of the final layer (0.01 for policy heads, 1.0 for
        value heads — the usual PPO trick).
    rng:
        Generator used for weight initialization.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        activation: str = "tanh",
        out_gain: float = 1.0,
        name: str = "mlp",
    ) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.sizes = tuple(int(s) for s in sizes)
        self.layers: list[Layer] = []
        n_affine = len(self.sizes) - 1
        for i in range(n_affine):
            last = i == n_affine - 1
            gain = out_gain if last else np.sqrt(2.0)
            self.layers.append(
                Dense(self.sizes[i], self.sizes[i + 1], rng, gain=gain, name=f"{name}.{i}")
            )
            if not last:
                self.layers.append(_ACTIVATIONS[activation]())

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; ``x`` is ``(batch, in_dim)``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def forward_rows(self, x: np.ndarray) -> np.ndarray:
        """Row-exact forward pass: row ``i`` equals ``forward(x[i:i+1])`` bit for bit.

        A ``(batch, in_dim)`` product goes to BLAS gemm, whose blocking can
        round a row differently from the gemv a single-row product uses.
        Here every row travels as its own ``(1, features)`` matrix of a
        ``(batch, 1, features)`` stack, so numpy's stacked matmul runs the
        single-row gemv once per row (the form ``ButcherTableau.step`` uses
        for the same reason) and no row depends on the rest of the batch.
        For acting only: it leaves no layer caches fit for :meth:`backward`.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))[:, None, :]
        for layer in self.layers:
            x = layer.forward(x)
        return x[:, 0, :]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Backprop ``dL/d(output)``; returns ``dL/d(input)``.

        Must follow a matching :meth:`forward` (layer caches are reused).
        Parameter gradients accumulate until :meth:`zero_grad`.
        """
        grad = np.atleast_2d(np.asarray(dout, dtype=np.float64))
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def n_parameters(self) -> int:
        # repro-lint: disable=RPR004 -- integer parameter count, no float rounding involved
        return sum(p.value.size for p in self.parameters())

    # --------------------------------------------------------- state (de)ser
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of all parameter arrays, keyed by parameter name."""
        return {p.name: p.value.copy() for p in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            if p.name not in state:
                raise KeyError(f"missing parameter {p.name!r} in state dict")
            src = np.asarray(state[p.name], dtype=np.float64)
            if src.shape != p.value.shape:
                raise ValueError(
                    f"shape mismatch for {p.name!r}: {src.shape} vs {p.value.shape}"
                )
            p.value[...] = src

    def copy_from(self, other: "MLP") -> None:
        """Hard-copy parameters from a same-architecture network.

        Matching is positional (names may differ, e.g. target networks).
        """
        mine, theirs = self.parameters(), other.parameters()
        if len(mine) != len(theirs):
            raise ValueError("architectures differ: parameter count mismatch")
        for dst, src in zip(mine, theirs, strict=True):
            if dst.value.shape != src.value.shape:
                raise ValueError(
                    f"shape mismatch: {dst.name} {dst.value.shape} vs "
                    f"{src.name} {src.value.shape}"
                )
            dst.value[...] = src.value

    def polyak_from(self, other: "MLP", tau: float) -> None:
        """Soft update ``self <- tau * other + (1 - tau) * self`` (SAC targets)."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        for mine, theirs in zip(self.parameters(), other.parameters(), strict=True):
            mine.value *= 1.0 - tau
            mine.value += tau * theirs.value


def global_grad_norm(params: Iterable[Parameter]) -> float:
    """L2 norm of all gradients concatenated."""
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    return float(np.sqrt(total))


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    params = list(params)
    norm = global_grad_norm(params)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm
