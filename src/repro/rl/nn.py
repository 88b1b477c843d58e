"""Minimal neural-network layer stack with manual backpropagation.

The RL algorithms (PPO, SAC) need small multilayer perceptrons with exact
gradients. Rather than depending on a deep-learning framework (a gated
dependency in this reproduction) we implement the forward/backward passes
directly on numpy arrays. Everything is batched: inputs are
``(batch, features)`` and the backward pass is a single matrix product per
layer, per the HPC guide's vectorization rules.

Design:

* :class:`Parameter` — a named array plus its gradient accumulator. Both
  are views into the flat buffers of a :class:`ParameterStore` (or a
  standalone parameter's own arrays) and nothing ever rebinds them, so an
  optimizer, ``zero_grad``, polyak averaging and ``copy_from`` each touch
  a whole network with one ufunc chain over a :func:`flat_parameter`.
* :class:`Dense`, :class:`Tanh`, :class:`ReLU` — layers with
  ``forward``/``backward``. Activations work in place on the ``Dense``
  output they receive.
* :class:`MLP` — a layer pipeline with convenience constructors, gradient
  zeroing, parameter iteration and state-dict (de)serialization; its
  row-exact :meth:`MLP.forward_rows` serves deterministic acting.

The backward pass of each layer consumes ``dL/d(output)`` and returns
``dL/d(input)``, accumulating parameter gradients as a side effect — so
input gradients (needed by SAC's policy loss, which differentiates the
Q-network with respect to the action input) come for free. A caller that
reads only some of them says so (:meth:`MLP.backward`), and a backward
pass releases the layer caches of the forward pass it consumed.

Every kernel is bit-identical to the textbook form it replaces
(``docs/architecture.md``, "Update layer"); ``tests/test_update_layer.py``
keeps those forms as references.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Parameter",
    "ParameterStore",
    "flat_parameter",
    "Layer",
    "Dense",
    "Tanh",
    "ReLU",
    "Identity",
    "MLP",
    "orthogonal_init",
]


def _address(a: np.ndarray) -> int:
    return int(a.__array_interface__["data"][0])


def _owner(a: np.ndarray) -> np.ndarray:
    """The C-contiguous array whose memory ``a`` views (``a`` if none)."""
    base = a.base
    if isinstance(base, np.ndarray) and base.flags.c_contiguous:
        return base
    return a


def _view_args(a: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...], tuple[int, ...]]:
    owner = _owner(a)
    if owner is a:  # no buffer to share: travel as a contiguous array of its own
        owner = np.ascontiguousarray(a)
        return owner, 0, owner.shape, owner.strides
    return owner, _address(a) - _address(owner), a.shape, a.strides


def _view(
    owner: np.ndarray, offset: int, shape: tuple[int, ...], strides: tuple[int, ...]
) -> np.ndarray:
    return np.ndarray(shape, dtype=np.float64, buffer=owner, offset=offset, strides=strides)


def _parameter_from_views(name: str, value: tuple, grad: tuple) -> "Parameter":
    return Parameter(name, _view(*value), _view(*grad))


class Parameter:
    """A trainable array with an accumulated gradient.

    ``value`` and ``grad`` are bound once, here, and only ever written in
    place, so layers, flat views and optimizers can all hold them. Built
    from a bare array a parameter owns its storage;
    :meth:`ParameterStore.take` builds one from views into a shared
    buffer instead.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray, grad: np.ndarray | None = None) -> None:
        self.name = name
        if grad is None:
            # C-contiguous storage: cache-friendly matmuls and view-safe ravel().
            value = np.ascontiguousarray(value, dtype=np.float64)
            grad = np.zeros_like(value)
        self.value = value
        self.grad = grad

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __reduce__(self) -> tuple[Any, ...]:
        # A numpy view pickles (and deep-copies) as a detached copy. Rebuild
        # value and grad as views of their buffers, which pickle's memo
        # shares between every parameter and flat view of one store.
        return (_parameter_from_views, (self.name, _view_args(self.value), _view_args(self.grad)))

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


class ParameterStore:
    """Flat value and gradient buffers that parameters are carved from.

    Parameters taken in turn tile the buffers back to back, so any run of
    them is one flat view (:func:`flat_parameter`).
    """

    def __init__(self, size: int) -> None:
        self.value = np.zeros(size)
        self.grad = np.zeros(size)
        self._used = 0

    def take(self, name: str, init: np.ndarray) -> Parameter:
        """A parameter holding ``init`` in the next free slots of the buffers."""
        init = np.asarray(init, dtype=np.float64)
        start, stop = self._used, self._used + init.size
        if stop > self.value.size:
            raise ValueError(f"parameter store of size {self.value.size} cannot fit {name!r}")
        self._used = stop
        param = Parameter(
            name,
            self.value[start:stop].reshape(init.shape),
            self.grad[start:stop].reshape(init.shape),
        )
        param.value[...] = init
        return param


def _span(arrays: Sequence[np.ndarray]) -> np.ndarray:
    owner = _owner(arrays[0])
    start = stop = (_address(arrays[0]) - _address(owner)) // owner.itemsize
    for a in arrays:
        if (
            a.dtype != np.float64
            or not a.flags.c_contiguous
            or _owner(a) is not owner
            or _address(a) != _address(owner) + stop * owner.itemsize
        ):
            raise ValueError(
                "parameters must tile one buffer back to back, in order: "
                "take them from one ParameterStore"
            )
        stop += a.size
    return owner.reshape(-1)[start:stop]


def flat_parameter(name: str, params: Sequence[Parameter]) -> Parameter:
    """``params`` as one flat parameter whose value and grad are views.

    The parameters must tile one buffer back to back, in order: a run
    taken from one :class:`ParameterStore`, or a single parameter.
    """
    if not params:
        raise ValueError("no parameters to flatten")
    return Parameter(name, _span([p.value for p in params]), _span([p.grad for p in params]))


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
    """Base layer: ``forward`` caches what ``backward`` needs.

    ``backward`` consumes that cache: one backward pass per forward pass.
    ``input_grad=False`` skips ``dL/d(input)`` (the result is None) and
    ``param_grads=False`` skips the parameter gradients.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, dout: np.ndarray, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
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
        store: ParameterStore | None = None,
    ) -> None:
        if store is None:
            store = ParameterStore(in_dim * out_dim + out_dim)
        self.w = store.take(f"{name}.w", orthogonal_init((in_dim, out_dim), gain, rng))
        self.b = store.take(f"{name}.b", np.zeros(out_dim))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        y = x @ self.w.value
        y += self.b.value
        return y

    def backward(
        self, dout: np.ndarray, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        x = self._x
        if x is None:
            raise RuntimeError("backward called before forward")
        self._x = None
        if param_grads:
            self.w.grad += x.T @ dout
            self.b.grad += dout.sum(axis=0)
        return dout @ self.w.value.T if input_grad else None

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]


class Tanh(Layer):
    """``tanh``, written over the ``Dense`` output it receives."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x, out=x)
        return x

    def backward(
        self, dout: np.ndarray, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        y = self._y
        if y is None:
            raise RuntimeError("backward called before forward")
        self._y = None
        # dout * (1 - y * y) through one temporary (IEEE products commute)
        t = y * y
        np.subtract(1.0, t, out=t)
        t *= dout
        return t


class ReLU(Layer):
    """``max(x, 0)``, written over the ``Dense`` output it receives.

    ``fmax`` returns 0 for NaN and may keep ``-0.0``; adding ``+0.0`` turns
    that into ``+0.0``, so the result equals ``np.where(x > 0, x, 0.0)``
    bit for bit, which ``np.maximum`` (NaN-propagating) does not. The
    backward pass masks the incoming gradient in place.
    """

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        np.fmax(x, 0.0, out=x)
        x += 0.0
        self._y = x
        return x

    def backward(
        self, dout: np.ndarray, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        y = self._y
        if y is None:
            raise RuntimeError("backward called before forward")
        self._y = None
        return np.multiply(dout, y > 0.0, out=dout)  # y > 0 exactly where x > 0


class Identity(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(
        self, dout: np.ndarray, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
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
    store:
        Where the parameters live; by default a store of the network's own.
        Networks that one optimizer trains share a store.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator,
        activation: str = "tanh",
        out_gain: float = 1.0,
        name: str = "mlp",
        store: ParameterStore | None = None,
    ) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.sizes = tuple(int(s) for s in sizes)
        if store is None:
            store = ParameterStore(self.size_of(self.sizes))
        self.layers: list[Layer] = []
        n_affine = len(self.sizes) - 1
        for i in range(n_affine):
            last = i == n_affine - 1
            gain = out_gain if last else np.sqrt(2.0)
            self.layers.append(
                Dense(self.sizes[i], self.sizes[i + 1], rng, gain, f"{name}.{i}", store)
            )
            if not last:
                self.layers.append(_ACTIVATIONS[activation]())
        self._flat = flat_parameter(name, self.parameters())

    @staticmethod
    def size_of(sizes: Sequence[int]) -> int:
        """Number of parameters of an MLP with these layer widths."""
        total = 0
        for n_in, n_out in zip(sizes[:-1], sizes[1:], strict=True):
            total += (int(n_in) + 1) * int(n_out)
        return total

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

    def backward(
        self, dout: np.ndarray, *, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        """Backprop ``dL/d(output)``; returns ``dL/d(input)``.

        Must follow a matching :meth:`forward`, whose layer caches it
        consumes. Parameter gradients accumulate until :meth:`zero_grad`.
        ``input_grad=False`` skips the first layer's input gradient (and
        returns None); ``param_grads=False`` computes no parameter
        gradients, only the input gradient.
        """
        grad = np.atleast_2d(np.asarray(dout, dtype=np.float64))
        layers = self.layers
        for i in range(len(layers) - 1, -1, -1):
            grad = layers[i].backward(grad, input_grad or i > 0, param_grads)
        return grad

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        self._flat.grad.fill(0.0)

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
        self._flat.value[...] = other._flat.value

    def polyak_from(self, other: "MLP", tau: float) -> None:
        """Soft update ``self <- tau * other + (1 - tau) * self`` (SAC targets)."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        mine = self._flat.value
        mine *= 1.0 - tau
        mine += tau * other._flat.value


def clip_grad_norm(params: Iterable[Parameter], max_norm: float, norm: float) -> float:
    """Scale gradients in place so their global norm is at most ``max_norm``.

    ``norm`` is their pre-clip global norm, which
    :func:`~repro.rl.errors.check_finite_update` returns; it is returned.
    """
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm
