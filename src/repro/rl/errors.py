"""Typed numerical-failure errors for the learning substrate.

A training run that produces a non-finite loss or gradient is
unrecoverable: Adam moments are already poisoned, every later update
multiplies NaNs through the network, and the trial would quietly report
garbage metrics. Raising :class:`DivergenceError` *before* the optimizer
step turns the blow-up into a structured trial failure the campaign can
journal, retry and report — with the update index and the offending
quantity attached as JSON-safe ``extras``.
"""

from __future__ import annotations

import math

import numpy as np

from .nn import clip_grad_norm
from .optim import Optimizer

__all__ = ["DivergenceError", "check_finite_update", "guarded_step"]


class DivergenceError(RuntimeError):
    """Training diverged: a loss, a gradient or the gradient norm went non-finite.

    ``extras`` carries JSON-primitive context (algorithm, update index,
    which quantity blew up and its value rendered as a string) that the
    executor layer copies into the failed trial's record.
    """

    def __init__(self, algorithm: str, n_updates: int, quantity: str, value: float) -> None:
        super().__init__(
            f"{algorithm} diverged at update {n_updates}: "
            f"{quantity} is non-finite ({value!r})"
        )
        self.extras = {
            "algorithm": algorithm,
            "n_updates": int(n_updates),
            "quantity": quantity,
            "value": repr(float(value)),
            "failure_stage": "divergence",
        }


def check_finite_update(
    algorithm: str,
    n_updates: int,
    losses: dict[str, float],
    optimizer: Optimizer,
) -> float:
    """Guard ``optimizer``'s next step; return its global gradient norm.

    Called between the backward pass and ``optimizer.step()`` so a
    divergence never contaminates the optimizer state. Raises
    :class:`DivergenceError` for the first non-finite loss, else for the
    first parameter, in order, holding a non-finite gradient, else for a
    norm that overflows although every gradient is finite (clipping by it
    would zero every gradient).

    One pass over the gradients: the per-parameter sums of squares that
    make the norm are finite unless a gradient is non-finite or its
    square overflows, and only then is that parameter searched. They are
    taken parameter by parameter and added in parameter order, so the
    norm is the float that summing each parameter's own squared gradient,
    in order, gives. Pass it on to :func:`~repro.rl.nn.clip_grad_norm`.
    """
    for name, value in losses.items():
        if not np.isfinite(value):
            raise DivergenceError(algorithm, n_updates, name, float(value))
    grad = optimizer.flat.grad
    squares = grad * grad
    total = 0.0
    start = 0
    for param in optimizer.params:
        stop = start + param.grad.size
        # a contiguous slice sums like the parameter's own squared array
        square_sum = float(np.add.reduce(squares[start:stop]))
        if not math.isfinite(square_sum):
            bad = param.grad[~np.isfinite(param.grad)]
            if bad.size:
                raise DivergenceError(
                    algorithm, n_updates, f"grad[{param.name}]", float(bad.flat[0])
                )
        total += square_sum
        start = stop
    if not math.isfinite(total):
        raise DivergenceError(algorithm, n_updates, "grad_norm", total)
    return float(np.sqrt(total))


def guarded_step(
    algorithm: str,
    n_updates: int,
    losses: dict[str, float],
    optimizer: Optimizer,
    max_grad_norm: float,
) -> float:
    """Apply the gradients a backward pass left in ``optimizer``'s parameters.

    :func:`check_finite_update` first, then the gradients are clipped to
    ``max_grad_norm`` by the norm it returns, then ``optimizer`` steps.
    Every learner applies its gradients this way. Returns the pre-clip
    norm.
    """
    grad_norm = check_finite_update(algorithm, n_updates, losses, optimizer)
    clip_grad_norm(optimizer.params, max_grad_norm, grad_norm)
    optimizer.step()
    return grad_norm
