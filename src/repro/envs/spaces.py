"""Observation/action space primitives for the gym-style environment API.

The paper's case study is delivered "as a gym environment"; since the real
gym library is a gated dependency we provide the minimal-but-faithful space
algebra the methodology needs: membership tests, bounded sampling and
seeding.

Spaces intentionally mirror the classic ``gym.spaces`` semantics:

* :class:`Box` — bounded/unbounded continuous tensors.
* :class:`Discrete` — ``{start, ..., start + n - 1}``.

All sampling goes through an explicit :class:`numpy.random.Generator` so
campaign runs are reproducible end to end.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

__all__ = ["Space", "Box", "Discrete"]


class Space:
    """Base class for all spaces.

    Parameters
    ----------
    shape:
        The shape of elements of the space (``None`` when unset).
    dtype:
        The numpy dtype of elements of the space.
    seed:
        Optional seed for the space's private generator, used by
        :meth:`sample` when no external generator is supplied.
    """

    def __init__(
        self,
        shape: Sequence[int] | None = None,
        dtype: np.dtype | type | None = None,
        seed: int | None = None,
    ) -> None:
        self._shape = None if shape is None else tuple(int(s) for s in shape)
        self.dtype = None if dtype is None else np.dtype(dtype)
        self._rng = np.random.default_rng(seed)

    @property
    def shape(self) -> tuple[int, ...] | None:
        """Shape of space elements, or ``None`` when unset."""
        return self._shape

    @property
    def rng(self) -> np.random.Generator:
        """The space's private random generator."""
        return self._rng

    def seed(self, seed: int | None = None) -> list[int]:
        """Reseed the space (and any sub-spaces). Returns the seeds used."""
        seq = np.random.SeedSequence(seed)
        self._rng = np.random.default_rng(seq)
        return [seq.entropy if isinstance(seq.entropy, int) else 0]

    def sample(self, rng: np.random.Generator | None = None) -> Any:
        """Draw a uniformly random element of the space."""
        raise NotImplementedError

    def contains(self, x: Any) -> bool:
        """Return ``True`` when ``x`` is a valid element of the space."""
        raise NotImplementedError

    def __contains__(self, x: Any) -> bool:
        return self.contains(x)


class Box(Space):
    """A (possibly unbounded) box in R^n.

    ``low`` and ``high`` may be scalars (broadcast over ``shape``) or arrays.
    Sampling treats each coordinate independently:

    * two-sided bounds — uniform on ``[low, high)``;
    * one-sided bounds — exponential offset from the finite bound;
    * unbounded — standard normal.
    """

    def __init__(
        self,
        low: float | np.ndarray,
        high: float | np.ndarray,
        shape: Sequence[int] | None = None,
        dtype: np.dtype | type = np.float64,
        seed: int | None = None,
    ) -> None:
        if shape is None:
            low_arr = np.asarray(low, dtype=float)
            high_arr = np.asarray(high, dtype=float)
            if low_arr.shape != high_arr.shape:
                shape = np.broadcast_shapes(low_arr.shape, high_arr.shape)
            else:
                shape = low_arr.shape
        shape = tuple(int(s) for s in np.atleast_1d(np.asarray(shape, dtype=int))) if shape else ()
        super().__init__(shape=shape, dtype=dtype, seed=seed)
        self.low = np.broadcast_to(np.asarray(low, dtype=self.dtype), self.shape).copy()
        self.high = np.broadcast_to(np.asarray(high, dtype=self.dtype), self.shape).copy()
        if np.any(self.low > self.high):
            raise ValueError("Box requires low <= high everywhere")
        self.bounded_below = np.isfinite(self.low)
        self.bounded_above = np.isfinite(self.high)

    def sample(self, rng: np.random.Generator | None = None) -> np.ndarray:
        rng = rng or self._rng
        both = self.bounded_below & self.bounded_above
        below_only = self.bounded_below & ~self.bounded_above
        above_only = ~self.bounded_below & self.bounded_above
        unbounded = ~self.bounded_below & ~self.bounded_above

        out = np.empty(self.shape, dtype=float)
        out[both] = rng.uniform(self.low[both].astype(float), self.high[both].astype(float))
        out[below_only] = self.low[below_only] + rng.exponential(size=int(below_only.sum()))
        out[above_only] = self.high[above_only] - rng.exponential(size=int(above_only.sum()))
        out[unbounded] = rng.standard_normal(int(unbounded.sum()))
        return out.astype(self.dtype)

    def contains(self, x: Any) -> bool:
        arr = np.asarray(x)
        if arr.shape != self.shape:
            return False
        if not np.issubdtype(arr.dtype, np.number):
            return False
        return bool(np.all(arr >= self.low) and np.all(arr <= self.high))

    def __repr__(self) -> str:
        return f"Box(low={self.low.min()!r}, high={self.high.max()!r}, shape={self.shape})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Box)
            and self.shape == other.shape
            and np.allclose(self.low, other.low)
            and np.allclose(self.high, other.high)
        )


class Discrete(Space):
    """The finite set ``{start, start+1, ..., start+n-1}``."""

    def __init__(self, n: int, start: int = 0, seed: int | None = None) -> None:
        if n <= 0:
            raise ValueError("Discrete space requires n >= 1")
        super().__init__(shape=(), dtype=np.int64, seed=seed)
        self.n = int(n)
        self.start = int(start)

    def sample(self, rng: np.random.Generator | None = None) -> int:
        rng = rng or self._rng
        return int(self.start + rng.integers(self.n))

    def contains(self, x: Any) -> bool:
        if isinstance(x, (np.generic, np.ndarray)):
            if np.asarray(x).shape not in ((), (1,)):
                return False
            if not np.issubdtype(np.asarray(x).dtype, np.integer):
                return False
            x = int(np.asarray(x).reshape(()))
        if not isinstance(x, (int, np.integer)):
            return False
        return self.start <= int(x) < self.start + self.n

    def __repr__(self) -> str:
        if self.start:
            return f"Discrete({self.n}, start={self.start})"
        return f"Discrete({self.n})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Discrete) and self.n == other.n and self.start == other.start
