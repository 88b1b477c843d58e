"""Common agent interface shared by PPO and SAC.

The framework back-ends drive agents through this small surface so the
same training loops work for both algorithm families:

* :meth:`Agent.act` — batched action selection;
* :meth:`Agent.policy_state` / :meth:`Agent.load_policy_state` — snapshot
  and restore of the *acting* parameters (what the RLlib-like backend
  ships to remote actors, and the mechanism behind policy staleness);
* per-algorithm update entry points remain on the concrete classes.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["Agent"]


class Agent:
    """Abstract agent."""

    #: observation dimensionality
    obs_dim: int
    #: action dimensionality
    act_dim: int

    def act(
        self, observations: np.ndarray, deterministic: bool = False
    ) -> dict[str, np.ndarray]:
        """Select actions for a batch of observations.

        Returns a dict with at least ``'action'``; on-policy agents also
        return ``'log_prob'`` and ``'value'``. Deterministic actions are
        row-exact: row ``i`` is bit-identical to acting on
        ``observations[i:i + 1]`` alone, whatever else the batch holds.
        """
        raise NotImplementedError

    def policy_state(self) -> dict[str, np.ndarray]:
        """A copy of the parameters needed to *act* (not to learn)."""
        raise NotImplementedError

    def load_policy_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters captured by :meth:`policy_state`."""
        raise NotImplementedError

    def metrics(self) -> dict[str, Any]:
        """Latest training diagnostics (losses, norms, ...)."""
        return {}
