"""Single-node vectorized back-end (the paper's Stable Baselines).

Stable Baselines "provides parallelized environments through
vectorization" (§V-b): one vectorized environment per allocated CPU core,
all on a single machine, stepping in lockstep; the learner update runs on
the same cores afterwards. No network traffic, no policy staleness — the
freshest on-policy data of the three back-ends, which is why the paper's
best rewards (solutions 14 and 16) come from this framework.

A single-process vec-env stack has no supervisor: the first crash of its
node fails the trial (the default fail-fast recovery raises a typed
``ClusterFaultError``).
"""

from __future__ import annotations

from .base import Framework
from .costmodel import STABLE_PROFILE

__all__ = ["StableBaselinesLike"]


class StableBaselinesLike(Framework):
    """Stable-Baselines-style single-node vectorized execution."""

    name = "stable"
    supports_multi_node = False
    profile = STABLE_PROFILE
