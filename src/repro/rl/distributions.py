"""Action distributions with analytic gradients.

PPO and SAC need (log-)densities, entropies, samples and — because the
backprop stack is manual — the exact partial derivatives of those
quantities with respect to the distribution parameters. Each class keeps
its math local so the algorithm modules only chain rule through
``d logp / d mean`` etc.

Conventions: parameters are batched ``(batch, act_dim)``; reductions over
action dimensions are performed here (log-probs and entropies come back as
``(batch,)``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["DiagGaussian", "TanhGaussian", "Categorical", "LOG_STD_MIN", "LOG_STD_MAX"]

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_HALF_LOG_2PIE = 0.5 * (np.log(2.0 * np.pi) + 1.0)

#: SAC clamps the policy's log-std head into this range for stability.
LOG_STD_MIN = -8.0
LOG_STD_MAX = 2.0


class DiagGaussian:
    """Diagonal Gaussian ``N(mean, diag(exp(log_std))^2)``.

    Used by PPO: ``log_std`` is typically a state-independent parameter
    vector broadcast over the batch.
    """

    def __init__(self, mean: np.ndarray, log_std: np.ndarray) -> None:
        self.mean = np.atleast_2d(np.asarray(mean, dtype=np.float64))
        log_std = np.asarray(log_std, dtype=np.float64)
        self.log_std = np.broadcast_to(log_std, self.mean.shape)
        self.std = np.exp(self.log_std)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.std * rng.standard_normal(self.mean.shape)

    def mode(self) -> np.ndarray:
        return self.mean.copy()

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        """``log p(a)`` summed over action dims → shape ``(batch,)``."""
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        z = (actions - self.mean) / self.std
        per_dim = -0.5 * z * z - self.log_std - _HALF_LOG_2PI
        return per_dim.sum(axis=-1)

    def entropy(self) -> np.ndarray:
        """Differential entropy per sample → shape ``(batch,)``."""
        return (self.log_std + _HALF_LOG_2PIE).sum(axis=-1)

    # -------------------------------------------------- analytic gradients
    def dlogp_dmean(self, actions: np.ndarray) -> np.ndarray:
        """``∂ log p(a) / ∂ mean`` → shape ``(batch, act_dim)``."""
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        return (actions - self.mean) / (self.std * self.std)

    def dlogp_dlogstd(self, actions: np.ndarray) -> np.ndarray:
        """``∂ log p(a) / ∂ log_std`` → shape ``(batch, act_dim)``."""
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        z = (actions - self.mean) / self.std
        return z * z - 1.0


class TanhGaussian:
    """Tanh-squashed Gaussian used by SAC.

    ``a = tanh(z)``, ``z = mean + std * eps``, so actions live in
    ``(-1, 1)``. :meth:`rsample` exposes the intermediate values needed to
    backpropagate through the reparameterized sample.
    """

    #: numerical floor inside the log of the tanh Jacobian
    EPS = 1e-6

    def __init__(self, mean: np.ndarray, log_std: np.ndarray) -> None:
        self.mean = np.atleast_2d(np.asarray(mean, dtype=np.float64))
        log_std = np.clip(np.asarray(log_std, dtype=np.float64), LOG_STD_MIN, LOG_STD_MAX)
        self.log_std = np.broadcast_to(log_std, self.mean.shape)
        self.std = np.exp(self.log_std)

    def rsample(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Reparameterized sample with everything backprop needs.

        Returns a dict with:

        * ``action`` — tanh-squashed action ``(batch, act_dim)``;
        * ``pre_tanh`` — the Gaussian sample ``z``;
        * ``eps`` — the unit noise used;
        * ``log_prob`` — ``(batch,)`` log density of ``action``.
        """
        eps = rng.standard_normal(self.mean.shape)
        z = self.mean + self.std * eps
        action = np.tanh(z)
        return {
            "action": action,
            "pre_tanh": z,
            "eps": eps,
            "log_prob": self.log_prob_from_pre_tanh(z),
        }

    def mode(self) -> np.ndarray:
        return np.tanh(self.mean)

    def log_prob_from_pre_tanh(self, z: np.ndarray) -> np.ndarray:
        """``log p(tanh(z))`` given the pre-squash value ``z``."""
        gauss = -0.5 * ((z - self.mean) / self.std) ** 2 - self.log_std - _HALF_LOG_2PI
        # log |d tanh/dz| = log(1 - tanh(z)^2); the stable form below equals
        # 2*(log 2 - z - softplus(-2z)).
        correction = 2.0 * (np.log(2.0) - z - np.logaddexp(0.0, -2.0 * z))
        return (gauss - correction).sum(axis=-1)

    # -------------------------------------------------- reparam gradients
    def grads_wrt_params(
        self, sample: dict[str, np.ndarray], dL_daction: np.ndarray, dL_dlogp: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chain incoming gradients back to ``(mean, log_std)``.

        Parameters
        ----------
        sample:
            The dict returned by :meth:`rsample`.
        dL_daction:
            ``∂L/∂action`` with shape ``(batch, act_dim)`` (e.g. from the
            Q-network input gradient).
        dL_dlogp:
            ``∂L/∂log_prob`` with shape ``(batch,)`` (e.g. the entropy
            temperature α).

        Returns
        -------
        (dL_dmean, dL_dlog_std), both ``(batch, act_dim)``.
        """
        eps = sample["eps"]
        action = sample["action"]
        one_minus_a2 = 1.0 - action * action

        # Path 1: through the action value a = tanh(z), z = mean + std*eps.
        dz = dL_daction * one_minus_a2
        dmean = dz.copy()
        dlog_std = dz * self.std * eps

        # Path 2: through log_prob(z). With z itself a function of
        # (mean, log_std):
        #   logp = Σ [ -0.5*eps_i^2 - log_std_i - c - log(1 - tanh(z_i)^2) ]
        # The Gaussian part depends on (mean, log_std) only via the explicit
        # -log_std term (eps is the fixed noise); the tanh correction
        # depends on z.
        dL = np.asarray(dL_dlogp, dtype=np.float64)[:, None]
        # d/dz of -log(1 - tanh(z)^2) = 2*tanh(z)
        dlogp_dz = 2.0 * action
        dmean += dL * dlogp_dz
        dlog_std += dL * (dlogp_dz * self.std * eps - 1.0)
        return dmean, dlog_std


class Categorical:
    """Categorical distribution over logits (for discrete-action envs)."""

    def __init__(self, logits: np.ndarray) -> None:
        logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
        shifted = logits - logits.max(axis=-1, keepdims=True)
        self.logits = shifted
        self.log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        self.probs = np.exp(self.log_probs)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        cdf = self.probs.cumsum(axis=-1)
        u = rng.random((self.probs.shape[0], 1))
        return (u > cdf).sum(axis=-1)

    def mode(self) -> np.ndarray:
        return self.probs.argmax(axis=-1)

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        actions = np.asarray(actions, dtype=np.int64).reshape(-1)
        return self.log_probs[np.arange(len(actions)), actions]

    def entropy(self) -> np.ndarray:
        return -(self.probs * self.log_probs).sum(axis=-1)

    def dlogp_dlogits(self, actions: np.ndarray) -> np.ndarray:
        """``∂ log p(a) / ∂ logits`` → one-hot minus probs."""
        actions = np.asarray(actions, dtype=np.int64).reshape(-1)
        grad = -self.probs.copy()
        grad[np.arange(len(actions)), actions] += 1.0
        return grad

    def dentropy_dlogits(self) -> np.ndarray:
        """``∂ H / ∂ logits``."""
        # H = -Σ p log p; dH/dlogit_j = -p_j (log p_j + 1 - Σ_k p_k(log p_k + 1))
        inner = self.log_probs + 1.0
        expectation = (self.probs * inner).sum(axis=-1, keepdims=True)
        return -self.probs * (inner - expectation)
