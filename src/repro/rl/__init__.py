"""Reinforcement-learning substrate from scratch: networks, one actor-critic
for PPO and V-trace, and SAC."""

from .agent import Agent
from .buffers import ReplayBuffer, RolloutBatch, RolloutBuffer, Transition, compute_gae
from .distributions import Categorical, DiagGaussian, TanhGaussian
from .errors import DivergenceError, check_finite_update
from .nn import MLP, Dense, Identity, Parameter, ReLU, Tanh, clip_grad_norm, orthogonal_init
from .optim import SGD, Adam, Optimizer
from .ppo import CategoricalPPOAgent, PPOAgent, PPOConfig
from .sac import SACAgent, SACConfig
from .vtrace import VTraceAgent, VTraceConfig, vtrace_returns

__all__ = [
    "Agent",
    "MLP",
    "Dense",
    "Tanh",
    "ReLU",
    "Identity",
    "Parameter",
    "orthogonal_init",
    "clip_grad_norm",
    "Optimizer",
    "SGD",
    "Adam",
    "DiagGaussian",
    "TanhGaussian",
    "Categorical",
    "RolloutBuffer",
    "RolloutBatch",
    "ReplayBuffer",
    "Transition",
    "compute_gae",
    "PPOAgent",
    "CategoricalPPOAgent",
    "PPOConfig",
    "SACAgent",
    "SACConfig",
    "VTraceAgent",
    "VTraceConfig",
    "vtrace_returns",
    "DivergenceError",
    "check_finite_update",
]
