"""RPR001 bad fixture: global-state and unseeded RNGs reached through imports."""

import random as stdrandom
from random import random

import numpy.random as npr


def sample_noise():
    stdlib = random()  # finding: the stdlib global RNG, imported by name
    legacy = npr.rand(3)  # finding: numpy's global RNG through a module alias
    unseeded = stdrandom.Random()  # finding: no seed, through a module alias
    return stdlib, legacy, unseeded
