"""An unseeded draw outside the measured packages, reached only through
the package ``__init__``'s relative import."""
import random


def jitter() -> float:
    return random.random()
