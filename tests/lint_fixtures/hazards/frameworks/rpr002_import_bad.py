"""RPR002 bad fixture: wall-clock reads reached through from-imports."""

from time import perf_counter as clock
from time import time


def measure():
    started = time()  # finding: time.time, imported by name
    return started, clock()  # finding: time.perf_counter under an alias
