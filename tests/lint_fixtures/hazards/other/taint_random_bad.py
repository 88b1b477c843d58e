"""Taint fixture: an unseeded Random feeding a digest, in a directory no
per-file determinism rule scans; only the interprocedural pass sees it."""

import hashlib
import random


def salted_key(payload: str) -> str:
    salt = random.Random().random()  # finding: unseeded, inside the sink
    return hashlib.sha256(f"{payload}{salt}".encode()).hexdigest()
