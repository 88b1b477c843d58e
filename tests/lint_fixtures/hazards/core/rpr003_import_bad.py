"""RPR003 bad fixture: digests reached through from-imports and aliases."""

import hashlib as hl
from hashlib import sha256


def fingerprints(names):
    by_name = sha256(str(set(names)).encode())  # finding: set order
    by_alias = hl.sha1(str(set(names)).encode())  # finding: set order
    return by_name, by_alias
