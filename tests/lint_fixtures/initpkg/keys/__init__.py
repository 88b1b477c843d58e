"""A digest sink in a subpackage's ``__init__``. Its relative import
names a module of this package, ``initpkg.keys``: resolved one level up,
at ``initpkg``, the call to the unseeded draw goes unseen."""
import hashlib

from .entropy import jitter


def cache_key(payload: str) -> str:
    digest = hashlib.sha256(payload.encode("utf-8"))
    digest.update(repr(jitter()).encode("utf-8"))
    return digest.hexdigest()
