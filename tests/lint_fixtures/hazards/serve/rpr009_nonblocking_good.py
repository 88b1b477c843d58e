"""RPR009 good fixture: an acquire that cannot wait is never a park."""

import threading


def try_lock(lock: threading.Lock) -> bool:
    if lock.acquire(blocking=False):  # returns at once when the lock is taken
        lock.release()
        return True
    if lock.acquire(False):  # the same, written positionally
        lock.release()
        return True
    return False
