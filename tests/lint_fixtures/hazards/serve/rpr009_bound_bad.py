"""RPR009 bad fixture: a positional None or True is no deadline."""

import threading


def wait_forever(event: threading.Event) -> None:
    event.wait(None)  # finding: wait(None) waits until someone sets it


def join_forever(thread: threading.Thread) -> None:
    thread.join(None)  # finding: join(None) waits until the thread ends


def acquire_forever(lock: threading.Lock) -> None:
    lock.acquire(True)  # finding: a blocking acquire with no timeout
