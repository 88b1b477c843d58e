"""Good twin of rpr203_bad: I/O happens outside the critical section,
queue waits are bounded, and Condition.wait (which releases its lock)
is exempt."""
import queue
import threading


class Pump:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.pending = b""

    def flush(self, sock) -> None:
        q = queue.Queue()
        data = sock.recv(4096)  # before the lock
        q.put(data)
        with self.lock:
            self.pending = data
            item = q.get(timeout=1.0)  # bounded wait is acceptable
            q.get(block=False)  # never waits: raises queue.Empty instead
        sock.sendall(item)  # after the lock

    def wait_ready(self) -> None:
        with self.cond:
            self.cond.wait(timeout=5.0)  # releases the wrapped lock
