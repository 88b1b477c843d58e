"""Known-bad: blocking calls made while a lock is held — lexically and
through a ``_locked`` helper whose callers hold the lock (RPR203). A
``timeout=None`` or ``block=True`` argument bounds nothing."""
import queue
import subprocess
import threading
import time


class Pump:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.done = threading.Event()
        self.inbox = queue.Queue()

    def flush(self, sock) -> None:
        q = queue.Queue()
        with self.lock:
            data = sock.recv(4096)  # network read under the lock
            time.sleep(0.05)  # sleep under the lock
            q.put(data)
            item = q.get()  # unbounded queue wait under the lock
            subprocess.run(["sync", str(item)])

    def _send_locked(self, sock, frame: bytes) -> None:
        sock.sendall(frame)  # callers hold self.lock (entry fixpoint)

    def push(self, sock, frame: bytes) -> None:
        with self.lock:
            self._send_locked(sock, frame)

    def settle(self) -> None:
        with self.lock:
            self.done.wait(timeout=None)  # None is no deadline
            self.inbox.get(block=True)  # blocks until an item arrives
