"""Single-producer/single-consumer packet rings.

``PktRing`` is the lock-free variant: two shared cursors (``write_pos``
updated only by the producer after a successful write, ``read_pos`` only by
the consumer after a successful read) plus producer/consumer-local cached
copies of the opposing cursor. An operation touches the shared cursor of
the other side only when it would otherwise fail, which is the cache-line
protection scheme: the common case runs entirely on side-local state.

One slot is kept unused to disambiguate full from empty, so a ring of
capacity N holds at most N-1 items. Exactly one producer thread and one
consumer thread may use a ring; CPython's atomic attribute store/load
provides the acquire/release contract on the shared cursors.

``push_many(items, start=0)`` is the producer's batch push: it copies as
many of ``items[start:]`` as fit into the slots with (at most two) slice
assignments and publishes the write cursor once, so a run of packets costs
one cursor update instead of one per packet. It returns how many it
pushed; 0 means the ring is full. The caller retries the rest.

``MutexRing`` and ``SpinLockRing`` implement the same functional contract
behind a lock (``push_many`` under one acquisition); they exist for the
synchronization benchmark comparison.
"""

from __future__ import annotations

import threading

DEFAULT_RING_SIZE = 256


def _check_capacity(capacity: int) -> None:
    if capacity < 2 or capacity & (capacity - 1):
        raise ValueError("ring capacity must be a power of two >= 2")


def _fill(slots: list, w: int, items, start: int, n: int) -> int:
    """Copy ``items[start:start + n]`` into ``slots`` from ``w``, wrapping;
    returns the new write cursor."""
    cap = len(slots)
    end = w + n
    if end <= cap:
        slots[w:end] = items[start : start + n]
        return end & (cap - 1)
    first = cap - w
    slots[w:] = items[start : start + first]
    slots[: end - cap] = items[start + first : start + n]
    return end - cap


class PktRing:
    """Lock-free SPSC FIFO ring with cache-friendly cursor access."""

    __slots__ = (
        "capacity",
        "_mask",
        "_slots",
        "write_pos",
        "read_pos",
        "_cached_read",
        "_cached_write",
    )

    def __init__(self, capacity: int = DEFAULT_RING_SIZE):
        _check_capacity(capacity)
        self.capacity = capacity
        self._mask = capacity - 1
        self._slots: list = [None] * capacity
        self.write_pos = 0  # shared, written by producer only
        self.read_pos = 0  # shared, written by consumer only
        self._cached_read = 0  # producer-local copy of read_pos
        self._cached_write = 0  # consumer-local copy of write_pos

    def push(self, item) -> bool:
        """Producer-only. Returns False when full (ring unchanged)."""
        w = self.write_pos
        nxt = (w + 1) & self._mask
        if nxt == self._cached_read:
            self._cached_read = self.read_pos  # refresh only on would-fail
            if nxt == self._cached_read:
                return False
        self._slots[w] = item
        self.write_pos = nxt  # release: item visible to consumer
        return True

    def push_many(self, items, start: int = 0) -> int:
        """Producer-only. Pushes as many of ``items[start:]`` as fit, in
        order; returns how many (0 when full or nothing to push)."""
        n = len(items) - start
        if n <= 0:
            return 0
        w = self.write_pos
        mask = self._mask
        free = (self._cached_read - w - 1) & mask
        if free < n:
            self._cached_read = self.read_pos  # refresh only on would-fail
            free = (self._cached_read - w - 1) & mask
            if free < n:
                n = free
                if not n:
                    return 0
        self.write_pos = _fill(self._slots, w, items, start, n)  # release once
        return n

    def pop(self):
        """Consumer-only. Returns None when empty."""
        r = self.read_pos
        if r == self._cached_write:
            self._cached_write = self.write_pos  # acquire: see producer writes
            if r == self._cached_write:
                return None
        slots = self._slots
        item = slots[r]
        slots[r] = None
        self.read_pos = (r + 1) & self._mask
        return item

    def occupancy(self) -> int:
        """Approximate under concurrency, exact when quiescent."""
        return (self.write_pos - self.read_pos) & self._mask


class NaiveLamportRing:
    """Lamport ring without cached cursors: every op reads both shared cursors.

    Kept for differential testing against the cache-friendly variant.
    """

    __slots__ = ("capacity", "_mask", "_slots", "write_pos", "read_pos")

    def __init__(self, capacity: int = DEFAULT_RING_SIZE):
        _check_capacity(capacity)
        self.capacity = capacity
        self._mask = capacity - 1
        self._slots: list = [None] * capacity
        self.write_pos = 0
        self.read_pos = 0

    def push(self, item) -> bool:
        w = self.write_pos
        nxt = (w + 1) & self._mask
        if nxt == self.read_pos:
            return False
        self._slots[w] = item
        self.write_pos = nxt
        return True

    def push_many(self, items, start: int = 0) -> int:
        w = self.write_pos
        n = min(len(items) - start, (self.read_pos - w - 1) & self._mask)
        if n <= 0:
            return 0
        self.write_pos = _fill(self._slots, w, items, start, n)
        return n

    def pop(self):
        r = self.read_pos
        if r == self.write_pos:
            return None
        item = self._slots[r]
        self._slots[r] = None
        self.read_pos = (r + 1) & self._mask
        return item

    def occupancy(self) -> int:
        return (self.write_pos - self.read_pos) & self._mask


class MutexRing:
    """Same contract, push/pop serialized by a blocking mutex."""

    __slots__ = ("capacity", "_mask", "_slots", "write_pos", "read_pos", "_lock")

    def __init__(self, capacity: int = DEFAULT_RING_SIZE):
        _check_capacity(capacity)
        self.capacity = capacity
        self._mask = capacity - 1
        self._slots: list = [None] * capacity
        self.write_pos = 0
        self.read_pos = 0
        self._lock = threading.Lock()

    def push(self, item) -> bool:
        with self._lock:
            w = self.write_pos
            nxt = (w + 1) & self._mask
            if nxt == self.read_pos:
                return False
            self._slots[w] = item
            self.write_pos = nxt
            return True

    def push_many(self, items, start: int = 0) -> int:
        with self._lock:
            w = self.write_pos
            n = min(len(items) - start, (self.read_pos - w - 1) & self._mask)
            if n <= 0:
                return 0
            self.write_pos = _fill(self._slots, w, items, start, n)
            return n

    def pop(self):
        with self._lock:
            r = self.read_pos
            if r == self.write_pos:
                return None
            item = self._slots[r]
            self._slots[r] = None
            self.read_pos = (r + 1) & self._mask
            return item

    def occupancy(self) -> int:
        with self._lock:
            return (self.write_pos - self.read_pos) & self._mask


class SpinLockRing:
    """Same contract, guarded by spin-retry lock acquisition (trylock loop)."""

    __slots__ = ("capacity", "_mask", "_slots", "write_pos", "read_pos", "_lock")

    def __init__(self, capacity: int = DEFAULT_RING_SIZE):
        _check_capacity(capacity)
        self.capacity = capacity
        self._mask = capacity - 1
        self._slots: list = [None] * capacity
        self.write_pos = 0
        self.read_pos = 0
        self._lock = threading.Lock()

    def push(self, item) -> bool:
        lock = self._lock
        while not lock.acquire(False):
            pass
        try:
            w = self.write_pos
            nxt = (w + 1) & self._mask
            if nxt == self.read_pos:
                return False
            self._slots[w] = item
            self.write_pos = nxt
            return True
        finally:
            lock.release()

    def push_many(self, items, start: int = 0) -> int:
        lock = self._lock
        while not lock.acquire(False):
            pass
        try:
            w = self.write_pos
            n = min(len(items) - start, (self.read_pos - w - 1) & self._mask)
            if n <= 0:
                return 0
            self.write_pos = _fill(self._slots, w, items, start, n)
            return n
        finally:
            lock.release()

    def pop(self):
        lock = self._lock
        while not lock.acquire(False):
            pass
        try:
            r = self.read_pos
            if r == self.write_pos:
                return None
            item = self._slots[r]
            self._slots[r] = None
            self.read_pos = (r + 1) & self._mask
            return item
        finally:
            lock.release()

    def occupancy(self) -> int:
        return (self.write_pos - self.read_pos) & self._mask


RING_VARIANTS = {
    "lockfree": PktRing,
    "lamport": NaiveLamportRing,
    "mutex": MutexRing,
    "spinlock": SpinLockRing,
}
