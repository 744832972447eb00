import random
import sys
import threading
import time
from collections import deque

import pytest

from enclavetap.ring import RING_VARIANTS, MutexRing, NaiveLamportRing, PktRing, SpinLockRing

ALL_RINGS = [PktRing, NaiveLamportRing, MutexRing, SpinLockRing]


@pytest.mark.parametrize("ring_cls", ALL_RINGS)
def test_push_pop_basics(ring_cls):
    ring = ring_cls(8)
    assert ring.pop() is None
    assert ring.push("a")
    assert ring.occupancy() == 1
    assert ring.push("b")
    assert ring.pop() == "a"
    assert ring.pop() == "b"
    assert ring.pop() is None


@pytest.mark.parametrize("ring_cls", ALL_RINGS)
def test_full_at_capacity_minus_one(ring_cls):
    ring = ring_cls(8)
    for i in range(7):  # one slot reserved to disambiguate full from empty
        assert ring.push(i)
    assert not ring.push(99)
    assert ring.occupancy() == 7
    assert ring.pop() == 0
    assert ring.push(99)


def test_capacity_must_be_power_of_two():
    with pytest.raises(ValueError):
        PktRing(100)
    with pytest.raises(ValueError):
        PktRing(1)


@pytest.mark.parametrize("ring_cls", ALL_RINGS)
def test_fifo_order_single_thread(ring_cls):
    ring = ring_cls(16)
    rng = random.Random(3)
    model = deque()
    for _ in range(20000):
        if rng.random() < 0.55:
            item = rng.getrandbits(32)
            if ring.push(item):
                model.append(item)
            else:
                assert len(model) == 15
        else:
            got = ring.pop()
            if got is None:
                assert not model
            else:
                assert got == model.popleft()
    while model:
        assert ring.pop() == model.popleft()


@pytest.mark.parametrize("ring_cls", [PktRing, MutexRing, SpinLockRing, NaiveLamportRing])
def test_two_thread_stress_no_loss_dup_reorder(ring_cls):
    """1M items through two threads arrive exactly in production order."""
    n = 1_000_000
    ring = ring_cls(256)
    failures = []

    def producer():
        push = ring.push
        for i in range(n):
            while not push(i):
                time.sleep(0)

    def consumer():
        pop = ring.pop
        expect = 0
        while expect < n:
            item = pop()
            if item is None:
                time.sleep(0)
                continue
            if item != expect:
                failures.append((expect, item))
                return
            expect += 1

    tp = threading.Thread(target=producer)
    tc = threading.Thread(target=consumer)
    tp.start()
    tc.start()
    tp.join(120)
    tc.join(120)
    assert not failures
    assert ring.occupancy() == 0


def test_cache_friendly_matches_naive_lamport(rng):
    """Differential: the cached-index variant behaves exactly like plain Lamport."""
    a = PktRing(32)
    b = NaiveLamportRing(32)
    for _ in range(50000):
        if rng.random() < 0.5:
            item = rng.getrandbits(16)
            assert a.push(item) == b.push(item)
        else:
            assert a.pop() == b.pop()
        assert a.occupancy() == b.occupancy()


def test_mutex_variants_functional_equivalence(rng):
    """Same operation sequence gives identical results on all variants."""
    rings = [cls(64) for cls in ALL_RINGS]
    for _ in range(30000):
        if rng.random() < 0.5:
            item = rng.getrandbits(16)
            results = {r.push(item) for r in rings}
            assert len(results) == 1
        else:
            results = {r.pop() for r in rings}
            assert len(results) == 1


def test_variant_registry():
    assert set(RING_VARIANTS) == {"lockfree", "lamport", "mutex", "spinlock"}


# ------------------------------------------------------------------ push_many

def _contents(ring):
    out = []
    while (item := ring.pop()) is not None:
        out.append(item)
    return out


@pytest.mark.parametrize("ring_cls", ALL_RINGS)
def test_push_many_wraps_around(ring_cls):
    ring = ring_cls(8)
    for i in range(5):
        assert ring.push(i)
    assert _contents(ring) == [0, 1, 2, 3, 4]  # cursors now at slot 5
    assert ring.push_many(list(range(10, 17))) == 7  # slots 5..7 then 0..3
    assert ring.occupancy() == 7
    assert _contents(ring) == list(range(10, 17))


@pytest.mark.parametrize("ring_cls", ALL_RINGS)
def test_push_many_partial_fit_and_start(ring_cls):
    ring = ring_cls(8)
    assert ring.push_many(["a", "b", "c"]) == 3
    items = list(range(10))
    assert ring.push_many(items, 2) == 4  # four free slots: 2, 3, 4, 5
    assert ring.push_many(items, 6) == 0  # full
    assert ring.pop() == "a"
    assert ring.push_many(items, 6) == 1
    assert _contents(ring) == ["b", "c", 2, 3, 4, 5, 6]
    assert ring.push_many(items, 10) == 0  # nothing left to push
    assert ring.push_many([]) == 0
    assert ring.occupancy() == 0


@pytest.mark.parametrize("ring_cls", ALL_RINGS)
def test_push_many_full_ring_returns_zero_unchanged(ring_cls):
    ring = ring_cls(4)
    assert ring.push_many([1, 2, 3, 4, 5]) == 3
    assert ring.push_many([9, 9]) == 0
    assert ring.occupancy() == 3
    assert _contents(ring) == [1, 2, 3]


@pytest.mark.parametrize("ring_cls", ALL_RINGS)
def test_push_many_matches_per_item_push(ring_cls, rng):
    """Differential: push_many behaves as per-item push up to the first failure."""
    batched = ring_cls(16)
    single = ring_cls(16)
    for _ in range(20000):
        if rng.random() < 0.5:
            items = [rng.getrandbits(16) for _ in range(rng.randrange(0, 20))]
            start = rng.randrange(0, len(items) + 1)
            expect = 0
            for item in items[start:]:
                if not single.push(item):
                    break
                expect += 1
            assert batched.push_many(items, start) == expect
        else:
            for _ in range(rng.randrange(1, 12)):
                assert batched.pop() == single.pop()
        assert batched.occupancy() == single.occupancy()
    assert _contents(batched) == _contents(single)


@pytest.mark.parametrize("ring_cls", ALL_RINGS)
def test_two_thread_stress_push_many_chunks(ring_cls):
    """Random-sized chunks pushed with push_many arrive exactly in order."""
    n = 300_000
    ring = ring_cls(256)
    failures = []

    def producer():
        chunk_rng = random.Random(11)
        push_many = ring.push_many
        i = 0
        while i < n and not failures:
            chunk = list(range(i, min(n, i + chunk_rng.randrange(1, 400))))
            done = push_many(chunk)
            while done < len(chunk) and not failures:
                time.sleep(0)
                done += push_many(chunk, done)
            i += len(chunk)

    def consumer():
        pop = ring.pop
        expect = 0
        while expect < n:
            item = pop()
            if item is None:
                time.sleep(0)
                continue
            if item != expect:
                failures.append((expect, item))
                return
            expect += 1

    tp = threading.Thread(target=producer, daemon=True)
    tc = threading.Thread(target=consumer, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside push_many's window too
    try:
        tp.start()
        tc.start()
        tp.join(120)
        tc.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert not tp.is_alive() and not tc.is_alive()
    assert ring.occupancy() == 0
