"""Flow-state management under a tight trusted-memory budget.

Three interlinked structures keep millions of flows trackable while only a
fixed working set of plaintext states ever lives in trusted memory:

  * ``flow cache`` — C fixed-size state slots in the trusted arena, linked
    into an LRU list.
  * ``flow store`` — sealed (AEAD ciphertext + 16-byte tag) state cells in
    the untrusted arena, recycled through a free list whose head/tail
    pointers stay on the trusted side.
  * ``flows`` — one dict from canonical flow id to lookup entry for every
    tracked flow, cached or sealed. One ``get`` serves a cache hit and a
    store hit alike; a swap only repoints the entry, so the store keeps no
    second structure. The paper keeps store-resident entries in a
    bucketized cuckoo table, a compact index with bounded probes in C; in
    CPython such a table is a list of references to the same entry objects
    the dict holds and buys nothing. The ``bytes`` keys hash with the
    interpreter's per-process keyed SipHash, so chosen flow ids cannot force
    collisions. ``footprint_bytes`` still models the per-flow metadata of
    the compact C index.

A lookup entry records the 13-byte flow id, a locator (trusted slot offset
or untrusted cell offset — which arena it points into tells you where the
state lives), the cache slot (``None`` exactly when the flow is sealed in
the store), a swap counter, and the last-access second. The swap counter
starts at a random 64-bit value and increments on every swap-out; it is
bound into both the AEAD nonce and the associated data together with the
flow id, so a stale or transplanted ciphertext can never be swapped back
in, and two seals of identical state never produce linkable ciphertexts.

Swaps do constant-time bookkeeping. A trusted index maps every store cell's
offset to its view, so addressing a sealed cell is one lookup; a locator
that is not the start of a cell (such as a free-list link the untrusted side
rewrote to point inside a cell) is rejected with ``AuthFailure``.

``_evict_lru`` is the one eviction path: it seals the least-recently-tracked
flow into a store cell, points its entry at that cell and frees its slot. A
miss with a full cache calls it, and so does the strawman variant in
``bench``, which seals its one cached state back before every track.

A manager instance is single-threaded by design: one instance per receive
ring, no shared mutable state between instances. The state region returned
by ``track`` stays valid until the next track/terminate/expire call on the
same manager.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .boundary import ArenaKind, MemoryEnv, Region
from .errors import AuthFailure
from .packets import canonical_fid

U64 = 0xFFFFFFFFFFFFFFFF
MAC_LEN = 16


class LkupEntry:
    __slots__ = ("fid", "locator", "slot", "swap_count", "last_access")

    def __init__(self, fid: bytes, swap_count: int):
        self.fid = fid
        self.swap_count = swap_count
        self.locator = 0
        self.slot: CacheSlot | None = None  # None while the flow is sealed in the store
        self.last_access = 0


class CacheSlot:
    __slots__ = ("base", "view", "entry", "prev", "next")

    def __init__(self, base: int, view: memoryview):
        self.base = base  # trusted-arena offset, used as the locator
        self.view = view
        self.entry: LkupEntry | None = None
        self.prev: CacheSlot | None = None
        self.next: CacheSlot | None = None


def seal_state(aead: AESGCM, iv4: bytes, fid: bytes, swap_count: int, state: bytes) -> bytes:
    """AEAD-seal one state: nonce = iv || counter, bound to fid || counter."""
    sc = swap_count.to_bytes(8, "big")
    return aead.encrypt(iv4 + sc, state, fid + sc)


def open_state(aead: AESGCM, iv4: bytes, fid: bytes, swap_count: int, sealed: bytes) -> bytes:
    sc = swap_count.to_bytes(8, "big")
    try:
        return aead.decrypt(iv4 + sc, sealed, fid + sc)
    except InvalidTag:
        raise AuthFailure(
            f"state for flow {fid.hex()} failed authentication at swap count {swap_count}"
        ) from None


@dataclass
class StateStats:
    tracks: int = 0
    hits: int = 0
    store_hits: int = 0
    new_flows: int = 0
    seals: int = 0
    opens: int = 0
    evictions: int = 0
    terminations: int = 0
    expirations: int = 0
    auth_failures: int = 0
    store_grows: int = 0
    resizes: int = 0  # the dict index never resizes: perfbench's statemgmt.resizes reads 0

    @property
    def misses(self) -> int:
        return self.tracks - self.hits

    @property
    def miss_rate(self) -> float:
        return self.misses / self.tracks if self.tracks else 0.0


def footprint_bytes(cache_entries: int, tracked_flows: int, ref_bytes: int = 8) -> dict[str, int]:
    """Trusted-memory metadata accounting (state bytes excluded).

    Per cached flow: three references of ``ref_bytes``. Per tracked flow:
    13-byte fid + one reference + 8-byte counter + 4-byte seconds, assuming
    full utilization of the lookup structure.
    """
    cache_meta = cache_entries * 3 * ref_bytes
    lkup_meta = tracked_flows * (13 + ref_bytes + 8 + 4)
    return {
        "cache_metadata": cache_meta,
        "lkup_metadata": lkup_meta,
        "total": cache_meta + lkup_meta,
    }


class StateManager:
    """Bounded plaintext cache + sealed untrusted store, one dict indexing both."""

    def __init__(
        self,
        capacity: int,
        state_size: int,
        expiration_s: int = 60,
        env: MemoryEnv | None = None,
        store_prealloc: int | None = None,
        seed: int | None = None,
    ):
        if capacity < 2:
            raise ValueError("cache capacity must be at least 2")
        if state_size < 1:
            raise ValueError("state size must be positive")
        self.capacity = capacity
        self.state_size = state_size
        self.expiration_s = expiration_s
        self.env = env or MemoryEnv()
        self.stats = StateStats()
        self.on_evict: Callable[[bytes], None] | None = None

        rng = random.Random(seed)
        self._rng = rng
        # key and IV drawn at init; they never leave the trusted side
        self._aead = AESGCM(rng.randbytes(16))
        self._iv4 = rng.randbytes(4)

        cache_region = self.env.alloc(ArenaKind.TRUSTED, capacity * state_size)
        whole = self.env.view(cache_region)
        self._slots = [
            CacheSlot(cache_region.base + i * state_size, whole[i * state_size : (i + 1) * state_size])
            for i in range(capacity)
        ]
        self._free_slots = list(reversed(self._slots))
        self._zero_state = bytes(state_size)

        self.flows: dict[bytes, LkupEntry] = {}  # canonical fid -> entry, cached or stored

        # LRU list: head sentinel <-> most recent ... least recent <-> tail sentinel
        self._lru_head = CacheSlot(0, memoryview(b""))
        self._lru_tail = CacheSlot(0, memoryview(b""))
        self._lru_head.next = self._lru_tail
        self._lru_tail.prev = self._lru_head

        # untrusted store pool threaded through a free list; head/tail trusted
        self._entry_size = state_size + MAC_LEN
        # trusted index of every store cell: cell offset -> view of that cell
        self._cells: dict[int, memoryview] = {}
        self._store_head = 0
        self._store_tail = 0
        self._prealloc = store_prealloc if store_prealloc is not None else 2 * capacity
        self._grow_pool(self._prealloc)

    # ---------------------------------------------------------------- store pool

    def _grow_pool(self, entries: int) -> None:
        size = self._entry_size
        region = self.env.alloc(ArenaKind.UNTRUSTED, entries * size)
        view = self.env.view(region)
        cells = self._cells
        for i in range(entries):
            off = region.base + i * size
            cells[off] = view[i * size : (i + 1) * size]
            self._freelist_push(off)

    def _store_view(self, off: int) -> memoryview:
        """The cell at ``off``; a locator that is not a cell start fails."""
        try:
            return self._cells[off]
        except KeyError:
            raise AuthFailure(f"store locator {off} is not the start of a store cell") from None

    def _freelist_push(self, off: int) -> None:
        self._store_view(off)[0:8] = (0).to_bytes(8, "big")
        if self._store_tail:
            self._store_view(self._store_tail)[0:8] = off.to_bytes(8, "big")
            self._store_tail = off
        else:
            self._store_head = self._store_tail = off

    def _freelist_pop(self) -> int:
        off = self._store_head
        nxt = int.from_bytes(self._store_view(off)[0:8], "big")
        if nxt:
            self._store_view(nxt)  # the link is untrusted: it must name a cell
        self._store_head = nxt
        if nxt == 0:
            self._store_tail = 0
        return off

    def store_alloc(self) -> int:
        """Pop a free untrusted cell, checked to lie untrusted.

        An empty pool grows via one crossing; growth doubles the pool so
        crossings stay rare no matter how far the preallocation was undershot.
        """
        if self._store_head == 0:
            self.env.crossing(False, 0)  # ask the untrusted side for more cells
            self._grow_pool(max(self._prealloc, len(self._cells)))
            self.stats.store_grows += 1
        off = self._freelist_pop()
        self.env.check_memory(Region(off, self._entry_size))
        return off

    def store_free(self, off: int) -> None:
        self._freelist_push(off)

    # ----------------------------------------------------------------- LRU list

    def _lru_push_front(self, slot: CacheSlot) -> None:
        first = self._lru_head.next
        slot.prev = self._lru_head
        slot.next = first
        first.prev = slot
        self._lru_head.next = slot

    def _lru_unlink(self, slot: CacheSlot) -> None:
        slot.prev.next = slot.next
        slot.next.prev = slot.prev
        slot.prev = slot.next = None

    # ----------------------------------------------------------------- tracking

    def track(self, fid: bytes, now_s: int) -> tuple[memoryview, bool, bool]:
        """Return (pinned state region, is_new, direction_flipped) for a flow.

        Cache hit: refresh LRU position, no crypto. Cache miss: find or
        create the sealed cell, verify it lies untrusted, evict the LRU
        victim (seal under its incremented swap counter into that cell),
        then open the incoming state into the freed slot. Raises
        ``AuthFailure`` when the sealed state was tampered, replayed, or
        deleted; the flow is dropped and the manager stays consistent.
        """
        fid, flipped = canonical_fid(fid)
        stats = self.stats
        stats.tracks += 1
        e = self.flows.get(fid)
        if e is not None and e.slot is not None:
            stats.hits += 1
            slot = e.slot
            if self._lru_head.next is not slot:
                self._lru_unlink(slot)
                self._lru_push_front(slot)
            e.last_access = now_s
            return slot.view, False, flipped

        is_new = e is None
        sealed = b""
        if is_new:
            stats.new_flows += 1
            e = LkupEntry(fid, self._rng.getrandbits(64))
        else:
            stats.store_hits += 1
            incoming_off = e.locator
            self.env.check_memory(Region(incoming_off, self._entry_size))
            sealed = bytes(self._store_view(incoming_off))  # capture before the cell is reused

        if self._free_slots:
            slot = self._free_slots.pop()
            if not is_new:
                # no victim will reuse the cell, so recycle it now
                self.store_free(incoming_off)
        else:
            # the victim goes into the incoming flow's cell when swapping,
            # a fresh one for a new flow
            slot = self._evict_lru(self.store_alloc() if is_new else incoming_off)

        if is_new:
            slot.view[:] = self._zero_state
            self.flows[fid] = e
        else:
            try:
                plaintext = open_state(self._aead, self._iv4, fid, e.swap_count, sealed)
            except AuthFailure:
                stats.auth_failures += 1
                # drop the flow: its lookup entry goes away, the slot stays free
                del self.flows[fid]
                self._free_slots.append(slot)
                raise
            stats.opens += 1
            slot.view[:] = plaintext

        slot.entry = e
        e.slot = slot
        e.locator = slot.base
        e.last_access = now_s
        self._lru_push_front(slot)
        return slot.view, is_new, flipped

    def _evict_lru(self, cell_off: int) -> CacheSlot:
        """Seal the least-recently-tracked flow into store cell ``cell_off``.

        Points its lookup entry at that cell and returns its now empty slot.
        """
        victim_slot = self._lru_tail.prev
        victim = victim_slot.entry
        victim.swap_count = (victim.swap_count + 1) & U64
        ct = seal_state(self._aead, self._iv4, victim.fid, victim.swap_count, bytes(victim_slot.view))
        self.stats.seals += 1
        self.stats.evictions += 1
        self._store_view(cell_off)[:] = ct
        victim.slot = None
        victim.locator = cell_off
        self._lru_unlink(victim_slot)
        victim_slot.entry = None
        if self.on_evict is not None:
            self.on_evict(victim.fid)
        return victim_slot

    def terminate(self, fid: bytes) -> bool:
        """Stop tracking a flow; clears its slot or deallocates its cell."""
        fid, _ = canonical_fid(fid)
        e = self.flows.pop(fid, None)
        if e is None:
            return False
        slot = e.slot
        if slot is not None:
            slot.view[:] = self._zero_state  # nullify
            self._lru_unlink(slot)
            slot.entry = None
            self._free_slots.append(slot)
        else:
            self.store_free(e.locator)
        self.stats.terminations += 1
        return True

    def expire(self, now_s: int) -> int:
        """Remove store-resident flows idle past the timeout.

        Cache-resident flows are recent by construction and are skipped.
        """
        timeout = self.expiration_s
        flows = self.flows
        expired = [
            e for e in flows.values() if e.slot is None and now_s - e.last_access > timeout
        ]
        for e in expired:
            del flows[e.fid]
            self.store_free(e.locator)
        self.stats.expirations += len(expired)
        return len(expired)

    # ---------------------------------------------------------------- inspection

    @property
    def cached_flows(self) -> int:
        return self.capacity - len(self._free_slots)

    @property
    def tracked_flows(self) -> int:
        return len(self.flows)

    def store_region_of(self, fid: bytes) -> Region | None:
        """Locate a flow's sealed cell (testing/instrumentation hook)."""
        fid, _ = canonical_fid(fid)
        e = self.flows.get(fid)
        if e is None or e.slot is not None:
            return None
        return Region(e.locator, self._entry_size)
