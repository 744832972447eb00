import random

import pytest

from enclavetap.bench import StrawmanState
from enclavetap.boundary import BoundaryConfig, MemoryEnv, Region
from enclavetap.errors import AuthFailure
from enclavetap.packets import FlowId
from enclavetap.statemgmt import (
    LkupEntry,
    StateManager,
    footprint_bytes,
    open_state,
    seal_state,
)

from conftest import rand_fid
from refmodels import RefStateModel


def mgr_env() -> MemoryEnv:
    return MemoryEnv(BoundaryConfig(trusted_capacity_bytes=64 << 20, untrusted_capacity_bytes=256 << 20))


def fid_n(n: int) -> bytes:
    return n.to_bytes(13, "big")


# ---------------------------------------------------------------------- init

def test_init_rejects_tiny_cache():
    with pytest.raises(ValueError):
        StateManager(1, 64)


def test_init_trusted_footprint_accounting():
    env = mgr_env()
    before = env.trusted.used
    StateManager(16384, 512, env=env, seed=1)
    assert env.trusted.used - before == 16384 * 512


def test_init_key_material_not_in_untrusted_arena():
    env = mgr_env()
    mgr = StateManager(4, 64, env=env, seed=1)
    # the store pool is the only untrusted allocation; it starts as free-list
    # links and never receives key bytes
    assert env.untrusted.used == mgr._prealloc * (64 + 16)


def test_footprint_paper_scale_configuration():
    fp = footprint_bytes(16 * 1024, 1_000_000)
    assert fp["cache_metadata"] == 16 * 1024 * 24
    assert fp["lkup_metadata"] == 1_000_000 * 33
    # about 33.8 MB, within 5%
    assert abs(fp["total"] - 33.8e6) / 33.8e6 < 0.05


# ---------------------------------------------------------------- seal/open

def test_seal_distinct_under_consecutive_counters(rng):
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    aead = AESGCM(rng.randbytes(16))
    iv = rng.randbytes(4)
    fid = rand_fid(rng)
    state = rng.randbytes(128)
    a = seal_state(aead, iv, fid, 7, state)
    b = seal_state(aead, iv, fid, 8, state)
    assert a != b
    assert len(a) == len(b) == 128 + 16


def test_open_wrong_fid_fails(rng):
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    aead = AESGCM(rng.randbytes(16))
    iv = rng.randbytes(4)
    sealed = seal_state(aead, iv, fid_n(1), 5, bytes(64))
    assert open_state(aead, iv, fid_n(1), 5, sealed) == bytes(64)
    with pytest.raises(AuthFailure):
        open_state(aead, iv, fid_n(2), 5, sealed)


def test_open_wrong_counter_fails(rng):
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    aead = AESGCM(rng.randbytes(16))
    iv = rng.randbytes(4)
    sealed = seal_state(aead, iv, fid_n(1), 5, bytes(64))
    with pytest.raises(AuthFailure):
        open_state(aead, iv, fid_n(1), 6, sealed)


# ----------------------------------------------------------------- tracking

def test_track_lru_eviction_and_bit_exact_restore():
    mgr = StateManager(2, 32, env=mgr_env(), seed=7)
    evicted = []
    mgr.on_evict = evicted.append
    f1, f2, f3 = fid_n(1), fid_n(2), fid_n(3)
    v, new, _ = mgr.track(f1, 0)
    assert new
    v[:] = b"\x11" * 32
    v, new, _ = mgr.track(f2, 1)
    v[:] = b"\x22" * 32
    v, new, _ = mgr.track(f3, 2)  # f1 is the least recently tracked
    assert evicted == [f1]
    v, new, _ = mgr.track(f1, 3)  # f2 evicted, f1 restored bit-exact
    assert not new
    assert evicted == [f1, f2]
    assert bytes(v) == b"\x11" * 32


def test_track_cache_hit_no_crypto():
    mgr = StateManager(4, 64, env=mgr_env(), seed=8)
    mgr.track(fid_n(1), 0)
    seals, opens = mgr.stats.seals, mgr.stats.opens
    mgr.track(fid_n(1), 1)
    assert mgr.stats.hits == 1
    assert (mgr.stats.seals, mgr.stats.opens) == (seals, opens)


def test_track_returns_direction_flag():
    mgr = StateManager(2, 16, env=mgr_env(), seed=9)
    fwd = FlowId(bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]), 999, 80, 6).pack()
    rev = FlowId(bytes([10, 0, 0, 2]), bytes([10, 0, 0, 1]), 80, 999, 6).pack()
    v1, new1, flip1 = mgr.track(fwd, 0)
    v2, new2, flip2 = mgr.track(rev, 1)
    assert new1 and not new2
    assert flip1 != flip2


def test_replay_attack_rejected():
    env = mgr_env()
    mgr = StateManager(2, 64, env=env, seed=10)
    f1, f2, f3 = fid_n(1), fid_n(2), fid_n(3)
    v, _, _ = mgr.track(f1, 0)
    v[:8] = b"version1"
    mgr.track(f2, 1)
    mgr.track(f3, 2)  # f1 sealed out
    region = mgr.store_region_of(f1)
    snapshot = bytes(env.view(region))
    v, _, _ = mgr.track(f1, 3)  # swapped back in
    assert bytes(v[:8]) == b"version1"
    v[:8] = b"version2"
    mgr.track(f2, 4)
    mgr.track(f3, 5)  # f1 sealed out again under a higher swap count
    region2 = mgr.store_region_of(f1)
    env.view(region2)[:] = snapshot  # adversary restores the old ciphertext
    with pytest.raises(AuthFailure):
        mgr.track(f1, 6)
    assert mgr.stats.auth_failures == 1
    # manager still consistent: other flows unaffected, f1 dropped
    v, new, _ = mgr.track(f2, 7)
    assert not new
    v, new, _ = mgr.track(f1, 8)
    assert new


def test_tampered_store_entry_rejected():
    env = mgr_env()
    mgr = StateManager(2, 64, env=env, seed=11)
    for i in range(3):
        mgr.track(fid_n(i), i)
    region = mgr.store_region_of(fid_n(0))
    view = env.view(region)
    view[20] ^= 0x01
    with pytest.raises(AuthFailure):
        mgr.track(fid_n(0), 9)


def test_swap_count_unlinkability():
    """Identical plaintext sealed on consecutive swap-outs differs."""
    env = mgr_env()
    mgr = StateManager(2, 64, env=env, seed=12)
    f1, f2, f3 = fid_n(1), fid_n(2), fid_n(3)
    mgr.track(f1, 0)  # state stays all zeros
    mgr.track(f2, 1)
    mgr.track(f3, 2)  # f1 sealed out (zeros)
    ct1 = bytes(env.view(mgr.store_region_of(f1)))
    mgr.track(f1, 3)  # back in, untouched
    mgr.track(f2, 4)
    mgr.track(f3, 5)  # f1 sealed out again (still zeros)
    ct2 = bytes(env.view(mgr.store_region_of(f1)))
    assert ct1 != ct2


def test_initial_swap_counts_span_range():
    mgr = StateManager(2, 16, env=mgr_env(), seed=13)
    counts = [LkupEntry(rand_fid(random.Random(i)), mgr._rng.getrandbits(64)).swap_count for i in range(4000)]
    quarters = [0, 0, 0, 0]
    for c in counts:
        quarters[c >> 62] += 1
    for q in quarters:
        assert q > 0.15 * len(counts)


# ---------------------------------------------------------------- terminate

def test_terminate_then_track_is_new():
    mgr = StateManager(4, 32, env=mgr_env(), seed=14)
    mgr.track(fid_n(5), 0)
    assert mgr.terminate(fid_n(5))
    v, new, _ = mgr.track(fid_n(5), 1)
    assert new


def test_terminate_unknown_not_found():
    mgr = StateManager(4, 32, env=mgr_env(), seed=15)
    assert not mgr.terminate(fid_n(404))


def test_terminate_store_resident_flow():
    mgr = StateManager(2, 32, env=mgr_env(), seed=16)
    for i in range(4):
        mgr.track(fid_n(i), i)
    # fid 0 and 1 are store-resident now
    assert mgr.terminate(fid_n(0))
    v, new, _ = mgr.track(fid_n(0), 9)
    assert new


def test_terminate_leaves_other_states_bit_identical(rng):
    mgr = StateManager(4, 48, env=mgr_env(), seed=17)
    contents = {}
    for i in range(8):
        v, _, _ = mgr.track(fid_n(i), i)
        blob = rng.randbytes(48)
        v[:] = blob
        contents[fid_n(i)] = blob
    mgr.terminate(fid_n(3))
    del contents[fid_n(3)]
    for fid, blob in contents.items():
        v, new, _ = mgr.track(fid, 100)
        assert not new
        assert bytes(v) == blob


# ------------------------------------------------------------------- expire

def test_expire_store_resident_only():
    mgr = StateManager(2, 32, env=mgr_env(), expiration_s=10, seed=18)
    mgr.track(fid_n(1), 0)
    mgr.track(fid_n(2), 0)
    mgr.track(fid_n(3), 0)  # fid 1 pushed to store
    removed = mgr.expire(100)
    assert removed == 1  # only the store-resident idle flow goes
    # cache-resident idle flows are retained: the walk does not touch them
    v, new, _ = mgr.track(fid_n(2), 101)
    assert not new
    v, new, _ = mgr.track(fid_n(1), 102)
    assert new


def test_expire_monotone_in_timeout(rng):
    def removals(timeout: int) -> int:
        mgr = StateManager(2, 16, env=mgr_env(), expiration_s=timeout, seed=19)
        r = random.Random(5)
        for i in range(200):
            mgr.track(fid_n(r.randrange(50)), i)
        return mgr.expire(260)

    assert removals(30) >= removals(60)


def test_expire_returns_zero_when_fresh():
    mgr = StateManager(2, 16, env=mgr_env(), expiration_s=60, seed=20)
    mgr.track(fid_n(1), 100)
    assert mgr.expire(101) == 0


# --------------------------------------------------------------- store pool

def test_store_alloc_passes_check_memory():
    env = mgr_env()
    mgr = StateManager(2, 32, env=env, seed=21)
    off = mgr.store_alloc()
    from enclavetap.boundary import Region

    env.check_memory(Region(off, 32 + 16))


def test_store_alloc_beyond_prealloc_one_crossing():
    env = mgr_env()
    mgr = StateManager(2, 32, env=env, store_prealloc=3, seed=22)
    offs = [mgr.store_alloc() for _ in range(3)]
    before = env.stats.ocall_count
    extra = mgr.store_alloc()  # pool exhausted: exactly one crossing, then success
    assert env.stats.ocall_count == before + 1
    assert extra not in offs
    assert mgr.stats.store_grows == 1


def test_tampered_freelist_link_rejected():
    env = mgr_env()
    mgr = StateManager(2, 32, env=env, seed=25)
    for i in range(3):
        mgr.track(fid_n(i), i)  # fid 0 sealed out into a fresh cell
    tracked, cached = mgr.tracked_flows, mgr.cached_flows
    # the untrusted side points a free cell's link 7 bytes into the next cell
    link = Region(mgr._store_head, 8)
    env.store(link, (int.from_bytes(env.load(link), "big") + 7).to_bytes(8, "big"))
    with pytest.raises(AuthFailure):
        mgr.track(fid_n(3), 3)  # a new flow evicts into a freshly allocated cell
    with pytest.raises(AuthFailure):
        mgr.store_alloc()
    assert (mgr.tracked_flows, mgr.cached_flows) == (tracked, cached)


def test_store_free_then_alloc_reuses():
    mgr = StateManager(2, 32, env=mgr_env(), store_prealloc=2, seed=23)
    a = mgr.store_alloc()
    b = mgr.store_alloc()
    mgr.store_free(a)
    got = [mgr.store_alloc()]
    assert a in got


# ----------------------------------------------------- reference equivalence

def run_equivalence(capacity: int, ops: int, fids: int, seed: int, state_size: int = 24):
    """Capacity 1 runs the strawman, which keeps at most one cached state."""
    rng = random.Random(seed)
    env = mgr_env()
    if capacity == 1:
        mgr = StrawmanState(state_size, expiration_s=50, env=env, seed=seed)
    else:
        mgr = StateManager(capacity, state_size, expiration_s=50, env=env, seed=seed)
    ref = RefStateModel(capacity, state_size, expiration_s=50)
    victims: list[bytes] = []
    mgr.on_evict = victims.append
    now = 0
    for i in range(ops):
        now += rng.random() < 0.01
        op = rng.random()
        fid = rng.randrange(fids).to_bytes(13, "big")
        if op < 0.85:
            view, is_new, flip = mgr.track(fid, now)
            st, ref_new, ref_flip, victim = ref.track(fid, now)
            assert is_new == ref_new
            assert flip == ref_flip
            assert bytes(view) == bytes(st), f"state mismatch at op {i}"
            if victim is not None:
                assert victims and victims[-1] == victim, f"LRU victim mismatch at op {i}"
            # mutate identically through both models
            if rng.random() < 0.5:
                blob = rng.randbytes(state_size)
                view[:] = blob
                st[:] = blob
        elif op < 0.95:
            assert mgr.terminate(fid) == ref.terminate(fid)
        else:
            mgr.expire(now)
            ref.expire(now)
            assert mgr.tracked_flows == len(ref.states)
        assert mgr.cached_flows <= capacity
        assert mgr.cached_flows == ref.cached_flows
    # final sweep: all tracked states bit-exact
    for fid, st in list(ref.states.items()):
        view, is_new, _ = mgr.track(fid, now)
        ref.track(fid, now)
        assert not is_new
        assert bytes(view) == bytes(st)


@pytest.mark.parametrize("capacity", [2, 16, 256, pytest.param(1, id="strawman")])
def test_reference_equivalence(capacity):
    run_equivalence(capacity, ops=20_000, fids=400, seed=100 + capacity)


def test_single_index_invariants(rng):
    mgr = StateManager(8, 16, env=mgr_env(), store_prealloc=4, seed=24)
    fids = [rand_fid(rng) for _ in range(50)]
    r = random.Random(1)
    trusted = mgr.env.trusted
    for i in range(2000):
        fid = r.choice(fids)
        op = r.random()
        if op < 0.85:
            mgr.track(fid, i // 10)
        elif op < 0.95:
            mgr.terminate(fid)
        else:
            mgr.expire(i // 10)
        cached = sum(e.slot is not None for e in mgr.flows.values())
        assert mgr.tracked_flows == len(mgr.flows)
        assert mgr.cached_flows == cached <= mgr.capacity
        for fid_key, e in mgr.flows.items():
            assert e.fid == fid_key
            # an entry has a slot exactly when its locator is trusted
            assert (e.slot is not None) == (trusted.base <= e.locator < trusted.end)
            if e.slot is not None:
                assert e.slot.entry is e and e.locator == e.slot.base
            else:
                # a store entry's locator is the start of an untrusted cell
                assert e.locator in mgr._cells
                assert mgr.env.is_untrusted(Region(e.locator, mgr._entry_size))
                assert mgr.store_region_of(fid_key) == Region(e.locator, mgr._entry_size)
    assert mgr.stats.store_grows > 0 and mgr.stats.terminations > 0
    assert 0 < mgr.cached_flows < mgr.tracked_flows
