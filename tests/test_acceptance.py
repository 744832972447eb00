"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. Quantitative shape checks
assert orderings and soft thresholds at desk scale; workload parameters are
pinned here so runs are reproducible.
"""

import random
import statistics
import time

import pytest

from enclavetap.bench import (
    IoWorkloadConfig,
    VariantWorkload,
    measure_miss_rate,
    run_io_workload,
    run_variant,
    sync_comparison,
    trace_fids,
)
from enclavetap.boundary import BoundaryConfig, MemoryEnv
from enclavetap.channel import loopback_pair
from enclavetap.errors import AuthFailure
from enclavetap.etap import EtapConfig, EtapDevice, TrustedClock
from enclavetap.gateway import Gateway, GatewayConfig, SyntheticConfig, SyntheticSource
from enclavetap.nf import FlowMeter, BufferedIds, PatternSet
from enclavetap.packets import parse_packet
from enclavetap.ring import PktRing
from enclavetap.statemgmt import StateManager, footprint_bytes, seal_state
from enclavetap.wire import (
    FRAME_DATA,
    FRAME_HB_REQ,
    FRAME_HB_RESP,
    SEALED_RECORD_LEN,
    ChannelKeys,
    Frame,
    RecordPacker,
    RecordParser,
    frame_encode,
    pack_stream,
)

from refmodels import RefStateModel, flowmeter_oracle, ids_oracle


def report(n: int, text: str) -> None:
    print(f"\nPASS criterion {n}: {text}")


def _env(trusted_mb=64, untrusted_mb=512):
    return MemoryEnv(
        BoundaryConfig(
            trusted_capacity_bytes=trusted_mb << 20, untrusted_capacity_bytes=untrusted_mb << 20
        )
    )


# --------------------------------------------------------------------------
# 1. Codec round-trip: 10,000 randomized frame sequences survive
#    pack -> seal -> open -> parse byte-exactly, incl. cross-record splits.
# --------------------------------------------------------------------------

def test_criterion_01_codec_round_trip():
    rng = random.Random(11)
    keys = ChannelKeys.from_secret(b"acceptance-1")
    sealer = keys.gateway_sealer()
    opener = keys.device_opener()
    t0 = time.perf_counter()
    sequences = 10_000
    split_sequences = 0
    for seq in range(sequences):
        frames = []
        if seq % 3 == 0:
            # forced cross-record split: at least 14 x 1211 bytes > one record
            n = rng.randint(14, 20)
            lo, hi = 1200, 1500
        else:
            n = rng.randint(0, 6)
            lo, hi = 0, 1500
        for _ in range(n):
            kind = rng.random()
            if kind < 0.85:
                frames.append(
                    Frame(FRAME_DATA, rng.getrandbits(60), rng.randbytes(rng.randint(lo, hi)))
                )
            else:
                frames.append(Frame(rng.choice((FRAME_HB_REQ, FRAME_HB_RESP)), rng.getrandbits(60)))
        records = pack_stream(frames, flush=True)
        if len(records) > 1:
            split_sequences += 1
        parser = RecordParser()
        got = []
        for rec in records:
            got.extend(parser.feed(opener.open(sealer.seal(rec))))
        assert got == frames
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert split_sequences > 1000
    report(1, f"10,000 sequences round-tripped byte-exactly in {elapsed:.1f}s "
              f"({split_sequences} crossed record boundaries)")


# --------------------------------------------------------------------------
# 2. Fixed-record invariant: >=5 distinct traffic mixes, one record length.
# --------------------------------------------------------------------------

def test_criterion_02_fixed_record_length():
    keys = ChannelKeys.from_secret(b"acceptance-2")
    mixes = [
        SyntheticConfig(flows=4, count=200, seed=1, pkt_size=64),
        SyntheticConfig(flows=50, count=300, seed=2, pkt_size=1400),
        SyntheticConfig(flows=10, count=500, seed=3, pkt_size=(60, 1500), zipf=1.2),
        SyntheticConfig(flows=2, count=37, seed=4, pkt_size=333, udp_fraction=1.0),
        SyntheticConfig(flows=100, count=1000, seed=5, pkt_size=(64, 256)),
        SyntheticConfig(flows=1, count=1, seed=6, pkt_size=128),
    ]
    lengths = set()
    for cfg in mixes:
        ch_gw, ch_capture = loopback_pair()
        gw = Gateway(ch_gw, keys, GatewayConfig(peer_batch_size=7))
        gw.start(SyntheticSource(cfg))
        gw.wait_source_done(60)
        nrec = gw.stats.records_sent
        data = ch_capture.recv_exact(nrec * SEALED_RECORD_LEN)
        gw.stop()
        for i in range(nrec):
            lengths.add(len(data[i * SEALED_RECORD_LEN : (i + 1) * SEALED_RECORD_LEN]))
        assert nrec % 7 == 0  # stream stays aligned to the peer batch
    assert lengths == {SEALED_RECORD_LEN}
    report(2, f"{len(mixes)} traffic mixes produced a single on-wire record length "
              f"({SEALED_RECORD_LEN} bytes)")


# --------------------------------------------------------------------------
# 3. Integrity suite: tampers, replays, drops, reorders all fail closed.
# --------------------------------------------------------------------------

def _stream_records(rng, keys, n=3):
    sealer = keys.gateway_sealer()
    frames_per_record = []
    records = []
    packer = RecordPacker()
    for _ in range(n):
        frames = [Frame(FRAME_DATA, rng.getrandbits(40), rng.randbytes(rng.randint(1, 200)))
                  for _ in range(rng.randint(1, 5))]
        recs = []
        for f in frames:
            recs.extend(packer.add(frame_encode(f)))
        rec = packer.flush()
        if rec is not None:
            recs.append(rec)
        assert len(recs) == 1
        frames_per_record.append(frames)
        records.append(sealer.seal(recs[0]))
    return records, frames_per_record


def test_criterion_03_integrity_suite():
    rng = random.Random(33)
    keys = ChannelKeys.from_secret(b"acceptance-3")

    def deliver(records, expect_fail_at):
        """Feed sealed records in order; return frames delivered before failure."""
        opener = keys.device_opener()
        parser = RecordParser()
        delivered = []
        for i, sealed in enumerate(records):
            try:
                delivered.extend(parser.feed(opener.open(sealed)))
            except AuthFailure:
                assert i == expect_fail_at
                return delivered, True
        return delivered, False

    tamper_failures = 0
    for _ in range(1000):
        records, frames = _stream_records(rng, keys)
        j = rng.randrange(len(records))
        bad = bytearray(records[j])
        bit = rng.randrange(len(bad) * 8)
        bad[bit // 8] ^= 1 << (bit % 8)
        records[j] = bytes(bad)
        delivered, failed = deliver(records, j)
        assert failed
        assert delivered == [f for fs in frames[:j] for f in fs]  # nothing past the failure
        tamper_failures += 1

    replay_failures = drop_failures = reorder_failures = 0
    for _ in range(100):
        records, frames = _stream_records(rng, keys, n=4)
        j = rng.randrange(1, 4)
        replayed = records[:j] + [records[j - 1]] + records[j:]
        delivered, failed = deliver(replayed, j)
        assert failed and delivered == [f for fs in frames[:j] for f in fs]
        replay_failures += 1

        records, frames = _stream_records(rng, keys, n=4)
        j = rng.randrange(0, 3)
        dropped = records[:j] + records[j + 1 :]
        delivered, failed = deliver(dropped, j)
        assert failed and delivered == [f for fs in frames[:j] for f in fs]
        drop_failures += 1

        records, frames = _stream_records(rng, keys, n=4)
        j = rng.randrange(0, 3)
        swapped = records[:]
        swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
        delivered, failed = deliver(swapped, j)
        assert failed and delivered == [f for fs in frames[:j] for f in fs]
        reorder_failures += 1

    assert (tamper_failures, replay_failures, drop_failures, reorder_failures) == (1000, 100, 100, 100)
    report(3, "1000 tampers + 100 replays + 100 drops + 100 reorders all failed closed "
              "with zero frames delivered past the failure")


# --------------------------------------------------------------------------
# 4. SPSC ring: 10M-item stress, then lock-free >= 2x mutex throughput.
# --------------------------------------------------------------------------

def test_criterion_04_ring_stress_and_sync_ordering():
    import threading

    n = 10_000_000
    ring = PktRing(256)
    mismatch = []

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
                mismatch.append((expect, item))
                return
            expect += 1

    tp = threading.Thread(target=producer)
    tc = threading.Thread(target=consumer)
    t0 = time.perf_counter()
    tp.start()
    tc.start()
    tp.join(300)
    tc.join(300)
    stress_dt = time.perf_counter() - t0
    assert not mismatch, f"loss/duplication/reorder at {mismatch[:1]}"
    assert ring.occupancy() == 0

    rates = sync_comparison(("lockfree", "mutex"), items=500_000, payload_size=64, reps=3)
    ratio = rates["lockfree"] / rates["mutex"]
    assert ratio >= 2.0, f"lock-free only {ratio:.2f}x mutex"
    report(4, f"10M items, zero loss/dup/reorder in {stress_dt:.1f}s; "
              f"lock-free {rates['lockfree']/1e6:.2f}M/s vs mutex {rates['mutex']/1e6:.2f}M/s "
              f"({ratio:.1f}x, 64 B payloads)")


# --------------------------------------------------------------------------
# 5. State-management oracle: 1M ops per cache size, bit-exact vs reference;
#    trusted plaintext states never exceed the cache capacity.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("capacity", [2, 64, 4096])
def test_criterion_05_state_oracle(capacity):
    ops = 1_000_000
    fids_n = 100_000
    state_size = 24
    rng = random.Random(500 + capacity)
    mgr = StateManager(capacity, state_size, expiration_s=50, env=_env(), seed=capacity)
    ref = RefStateModel(capacity, state_size, expiration_s=50)
    victims: list[bytes] = []
    mgr.on_evict = victims.append
    now = 0
    max_cached = 0
    t0 = time.perf_counter()
    for i in range(ops):
        r = rng.random()
        if r < 0.01:
            now += 1
        fid = rng.randrange(fids_n).to_bytes(13, "big")
        op = rng.random()
        if op < 0.88:
            view, is_new, flip = mgr.track(fid, now)
            st, ref_new, ref_flip, victim = ref.track(fid, now)
            assert is_new == ref_new and flip == ref_flip
            assert bytes(view) == bytes(st)
            if victim is not None:
                assert victims[-1] == victim
            if op < 0.40:
                blob = rng.randbytes(state_size)
                view[:] = blob
                st[:] = blob
        elif op < 0.9998:
            assert mgr.terminate(fid) == ref.terminate(fid)
        else:
            mgr.expire(now)
            ref.expire(now)
            assert mgr.tracked_flows == len(ref.states)
        cached = mgr.cached_flows
        max_cached = max(max_cached, cached)
        assert cached <= capacity
        assert cached == ref.cached_flows
    for fid, st in list(ref.states.items())[:2000]:
        view, is_new, _ = mgr.track(fid, now)
        ref.track(fid, now)
        assert not is_new and bytes(view) == bytes(st)
    dt = time.perf_counter() - t0
    report(5, f"C={capacity}: 1M ops bit-exact vs reference model in {dt:.0f}s; "
              f"peak trusted plaintext states {max_cached} <= {capacity} "
              f"(evictions {mgr.stats.evictions}, expirations {mgr.stats.expirations})")


# --------------------------------------------------------------------------
# 6. Freshness: snapshot-replay of a sealed state cell rejected 100/100.
# --------------------------------------------------------------------------

def test_criterion_06_freshness_replay():
    env = _env()
    mgr = StateManager(2, 64, env=env, seed=66)
    rejected = 0
    for trial in range(100):
        f = (1000 + trial).to_bytes(13, "big")
        a = (1 + trial * 3).to_bytes(13, "little")
        b = (2 + trial * 3).to_bytes(13, "little")
        view, _, _ = mgr.track(f, trial)
        view[:8] = b"epoch-v1"
        mgr.track(a, trial)
        mgr.track(b, trial)  # f sealed out
        snapshot = bytes(env.view(mgr.store_region_of(f)))
        view, _, _ = mgr.track(f, trial)  # back in
        view[:8] = b"epoch-v2"
        mgr.track(a, trial)
        mgr.track(b, trial)  # f sealed out under the incremented counter
        env.view(mgr.store_region_of(f))[:] = snapshot
        try:
            mgr.track(f, trial)
        except AuthFailure:
            rejected += 1
        mgr.terminate(a)
        mgr.terminate(b)
    assert rejected == 100
    report(6, "snapshot-replay of sealed flow state rejected in 100/100 trials")


# --------------------------------------------------------------------------
# 8. Footprint accounting: 16K cache + 1M flows -> ~33.8 MB (+-5%).
# --------------------------------------------------------------------------

def test_criterion_08_footprint_accounting():
    fp = footprint_bytes(16 * 1024, 1_000_000, ref_bytes=8)
    rel = abs(fp["total"] - 33.8e6) / 33.8e6
    assert rel < 0.05
    report(8, f"metadata footprint {fp['total']/1e6:.2f} MB for 16K cache + 1M tracked flows "
              f"({rel*100:.1f}% from 33.8 MB)")


# --------------------------------------------------------------------------
# 9. Clock: monotonic under adversarial orderings; RTT within +-20% of the
#    injected loopback delay.
# --------------------------------------------------------------------------

def test_criterion_09_clock():
    rng = random.Random(99)
    clock = TrustedClock(t_off_us=-250, t_rtd_us=480)
    last = 0
    for _ in range(50_000):
        clock.update_from_packet(rng.randrange(0, 1 << 44))
        assert clock.now() >= last
        last = clock.now()

    keys = ChannelKeys.from_secret(b"acceptance-9")
    delay = 0.020  # per direction; expected round trip 40 ms
    ch_gw, ch_dev = loopback_pair(delay_s=delay)
    dev = EtapDevice(
        ch_dev, keys, _env(8, 64), EtapConfig(batch_size=1, heartbeat_period_ms=100, idle_flush_ms=2)
    )
    gw = Gateway(ch_gw, keys, GatewayConfig(peer_batch_size=1))
    dev.start()
    gw.start(iter(()))
    deadline = time.monotonic() + 15
    while dev.clock.t_rtd_us == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    rtd = dev.clock.t_rtd_us
    gw.stop()
    dev.stop()
    expected = 2 * delay * 1e6
    assert rtd > 0
    assert abs(rtd - expected) <= 0.20 * expected, f"rtd {rtd}us vs injected {expected}us"
    report(9, f"clock monotonic over 50k adversarial updates; heartbeat RTT {rtd/1000:.1f} ms "
              f"within 20% of injected {expected/1000:.0f} ms")


# --------------------------------------------------------------------------
# 10. NF oracles on a 1M-packet synthetic trace; identical outputs across
#     native / strawman / managed variants.
# --------------------------------------------------------------------------

FM_TRACE = SyntheticConfig(flows=50_000, count=1_000_000, seed=1010, pkt_size=(64, 200),
                           zipf=1.1, udp_fraction=0.2)
IDS_TRACE = SyntheticConfig(flows=20_000, count=1_000_000, seed=1011, pkt_size=(80, 300))
IDS_PATTERNS = [b"attack", b"\x00EVIL\x00", b"exfil9"]


def _ids_frames(cfg):
    """Trace with seeded pattern planting; identical bytes on every call."""
    plant = random.Random(777)
    for ts, frame in SyntheticSource(cfg):
        pp = parse_packet(frame)
        if pp.payload_len > 12 and plant.random() < 0.05:
            pat = plant.choice(IDS_PATTERNS)
            off = pp.payload_off + plant.randrange(pp.payload_len - len(pat))
            frame = frame[:off] + pat + frame[off + len(pat) :]
        yield ts, frame


def _run_flowmeter(backend):
    fm = FlowMeter(backend, emit_events=True)
    for ts, frame in SyntheticSource(FM_TRACE):
        pp = parse_packet(frame)
        fm.process_parsed(pp, ts)
    return fm


def _run_ids(backend):
    ids = BufferedIds(backend, PatternSet(IDS_PATTERNS))
    for ts, frame in _ids_frames(IDS_TRACE):
        pp = parse_packet(frame)
        ids.process_parsed(pp, ts, frame)
    return ids


def test_criterion_10_nf_oracles_and_variant_identity():
    from enclavetap.bench import make_backend
    from enclavetap.nf import _FM

    # flow meter: managed run vs offline single-pass oracle
    oracle_final, oracle_events = flowmeter_oracle(
        (parse_packet(f), ts) for ts, f in SyntheticSource(FM_TRACE)
    )
    env = _env(96, 1024)
    mgr = StateManager(16384, 512, expiration_s=1 << 30, env=env, seed=10)
    fm = _run_flowmeter(mgr)
    assert [(e.ts_us, e.fid, e.kind, e.detail) for e in fm.events] == oracle_events
    check = random.Random(4)
    sample = check.sample(sorted(oracle_final), 3000)
    for fid in sample:
        view, is_new, _ = mgr.track(fid, 1 << 40)
        assert not is_new
        assert _FM.unpack_from(view, 0) == oracle_final[fid]
    fm_events = oracle_events

    # flow meter: identical outputs across the other two variants
    for variant in ("native", "strawman"):
        backend = make_backend(variant, 512, 1 << 30, env=_env(32, 1024), seed=10)
        out = _run_flowmeter(backend)
        assert [(e.ts_us, e.fid, e.kind, e.detail) for e in out.events] == fm_events

    # IDS: managed run vs offline windowed oracle (windowing logic is
    # independent; the scanner itself is verified against brute force and a
    # reference automaton in the unit suite)
    scanner = PatternSet(IDS_PATTERNS).scan
    ids_expect = ids_oracle(
        ((parse_packet(f), ts, f) for ts, f in _ids_frames(IDS_TRACE)),
        IDS_PATTERNS,
        scanner=scanner,
    )
    ids_mgr = StateManager(8192, 5632, expiration_s=1 << 30, env=_env(96, 2048), seed=11)
    ids = _run_ids(ids_mgr)
    got = [(e.ts_us, e.fid, e.pattern_id, e.end_offset) for e in ids.events]
    assert got == ids_expect
    assert len(got) > 10_000

    for variant in ("native", "strawman"):
        backend = make_backend(variant, 5632, 1 << 30, env=_env(32, 2048), seed=11)
        out = _run_ids(backend)
        assert [(e.ts_us, e.fid, e.pattern_id, e.end_offset) for e in out.events] == ids_expect

    report(10, f"flow-meter counters/events and {len(got)} IDS match events equal their "
               f"offline oracles on 1M-packet traces; outputs identical across all variants")


# --------------------------------------------------------------------------
# 11. Batch sweep at 64 B: throughput at batch 10 beats batch 1 and 1000.
# --------------------------------------------------------------------------

def test_criterion_11_batch_sweep_unimodal():
    results = {}
    for batch in (1, 10, 1000):
        cfg = IoWorkloadConfig(
            pkt_size=64, count=180_000, flows=512, batch_size=batch, ring_size=1024,
            crossing_delay_us=2000, seed=2, timeout_s=300,
        )
        results[batch] = run_io_workload(cfg).throughput_mpps
    assert results[10] > results[1]
    assert results[10] > results[1000]
    report(11, "batch sweep at 64 B is unimodal: "
               + ", ".join(f"batch {b}: {v:.4f} Mpps" for b, v in sorted(results.items())))


# --------------------------------------------------------------------------
# 12. Ring sweep: 256 within 10% of 1024; 32 materially below.
# --------------------------------------------------------------------------

def test_criterion_12_ring_sweep_knee():
    results = {}
    for ring in (32, 256, 1024):
        cfg = IoWorkloadConfig(
            pkt_size=64, count=200_000, flows=512, batch_size=10, ring_size=ring,
            crossing_delay_us=0, seed=2, timeout_s=300,
        )
        results[ring] = run_io_workload(cfg).throughput_mpps
    assert results[256] >= 0.90 * results[1024]
    assert results[32] <= 0.80 * results[1024]  # "materially below"
    report(12, "ring sweep knee: "
               + ", ".join(f"ring {r}: {v:.4f} Mpps" for r, v in sorted(results.items()))
               + f" (256 at {results[256]/results[1024]*100:.0f}% of 1024, "
                 f"32 at {results[32]/results[1024]*100:.0f}%)")


# --------------------------------------------------------------------------
# 13. Variant comparison at 600k flows / 512 B states / 32k cache:
#     strawman latency >= 3x managed; managed - native < 2 us/pkt.
# --------------------------------------------------------------------------

def test_criterion_13_variant_comparison():
    w = VariantWorkload(
        nf="flowmeter", flows=600_000, count=2_000_000, pkt_size=96, zipf=1.4,
        seed=3, cache_entries=32768, state_size=512,
    )
    res = {v: run_variant(w, v) for v in ("native", "managed", "strawman")}
    assert len({r.events_digest for r in res.values()}) == 1
    managed = res["managed"].latency_mean_us
    native = res["native"].latency_mean_us
    strawman = res["strawman"].latency_mean_us
    ratio = strawman / managed
    overhead = managed - native
    assert ratio >= 3.0, f"strawman/managed ratio {ratio:.2f} < 3"
    assert overhead < 2.0, f"managed-native overhead {overhead:.2f} us"
    report(13, f"native {native:.2f} / managed {managed:.2f} / strawman {strawman:.2f} us per "
               f"packet; strawman {ratio:.1f}x managed, managed-native overhead {overhead:.2f} us "
               f"(miss rate {res['managed'].cache_miss_rate:.3f})")


# --------------------------------------------------------------------------
# 14. Miss-rate curve: monotone non-increasing; skewed trace < 20% at 16k.
# --------------------------------------------------------------------------

def test_criterion_14_miss_rate_curve():
    fids = trace_fids(
        SyntheticSource(SyntheticConfig(flows=600_000, count=2_500_000, seed=5, pkt_size=64, zipf=1.2))
    )
    sizes = [1024, 4096, 16384, 32768]
    rows = measure_miss_rate(fids, sizes)
    rates = {int(r.value): r.cache_miss_rate for r in rows}
    ordered = [rates[s] for s in sizes]
    assert all(a >= b for a, b in zip(ordered, ordered[1:])), ordered
    assert rates[16384] < 0.20
    report(14, "miss rate monotone non-increasing: "
               + ", ".join(f"{s}: {rates[s]*100:.1f}%" for s in sizes)
               + " (Zipf-skewed 600k-flow trace, < 20% at 16k entries)")


# --------------------------------------------------------------------------
# 15. Seal cost: 6 KB state seal within 5x of 2.6 us.
# --------------------------------------------------------------------------

def test_criterion_15_seal_cost():
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    rng = random.Random(15)
    aead = AESGCM(rng.randbytes(16))
    iv = rng.randbytes(4)
    fid = rng.randbytes(13)
    state = rng.randbytes(6 * 1024)
    for _ in range(200):
        seal_state(aead, iv, fid, 1, state)  # warm up
    samples = []
    for rep in range(5):
        t0 = time.perf_counter()
        for i in range(2000):
            seal_state(aead, iv, fid, i, state)
        samples.append((time.perf_counter() - t0) / 2000 * 1e6)
    cost = statistics.median(samples)
    assert cost <= 5 * 2.6, f"6 KB seal cost {cost:.2f} us"
    report(15, f"6 KB state seal costs {cost:.2f} us (reference 2.6 us, tolerance 5x)")
