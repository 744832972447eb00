import pytest

from enclavetap.bench import NativeState, StrawmanState
from enclavetap.boundary import BoundaryConfig, MemoryEnv
from enclavetap.channel import loopback_pair
from enclavetap.etap import EtapConfig, EtapDevice
from enclavetap.gateway import SyntheticConfig, SyntheticSource
from enclavetap.nf import (
    _FM,
    _IDS_HDR,
    IDS_BUF_CAP,
    IDS_STATE_SIZE,
    Echo,
    FlowMeter,
    BufferedIds,
    PatternSet,
    pcap_compat_loop,
    pcap_compat_next,
)
from enclavetap.packets import TCP_ACK, TCP_FIN, make_tcp_frame, make_udp_frame, parse_packet
from enclavetap.statemgmt import StateManager
from enclavetap.wire import PktInfo

from refmodels import AhoCorasick, brute_find_all, flowmeter_oracle, ids_oracle, ref_records

A = bytes([10, 0, 0, 1])
B = bytes([10, 0, 0, 2])


def mk_env():
    return MemoryEnv(BoundaryConfig(trusted_capacity_bytes=32 << 20, untrusted_capacity_bytes=128 << 20))


def mk_mgr(capacity=64, state_size=512, seed=5):
    return StateManager(capacity, state_size, expiration_s=1 << 30, env=mk_env(), seed=seed)


# ------------------------------------------------------------- pattern sets

def test_patternset_reports_all_overlapping_occurrences():
    ps = PatternSet([b"aa", b"aab"])
    assert ps.scan(b"aaab") == [(0, 2), (0, 3), (1, 4)]


def test_patternset_empty_rejected():
    with pytest.raises(ValueError):
        PatternSet([])
    with pytest.raises(ValueError):
        PatternSet([b""])


def test_patternset_matches_brute_force_and_automaton(rng):
    for _ in range(50):
        npat = rng.randint(1, 6)
        patterns = [bytes(rng.choice(b"ab") for _ in range(rng.randint(1, 4))) for _ in range(npat)]
        data = bytes(rng.choice(b"ab") for _ in range(rng.randint(0, 300)))
        ps = PatternSet(patterns)
        expect = brute_find_all(data, patterns)
        assert ps.scan(data) == expect
        assert AhoCorasick(patterns).scan(data) == expect


def test_patternset_from_file_with_hex_escapes(tmp_path):
    p = tmp_path / "patterns.txt"
    p.write_text("attack\n# comment line\n\\x00\\x01bin\n")
    ps = PatternSet.from_file(p)
    assert ps.patterns == [b"attack", b"\x00\x01bin"]


# --------------------------------------------------------------- flow meter

def unpack_fm(view) -> tuple:
    return _FM.unpack_from(view, 0)


def test_flowmeter_three_packet_flow():
    mgr = mk_mgr()
    fm = FlowMeter(mgr)
    frames = [
        make_tcp_frame(A, B, 1000, 80, b"aaaa", seq=0),
        make_tcp_frame(B, A, 80, 1000, b"bb", seq=0),
        make_tcp_frame(A, B, 1000, 80, b"c", seq=4),
    ]
    for i, f in enumerate(frames):
        fm.process(PktInfo(1_000_000 + i, f))
    pp = parse_packet(frames[0])
    view, is_new, _ = mgr.track(pp.fid, 2)
    assert not is_new
    pkts, nbytes, first, last, proto, flags = unpack_fm(view)
    assert pkts == 3
    assert nbytes == sum(parse_packet(f).total_len for f in frames)
    assert first == 1_000_000 and last == 1_000_002
    assert proto == 6


def test_flowmeter_fin_terminates_and_next_is_new():
    mgr = mk_mgr()
    fm = FlowMeter(mgr)
    fm.process(PktInfo(0, make_tcp_frame(A, B, 1000, 80, b"x", seq=0)))
    fm.process(PktInfo(1, make_tcp_frame(A, B, 1000, 80, b"", seq=1, flags=TCP_FIN | TCP_ACK)))
    kinds = [e.kind for e in fm.events]
    assert kinds == ["new", "fin"]
    fm.process(PktInfo(2, make_tcp_frame(A, B, 1000, 80, b"y", seq=0)))
    assert [e.kind for e in fm.events] == ["new", "fin", "new"]


def test_flowmeter_parse_failure_counted_and_forwarded():
    fm = FlowMeter(mk_mgr())
    junk = PktInfo(0, b"\x00" * 40)
    out = fm.process(junk)
    assert out is junk
    assert fm.parse_failures == 1


def test_flowmeter_matches_offline_oracle_synthetic():
    src = SyntheticSource(
        SyntheticConfig(flows=300, count=20_000, seed=11, pkt_size=(60, 200), zipf=0.9, udp_fraction=0.3)
    )
    packets = [(parse_packet(f), ts) for ts, f in src]
    oracle_final, oracle_events = flowmeter_oracle(packets)
    mgr = mk_mgr(capacity=32)
    fm = FlowMeter(mgr)
    for pp, ts in packets:
        fm.process_parsed(pp, ts)
    got_events = [(e.ts_us, e.fid, e.kind, e.detail) for e in fm.events]
    assert got_events == oracle_events
    for fid, expect in oracle_final.items():
        view, is_new, _ = mgr.track(fid, 10**9)
        assert not is_new
        assert unpack_fm(view) == expect


def test_flowmeter_oblivious_to_cache_size():
    src = list(
        SyntheticSource(SyntheticConfig(flows=100, count=5_000, seed=13, pkt_size=96, zipf=1.0))
    )
    packets = [(parse_packet(f), ts) for ts, f in src]

    def run(backend):
        fm = FlowMeter(backend)
        for pp, ts in packets:
            fm.process_parsed(pp, ts)
        return [(e.ts_us, e.fid, e.kind, e.detail) for e in fm.events]

    big = run(mk_mgr(capacity=512, seed=1))  # cache exceeds flow count
    small = run(mk_mgr(capacity=2, seed=2))
    native = run(NativeState(512, 1 << 30))
    strawman = run(StrawmanState(512, 1 << 30, env=mk_env(), seed=3))
    assert big == small == native == strawman


@pytest.mark.parametrize("kind", ["flowmeter", "ids"])
def test_nf_drops_flow_whose_state_fails_authentication(kind):
    env = mk_env()
    mgr = StateManager(2, IDS_STATE_SIZE, expiration_s=1 << 30, env=env, seed=9)
    nf = FlowMeter(mgr) if kind == "flowmeter" else BufferedIds(mgr, PatternSet([b"evil"]))
    for sport in (1000, 1001, 1002):  # a cache of two seals flow 1000 out
        nf.process(PktInfo(sport, make_tcp_frame(A, B, sport, 80, b"ab", seq=0)))
    fid = parse_packet(make_tcp_frame(A, B, 1000, 80, b"")).fid
    env.view(mgr.store_region_of(fid))[5] ^= 1
    new_flows = mgr.stats.new_flows

    pkt = PktInfo(10, make_tcp_frame(A, B, 1000, 80, b"cd", seq=2))
    assert nf.process(pkt) is pkt
    assert nf.auth_failures == 1 and mgr.stats.auth_failures == 1
    assert mgr.tracked_flows == 2 and mgr.store_region_of(fid) is None

    nf.process(PktInfo(11, make_tcp_frame(A, B, 1000, 80, b"ef", seq=4)))
    assert mgr.stats.new_flows == new_flows + 1
    assert nf.auth_failures == 1
    view, is_new, _ = mgr.track(fid, 12)
    assert not is_new
    if kind == "flowmeter":
        assert [e.fid for e in nf.events if e.kind == "new"].count(fid) == 2
        assert unpack_fm(view)[0] == 1  # counting restarted with the flow
    else:
        assert _IDS_HDR.unpack_from(view, 0)[0] == 6  # next in-order seq after b"ef"


# ----------------------------------------------------------------------- ids

def seg(payload, seq, flags=TCP_ACK, sport=2000):
    return make_tcp_frame(A, B, sport, 80, payload, seq=seq, flags=flags)


def run_ids(frames, patterns, capacity=64, ts0=0):
    mgr = StateManager(capacity, IDS_STATE_SIZE, expiration_s=1 << 30, env=mk_env(), seed=21)
    ids = BufferedIds(mgr, PatternSet(patterns))
    for i, f in enumerate(frames):
        ids.process(PktInfo(ts0 + i, f))
    return ids


def test_ids_pattern_split_across_packets_one_match():
    ids = run_ids([seg(b"xxatt", 0), seg(b"ackyy", 5), seg(b"", 10, TCP_FIN)], [b"attack"])
    assert [(e.pattern_id, e.end_offset) for e in ids.events] == [(0, 8)]


def test_ids_pattern_split_across_flush_boundary_blind():
    # first segment fills the buffer exactly; pattern straddles the flush
    first = b"z" * (IDS_BUF_CAP - 3) + b"att"
    ids = run_ids([seg(first, 0), seg(b"ack", len(first)), seg(b"", len(first) + 3, TCP_FIN)], [b"attack"])
    assert ids.events == []  # documented flush-boundary blindness


def test_ids_buffer_full_flush_emits_offsets_across_windows():
    payload = (b"A" * 1000 + b"evil") * 8  # crosses the 4096 window once
    ids = run_ids([seg(payload, 0), seg(b"", len(payload), TCP_FIN)], [b"evil"])
    expect = [(0, i + 4) for i in range(len(payload)) if payload[i : i + 4] == b"evil"]
    got = sorted((e.pattern_id and 0, e.end_offset) for e in ids.events)
    # matches that straddle the 4096 boundary are not seen
    windows = [(k * IDS_BUF_CAP, (k + 1) * IDS_BUF_CAP) for k in range(3)]
    expect_windowed = [
        (0, end)
        for (_pid, end) in expect
        if any(lo + 4 <= end <= hi for lo, hi in windows)
    ]
    assert got == sorted(expect_windowed)


def test_ids_out_of_order_dropped_and_counted():
    ids = run_ids([seg(b"abcd", 0), seg(b"WRONG", 999), seg(b"evil", 4), seg(b"", 8, TCP_FIN)], [b"evil"])
    assert ids.ooo_dropped == 1
    assert [(e.pattern_id, e.end_offset) for e in ids.events] == [(0, 8)]


def test_ids_non_tcp_bypassed():
    ids = BufferedIds(mk_mgr(state_size=IDS_STATE_SIZE), PatternSet([b"x"]))
    ids.process(PktInfo(0, make_udp_frame(A, B, 53, 53, b"xxxx")))
    assert ids.bypassed == 1
    assert ids.events == []


def test_ids_matches_offline_oracle_random_planted(rng):
    patterns = [b"attack", b"\x00EVIL\x00", b"zz9"]
    src = SyntheticSource(SyntheticConfig(flows=40, count=4_000, seed=17, pkt_size=(70, 300)))
    frames = []
    for ts, frame in src:
        pp = parse_packet(frame)
        buf = bytearray(frame)
        if pp.payload_len > 12 and rng.random() < 0.3:
            pat = rng.choice(patterns)
            off = pp.payload_off + rng.randrange(pp.payload_len - len(pat))
            buf[off : off + len(pat)] = pat
        frames.append((ts, bytes(buf)))
    parsed = [(parse_packet(f), ts, f) for ts, f in frames]
    expect = ids_oracle(parsed, patterns)
    mgr = StateManager(16, IDS_STATE_SIZE, expiration_s=1 << 30, env=mk_env(), seed=23)
    ids = BufferedIds(mgr, PatternSet(patterns))
    for pp, ts, raw in parsed:
        ids.process_parsed(pp, ts, raw)
    got = [(e.ts_us, e.fid, e.pattern_id, e.end_offset) for e in ids.events]
    assert got == expect
    assert len(got) > 50  # the planting actually produced matches


def test_ids_oblivious_to_cache_size(rng):
    patterns = [b"needle"]
    src = SyntheticSource(SyntheticConfig(flows=30, count=3_000, seed=19, pkt_size=(80, 200)))
    frames = []
    for ts, frame in src:
        buf = bytearray(frame)
        pp = parse_packet(frame)
        if pp.payload_len > 10 and rng.random() < 0.2:
            buf[pp.payload_off : pp.payload_off + 6] = b"needle"
        frames.append((ts, bytes(buf)))
    parsed = [(parse_packet(f), ts, f) for ts, f in frames]

    def run(backend):
        ids = BufferedIds(backend, PatternSet(patterns))
        for pp, ts, raw in parsed:
            ids.process_parsed(pp, ts, raw)
        return [(e.ts_us, e.fid, e.pattern_id, e.end_offset) for e in ids.events]

    a = run(StateManager(128, IDS_STATE_SIZE, expiration_s=1 << 30, env=mk_env(), seed=1))
    b = run(StateManager(2, IDS_STATE_SIZE, expiration_s=1 << 30, env=mk_env(), seed=2))
    c = run(NativeState(IDS_STATE_SIZE, 1 << 30))
    d = run(StrawmanState(IDS_STATE_SIZE, 1 << 30, env=mk_env(), seed=3))
    assert a == b == c == d


# ---------------------------------------------------------------------- echo

def test_echo_identity():
    e = Echo()
    pkt = PktInfo(5, b"payload")
    assert e.process(pkt) is pkt
    assert e.processed == 1


def test_echo_busywork_increases_time():
    import time

    pkt = PktInfo(0, bytes(64))
    reps = 300

    def measure(k):
        e = Echo(busy_work=k)
        t0 = time.perf_counter()
        for _ in range(reps):
            e.process(pkt)
        return time.perf_counter() - t0

    assert measure(2000) > measure(0)


# --------------------------------------------------------------- pcap compat

def mk_loaded_device(keys, frames):
    ch_gw, ch_dev = loopback_pair()
    dev = EtapDevice(
        ch_dev,
        keys,
        MemoryEnv(BoundaryConfig(trusted_capacity_bytes=4 << 20, untrusted_capacity_bytes=64 << 20)),
        EtapConfig(batch_size=1, heartbeat_period_ms=0, ring_size=1024),
    )
    sealer = keys.gateway_sealer()
    records = ref_records(frames)
    ch_gw.send(b"".join(sealer.seal(r) for r in records))
    for _ in range(len(records)):
        dev.rx_loop_iteration()
    return dev


def test_pcap_compat_next_matches_read_pkt(keys):
    frames = [PktInfo(3_000_123, b"hello")]
    dev = mk_loaded_device(keys, frames)
    hdr, data = pcap_compat_next(dev)
    assert data == b"hello"
    assert hdr.ts_sec == 3 and hdr.ts_usec == 123
    assert hdr.caplen == hdr.len == 5


def test_pcap_compat_loop_exact_count(keys):
    frames = [PktInfo(i, bytes([i])) for i in range(20)]
    dev = mk_loaded_device(keys, frames)
    seen = []
    n = pcap_compat_loop(dev, lambda hdr, data: seen.append(data), 10)
    assert n == 10
    assert seen == [bytes([i]) for i in range(10)]


def test_pcap_compat_loop_fifo_order_sequence_stamped(keys):
    frames = [PktInfo(i, i.to_bytes(4, "big")) for i in range(50)]
    dev = mk_loaded_device(keys, frames)
    seen = []
    pcap_compat_loop(dev, lambda hdr, data: seen.append(int.from_bytes(data, "big")), 50)
    assert seen == list(range(50))


def test_pcap_compat_loop_stops_on_shutdown(keys):
    frames = [PktInfo(i, b"x") for i in range(5)]
    dev = mk_loaded_device(keys, frames)
    dev.shutdown("test")
    # ring still drains, then the loop stops early
    n = pcap_compat_loop(dev, lambda hdr, data: None, 100)
    assert n == 5
