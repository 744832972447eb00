import random
import threading
import time
from collections import deque

import pytest

from enclavetap.boundary import BoundaryConfig, MemoryEnv
from enclavetap.channel import loopback_pair
from enclavetap.errors import AuthFailure, DeviceShutdown, MemoryViolation, OversizePacket
from enclavetap.etap import EtapConfig, EtapDevice, TrustedClock, mono_us, rss_select
from enclavetap.gateway import fragment
from enclavetap.packets import FlowId, make_tcp_frame, make_udp_frame, parse_packet
from enclavetap.wire import (
    FRAME_HB_REQ,
    FRAME_HB_RESP,
    PAD_RECORD,
    Frame,
    PktInfo,
    RecordPacker,
    RecordParser,
    encode_pkt,
)

from refmodels import ref_encode, ref_records


def small_env():
    return MemoryEnv(BoundaryConfig(trusted_capacity_bytes=4 << 20, untrusted_capacity_bytes=64 << 20))


def make_device(keys, **cfg_kwargs):
    ch_gw, ch_dev = loopback_pair()
    config = EtapConfig(heartbeat_period_ms=0, idle_flush_ms=0, **cfg_kwargs)
    dev = EtapDevice(ch_dev, keys, small_env(), config)
    return ch_gw, dev


def send_batch(ch_gw, sealer, frames, batch_size):
    """Seal packets and control frames into records and pad the stream to
    the batch boundary."""
    records = ref_records(frames)
    while len(records) % batch_size:
        records.append(PAD_RECORD)
    ch_gw.send(b"".join(sealer.seal(r) for r in records))
    return len(records)


# -------------------------------------------------------------------- clock

def test_clock_update_formula():
    clock = TrustedClock(t_off_us=0, t_rtd_us=2000)
    clock.update_from_packet(1_000_000)
    assert clock.now() == 1_001_000


def test_clock_offset_applied():
    clock = TrustedClock(t_off_us=-500, t_rtd_us=0)
    clock.update_from_packet(1_000_000)
    assert clock.now() == 999_500


def test_clock_monotonic_clamp():
    clock = TrustedClock(t_off_us=0, t_rtd_us=2000)
    clock.update_from_packet(1_000_000)
    clock.update_from_packet(900_000)  # older timestamp arrives late
    assert clock.now() == 1_001_000


def test_clock_monotonic_over_adversarial_sequence(rng):
    clock = TrustedClock(t_off_us=17, t_rtd_us=400)
    last = 0
    for _ in range(10_000):
        clock.update_from_packet(rng.randrange(0, 1 << 40))
        assert clock.now() >= last
        last = clock.now()


# ---------------------------------------------------------------------- rss

def flow_frame(fid: FlowId) -> bytes:
    return make_tcp_frame(fid.src_ip, fid.dst_ip, fid.src_port, fid.dst_port)


def rand_flow(rng) -> FlowId:
    return FlowId(rng.randbytes(4), rng.randbytes(4), rng.randrange(65536), rng.randrange(65536), 6)


def test_rss_single_ring_always_zero(rng):
    for _ in range(100):
        assert rss_select(flow_frame(rand_flow(rng)), 1) == 0


def test_rss_symmetric_under_direction_swap(rng):
    for _ in range(500):
        fid = rand_flow(rng)
        assert rss_select(flow_frame(fid), 4) == rss_select(flow_frame(fid.reversed()), 4)


def test_rss_balance(rng):
    counts = [0, 0, 0, 0]
    flows = 20_000
    for _ in range(flows):
        counts[rss_select(flow_frame(rand_flow(rng)), 4)] += 1
    for c in counts:
        assert abs(c / flows - 0.25) < 0.03


def test_rss_ignores_ports_and_non_ipv4(rng):
    a, b = bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2])
    rings = {rss_select(make_tcp_frame(a, b, rng.randrange(65536), 80), 8) for _ in range(50)}
    assert len(rings) == 1  # ports do not move a frame to another ring
    assert rss_select(b"\x00" * 60, 4) == 0  # not IPv4
    assert rss_select(make_udp_frame(a, b, 1, 2)[:30], 4) == 0  # truncated IPv4 header


# ------------------------------------------------------------------ RX loop

def test_rx_delivers_batch_and_advances_clock(keys):
    ch_gw, dev = make_device(keys, batch_size=4, ring_size=256)
    dev.clock.t_rtd_us = 2000
    sealer = keys.gateway_sealer()
    frames = [PktInfo(1_000_000 + i, bytes([i]) * 60) for i in range(100)]
    nrec = send_batch(ch_gw, sealer, frames, 4)
    delivered = dev.rx_loop_iteration()
    assert delivered == 100
    assert dev.stats.records_rx == nrec
    # clock is at the last packet's time + rtd/2
    assert dev.clock_now() == 1_000_099 + 1000
    got = [dev.read_pkt(blocking=False) for _ in range(100)]
    assert [p.data for p in got] == [f.data for f in frames]
    assert [p.ts_us for p in got] == [f.ts_us for f in frames]


def test_rx_padding_only_batch(keys):
    ch_gw, dev = make_device(keys, batch_size=3)
    sealer = keys.gateway_sealer()
    ch_gw.send(b"".join(sealer.seal(PAD_RECORD) for _ in range(3)))
    assert dev.rx_loop_iteration() == 0
    assert dev.clock_now() == 0
    assert dev.read_pkt(blocking=False) is None


def test_rx_tampered_record_shuts_down(keys):
    ch_gw, dev = make_device(keys, batch_size=2)
    sealer = keys.gateway_sealer()
    records = ref_records([PktInfo(i, bytes(64)) for i in range(30)])
    while len(records) % 2:
        records.append(PAD_RECORD)
    sealed = [bytearray(sealer.seal(r)) for r in records]
    sealed[0][100] ^= 0x40  # tamper the first record
    ch_gw.send(b"".join(bytes(s) for s in sealed))
    with pytest.raises(AuthFailure):
        dev.rx_loop_iteration()
    assert dev.is_shutdown
    assert "integrity" in dev.shutdown_reason or "record" in dev.shutdown_reason
    # zero packets delivered past the failure
    with pytest.raises(DeviceShutdown):
        dev.read_pkt(blocking=False)


def test_rx_memory_violation_shuts_down(keys, monkeypatch):
    ch_gw, dev = make_device(keys, batch_size=1)
    sealer = keys.gateway_sealer()
    send_batch(ch_gw, sealer, [PktInfo(0, bytes(10))], 1)

    def bad_check(region):
        raise MemoryViolation("crafted buffer")

    monkeypatch.setattr(dev.env, "check_memory", bad_check)
    with pytest.raises(MemoryViolation):
        dev.rx_loop_iteration()
    assert dev.is_shutdown


def test_rx_heartbeat_req_queued_for_response(keys):
    ch_gw, dev = make_device(keys, batch_size=1)
    sealer = keys.gateway_sealer()
    send_batch(ch_gw, sealer, [Frame(FRAME_HB_REQ, 777)], 1)
    dev.rx_loop_iteration()
    assert dev.stats.heartbeats_answered == 1
    # the response is flushed by the next TX pass and echoes the timestamp
    dev.tx_loop_iteration()
    opener = keys.gateway_opener()
    rec = opener.open(ch_gw.recv_exact(16400))
    frames = RecordParser().feed(rec)
    assert frames == [Frame(FRAME_HB_RESP, 777)]


def test_rx_heartbeat_resp_updates_rtd(keys):
    ch_gw, dev = make_device(keys, batch_size=1)
    sealer = keys.gateway_sealer()
    send_batch(ch_gw, sealer, [Frame(FRAME_HB_RESP, mono_us() - 50_000)], 1)
    dev.rx_loop_iteration()
    assert 50_000 <= dev.clock.t_rtd_us < 300_000


def test_rx_rss_partition_and_per_flow_order(keys):
    ch_gw, dev = make_device(keys, batch_size=2, num_rx_rings=2, ring_size=1024)
    sealer = keys.gateway_sealer()
    frames = []
    flows = []
    for i in range(40):
        src = bytes([10, 0, 0, i + 1])
        dst = bytes([10, 9, 9, 9])
        fid = FlowId(src, dst, 1000 + i, 80, 6)
        flows.append(fid)
        for k in range(5):
            frames.append(PktInfo(i, make_tcp_frame(src, dst, 1000 + i, 80, bytes([k]))))
    send_batch(ch_gw, sealer, frames, 2)
    dev.rx_loop_iteration()
    per_ring: dict[int, list[bytes]] = {0: [], 1: []}
    for idx in (0, 1):
        while True:
            pkt = dev.read_pkt(idx, blocking=False)
            if pkt is None:
                break
            per_ring[idx].append(pkt.data)
    for idx, pkts in per_ring.items():
        for data in pkts:
            assert rss_select(data, 2) == idx
    # per-flow order preserved
    for fid in flows:
        ring_idx = rss_select(flow_frame(fid), 2)
        seq = [d[-1] for d in per_ring[ring_idx] if parse_packet(d).fid == fid.pack()]
        assert seq == [0, 1, 2, 3, 4]
    assert sum(len(v) for v in per_ring.values()) == 200


@pytest.mark.parametrize("num_rings", [2, 4])
def test_rx_rss_fragments_share_their_flows_ring(keys, num_rings):
    """A packet's fragments and its flow's next packet come off one ring, in order."""
    ch_gw, dev = make_device(keys, batch_size=1, num_rx_rings=num_rings, ring_size=64)
    sealer = keys.gateway_sealer()
    a, b = bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2])
    frags = fragment(make_tcp_frame(a, b, 1234, 80, bytes(range(256)) * 12), 1500)
    assert len(frags) == 3
    sent = frags + [make_tcp_frame(a, b, 1234, 80, b"later")]
    records = send_batch(ch_gw, sealer, [PktInfo(k, d) for k, d in enumerate(sent)], 1)
    for _ in range(records):
        dev.rx_loop_iteration()
    per_ring = []
    for idx in range(num_rings):
        got = []
        while (pkt := dev.read_pkt(idx, blocking=False)) is not None:
            got.append(pkt.data)
        per_ring.append(got)
    assert [got for got in per_ring if got] == [sent]


def test_rx_heartbeats_mid_record_clock_matches_per_packet(keys):
    """A heartbeat response inside a record applies its round-trip estimate
    from the next packet on, exactly as per-packet clock updates do."""
    ch_gw, dev = make_device(keys, batch_size=1)
    sealer = keys.gateway_sealer()
    a, b0, b = 1_000_000, 960_000, 990_000
    frames = [
        PktInfo(a, b"a"),
        Frame(FRAME_HB_REQ, 7),
        PktInfo(b0, b"b0"),
        Frame(FRAME_HB_RESP, mono_us() - 100_000),
        PktInfo(b, b"b"),
    ]
    send_batch(ch_gw, sealer, frames, 1)
    assert dev.rx_loop_iteration() == 3
    rtd = dev.clock.t_rtd_us
    assert rtd >= 100_000
    ref = TrustedClock()
    ref.update_from_packet(a)
    ref.update_from_packet(b0)
    ref.observe_rtt(rtd)
    ref.update_from_packet(b)
    assert dev.clock_now() == ref.now() == b + rtd // 2
    # neither one update at the old estimate nor one at the new would do
    assert ref.now() not in (a, a + rtd // 2)
    assert dev.stats.heartbeats_answered == 1
    got = [dev.read_pkt(blocking=False) for _ in range(3)]
    assert got == [PktInfo(a, b"a"), PktInfo(b0, b"b0"), PktInfo(b, b"b")]
    assert dev.read_pkt(blocking=False) is None


def test_rx_batch_larger_than_ring_drained_by_reader(keys):
    ch_gw, dev = make_device(keys, batch_size=4, ring_size=64)
    sealer = keys.gateway_sealer()
    frames = [PktInfo(5000 + i, i.to_bytes(2, "big") * 50) for i in range(500)]
    send_batch(ch_gw, sealer, frames, 4)
    got = []

    def reader():
        for _ in range(len(frames)):
            got.append(dev.read_pkt(blocking=True))

    t = threading.Thread(target=reader)
    t.start()
    assert dev.rx_loop_iteration() == 500
    t.join(30)
    assert not t.is_alive()
    assert got == frames
    assert dev.read_pkt(blocking=False) is None


@pytest.mark.parametrize("num_rings", [1, 2])
def test_rx_blocked_on_full_ring_raises_on_shutdown(keys, num_rings):
    ch_gw, dev = make_device(keys, batch_size=1, ring_size=8, num_rx_rings=num_rings)
    sealer = keys.gateway_sealer()
    send_batch(ch_gw, sealer, [PktInfo(i, bytes(64)) for i in range(50)], 1)
    errs = []

    def rx():
        try:
            dev.rx_loop_iteration()
        except DeviceShutdown:
            errs.append("shutdown")

    t = threading.Thread(target=rx)
    t.start()
    deadline = time.monotonic() + 10
    while sum(r.occupancy() for r in dev.rx_rings) < 7 and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.02)
    assert t.is_alive()  # blocked on the full ring, nothing dropped
    dev.shutdown("test stop")
    t.join(5)
    assert not t.is_alive()
    assert errs == ["shutdown"]
    assert sum(r.occupancy() for r in dev.rx_rings) == 7


# ------------------------------------------------------------------ TX loop

def test_tx_100_full_packets_ten_records(keys):
    ch_gw, dev = make_device(keys, batch_size=10, ring_size=256)
    for i in range(100):
        dev.write_pkt(PktInfo(i, bytes(1500)))
    crossings_before = dev.env.stats.ocall_count
    sent = dev.tx_loop_iteration()
    assert sent == 10  # ceil(100 * 1511 / 16384), flush pads the last
    assert dev.env.stats.ocall_count == crossings_before + 1  # one crossing, <= batch
    opener = keys.gateway_opener()
    parser = RecordParser()
    frames = []
    for _ in range(10):
        frames.extend(parser.feed(opener.open(ch_gw.recv_exact(16400))))
    assert len(frames) == 100
    assert all(len(f.data) == 1500 for f in frames)


def test_tx_idle_no_flush_before_timer(keys):
    ch_gw, dev = make_device(keys, batch_size=4)
    dev.config.idle_flush_ms = 10_000
    dev.write_pkt(PktInfo(0, bytes(100)))
    dev._last_tx_add_us = mono_us()
    assert dev.tx_loop_iteration() == 0  # partial record held, timer not expired


def test_tx_empty_ring_nothing_sent(keys):
    ch_gw, dev = make_device(keys, batch_size=4)
    assert dev.tx_loop_iteration() == 0


def test_tx_idle_flush_after_timer(keys):
    ch_gw, dev = make_device(keys, batch_size=4)
    dev.config.idle_flush_ms = 1
    dev.write_pkt(PktInfo(0, b"x" * 10))
    assert dev.tx_loop_iteration() == 0  # packed, idle timer starts
    time.sleep(0.005)
    assert dev.tx_loop_iteration() == 1  # timer expired: padded record flushed


def _per_packet_tx_pass(queue, packer, ctrl, batch_size, flush):
    """Reference TX pass: each packet encoded and packed on its own."""
    records = []
    for f in ctrl:
        records += packer.add(ref_encode(f))
    while len(records) < batch_size and queue:
        records += packer.add(encode_pkt(queue.popleft()))
    if packer.pending_bytes and (flush or ctrl):
        records.append(packer.flush())
    return records


@pytest.mark.parametrize("idle_flush_ms", [0, 10**9])
def test_tx_one_pass_matches_per_packet_reference(keys, idle_flush_ms):
    """Sealed records sent and packets left on the ring equal a per-packet
    encode_pkt + RecordPacker.add reference after every pass."""
    ch_gw, dev = make_device(keys, batch_size=3, ring_size=256)
    dev.config.idle_flush_ms = idle_flush_ms
    rng = random.Random(41)
    pkts = [PktInfo(rng.getrandbits(40), rng.randbytes(rng.randrange(64, 1501))) for _ in range(200)]
    for p in pkts:
        assert dev.write_pkt(p, blocking=False)
    queue = deque(pkts)
    packer = RecordPacker()
    sealer = keys.device_sealer()
    passes = 0
    while queue:
        ctrl = [Frame(FRAME_HB_RESP, 42)] if passes == 1 else []
        dev._ctrl.extend(ctrl)
        want = _per_packet_tx_pass(queue, packer, ctrl, 3, idle_flush_ms == 0)
        sent = dev.tx_loop_iteration()
        assert sent == len(want)
        if sent:
            assert ch_gw.recv_exact(sent * 16400) == b"".join(sealer.seal(r) for r in want)
        assert dev.tx_ring.occupancy() == len(queue)
        assert dev.stats.pkts_tx == len(pkts) - len(queue)
        passes += 1
    assert passes > 3  # more than batch_size records' worth, over several passes
    assert dev._packer.pending_bytes == packer.pending_bytes


def test_tx_stops_at_packet_completing_last_record(keys):
    """Bytes held over from the last pass count toward the batch, and the
    packet that completes the batch's last record exactly ends the pass."""
    ch_gw, dev = make_device(keys, batch_size=3, ring_size=256)
    dev.config.idle_flush_ms = 10**9
    pkt = PktInfo(9, bytes(1013))  # 1024 bytes encoded: 16 to a record
    dev.write_pkt(pkt)
    assert dev.tx_loop_iteration() == 0
    assert dev._packer.pending_bytes == 1024
    for _ in range(48):
        dev.write_pkt(pkt)
    assert dev.tx_loop_iteration() == 3  # 1 + 47 packets fill three records
    assert dev._packer.pending_bytes == 0
    assert dev.tx_ring.occupancy() == 1
    packer = RecordPacker()
    want = packer.add(encode_pkt(pkt) * 48)
    sealer = keys.device_sealer()
    assert ch_gw.recv_exact(3 * 16400) == b"".join(sealer.seal(r) for r in want)


def test_write_pkt_oversize_rejected_device_keeps_sending(keys):
    ch_gw, dev = make_device(keys, batch_size=1, max_pkt=1500)
    dev.start()
    try:
        with pytest.raises(OversizePacket):
            dev.write_pkt(PktInfo(1, bytes(2000)))
        assert dev.tx_ring.occupancy() == 0
        dev.write_pkt(PktInfo(2, bytes(100)))
        deadline = time.monotonic() + 10
        while dev.stats.records_tx == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert dev.stats.records_tx == 1
        assert not dev.is_shutdown
        rec = keys.gateway_opener().open(ch_gw.recv_exact(16400))
        assert RecordParser().feed(rec) == [PktInfo(2, bytes(100))]
    finally:
        dev.stop()


def test_write_pkt_after_shutdown_raises(keys):
    _, dev = make_device(keys)
    dev.shutdown("test stop")
    for blocking in (True, False):
        with pytest.raises(DeviceShutdown):
            dev.write_pkt(PktInfo(1, b"x" * 100), blocking=blocking)
    assert dev.tx_ring.occupancy() == 0


def test_tx_check_failure_shuts_device_down(keys):
    """An oversize packet that reaches the TX thread stops the device with a
    reason instead of killing the thread silently."""
    _, dev = make_device(keys, batch_size=1, max_pkt=1500)
    assert dev.tx_ring.push(PktInfo(1, bytes(2000)))  # bypasses write_pkt's check
    dev.start()
    try:
        deadline = time.monotonic() + 10
        while not dev.is_shutdown and time.monotonic() < deadline:
            time.sleep(0.001)
        assert dev.is_shutdown
        assert "transmit" in dev.shutdown_reason and "2000 > 1500" in dev.shutdown_reason
        with pytest.raises(DeviceShutdown):
            dev.read_pkt(blocking=False)
    finally:
        dev.stop()


# -------------------------------------------------------------- poll driver

def test_read_pkt_nonblocking_empty(keys):
    _, dev = make_device(keys)
    assert dev.read_pkt(blocking=False) is None


def test_read_pkt_blocking_fifo(keys):
    ch_gw, dev = make_device(keys, batch_size=1)
    sealer = keys.gateway_sealer()
    send_batch(ch_gw, sealer, [PktInfo(1, b"a"), PktInfo(2, b"b")], 1)
    dev.rx_loop_iteration()
    assert dev.read_pkt(blocking=True).data == b"a"
    assert dev.read_pkt(blocking=True).data == b"b"


def test_write_pkt_nonblocking_full(keys):
    _, dev = make_device(keys, ring_size=4)
    for i in range(3):
        assert dev.write_pkt(PktInfo(i, b"x"), blocking=False)
    assert not dev.write_pkt(PktInfo(9, b"x"), blocking=False)


def test_read_pkt_returns_stable_copies(keys):
    ch_gw, dev = make_device(keys, batch_size=1)
    sealer = keys.gateway_sealer()
    send_batch(ch_gw, sealer, [PktInfo(1, b"first"), PktInfo(2, b"second")], 1)
    dev.rx_loop_iteration()
    a = dev.read_pkt()
    b = dev.read_pkt()
    assert a.data == b"first" and b.data == b"second"


def test_shutdown_wakes_blocking_reader(keys):
    import threading

    _, dev = make_device(keys)
    errs = []

    def reader():
        try:
            dev.read_pkt(blocking=True)
        except DeviceShutdown:
            errs.append("shutdown")

    t = threading.Thread(target=reader)
    t.start()
    time.sleep(0.05)
    dev.shutdown("test stop")
    t.join(5)
    assert errs == ["shutdown"]
