import hashlib
import random
import sys
import threading
import time
from collections import Counter

import pytest

from enclavetap.boundary import BoundaryConfig, MemoryEnv
from enclavetap.channel import SocketChannel, loopback_pair
from enclavetap.errors import ChannelClosed
from enclavetap.etap import EtapConfig, EtapDevice
from enclavetap.gateway import Gateway, GatewayConfig, SyntheticConfig, SyntheticSource, fragment
from enclavetap.nf import Echo, NfRunner
from enclavetap.wire import (
    FRAME_HB_RESP,
    RECORD_LEN,
    SEALED_RECORD_LEN,
    Frame,
    PktInfo,
    RecordParser,
)


def small_env():
    return MemoryEnv(BoundaryConfig(trusted_capacity_bytes=8 << 20, untrusted_capacity_bytes=128 << 20))


def run_echo_pipeline(keys, source_cfg: SyntheticConfig, mtu=1500, batch_size=4, delay_s=0.0,
                      heartbeat_ms=1000, timeout=60.0):
    """Gateway -> device -> echo NF -> gateway; returns (sent, received, gw, dev)."""
    ch_gw, ch_dev = loopback_pair(delay_s)
    dev = EtapDevice(
        ch_dev,
        keys,
        small_env(),
        EtapConfig(batch_size=batch_size, heartbeat_period_ms=heartbeat_ms, idle_flush_ms=2),
    )
    runner = NfRunner(dev, lambda i: Echo(), bounce=True)
    received = []
    gw = Gateway(
        ch_gw,
        keys,
        GatewayConfig(mtu=mtu, peer_batch_size=batch_size),
        sink=lambda pkt: received.append(pkt),
    )
    expected = []
    for ts, frame in SyntheticSource(source_cfg):
        expected.extend(fragment(frame, mtu))
    dev.start()
    runner.start()
    gw.start(SyntheticSource(source_cfg))
    ok = gw.wait_received(len(expected), timeout=timeout)
    gw.stop()
    dev.stop()
    runner.join()
    assert ok, f"received {len(received)}/{len(expected)} (device: {dev.shutdown_reason})"
    return expected, received, gw, dev


def test_echo_round_trip_multiset(keys):
    cfg = SyntheticConfig(flows=20, count=400, seed=5, pkt_size=(80, 1400))
    expected, received, gw, dev = run_echo_pipeline(keys, cfg)
    assert Counter(p.data for p in received) == Counter(expected)
    assert gw.stats.pkts_sent == len(expected)
    # packing bound: records always carry at least their payload
    framed = sum(len(p) + 11 for p in expected)
    assert gw.stats.records_sent * 16384 >= framed


def test_echo_round_trip_with_fragmentation(keys):
    cfg = SyntheticConfig(flows=10, count=150, seed=6, pkt_size=(800, 2900))
    expected, received, gw, dev = run_echo_pipeline(keys, cfg)
    assert gw.stats.fragments_created > 0
    assert Counter(p.data for p in received) == Counter(expected)


def test_heartbeat_round_trip_recorded(keys):
    cfg = SyntheticConfig(flows=4, count=50, seed=7, pkt_size=128)
    _, _, gw, dev = run_echo_pipeline(keys, cfg, heartbeat_ms=50)
    assert dev.stats.heartbeats_sent >= 1
    assert gw.stats.heartbeats_answered >= 1
    assert dev.clock.t_rtd_us > 0


def test_heartbeat_rtt_tracks_injected_delay(keys):
    ch_gw, ch_dev = loopback_pair(delay_s=0.020)  # 20 ms per direction
    dev = EtapDevice(
        ch_dev,
        keys,
        small_env(),
        EtapConfig(batch_size=1, heartbeat_period_ms=100, idle_flush_ms=2),
    )
    gw = Gateway(ch_gw, keys, GatewayConfig(peer_batch_size=1))
    dev.start()
    gw.start(iter(()))  # no data traffic; heartbeats only
    deadline = time.monotonic() + 10
    while dev.clock.t_rtd_us == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    rtd = dev.clock.t_rtd_us
    gw.stop()
    dev.stop()
    assert rtd > 0
    assert abs(rtd - 40_000) <= 0.2 * 40_000 + 5_000


def test_gateway_auth_failure_on_garbage(keys):
    ch_gw, ch_dev = loopback_pair()
    gw = Gateway(ch_gw, keys, GatewayConfig())
    gw.start(iter(()))
    ch_dev.send(b"\x00" * SEALED_RECORD_LEN)
    time.sleep(0.2)
    stats = gw.stop()
    assert stats.auth_failures == 1


def test_gateway_malformed_frame_stops_receiver_and_wakes_waiters(keys):
    ch_gw, ch_dev = loopback_pair()
    gw = Gateway(ch_gw, keys, GatewayConfig())
    gw.start(iter(()))
    # authentic record whose first frame has an unknown type byte
    ch_dev.send(keys.device_sealer().seal(b"\x07" + bytes(RECORD_LEN - 1)))
    t0 = time.monotonic()
    assert gw.wait_received(1, timeout=30) is False
    assert time.monotonic() - t0 < 1.0
    assert gw.recv_stop_reason.startswith("receive check failed")
    with pytest.raises(ChannelClosed):
        ch_dev.recv_exact(1)
    gw.stop()
    assert gw.stats.records_received == 1 and gw.stats.pkts_received == 0


def test_gateway_heartbeat_answers_survive_concurrent_queueing(keys):
    """Answers queued by one thread while the sender drains them are each
    sent once, in order (the receiver's side of ``Gateway._ctrl``)."""
    n = 20_000
    opener = keys.device_opener()
    parser = RecordParser()
    got = []

    class OpeningChannel:
        def send(self, data):
            for i in range(0, len(data), SEALED_RECORD_LEN):
                got.extend(parser.feed(opener.open(data[i : i + SEALED_RECORD_LEN])))

    gw = Gateway(OpeningChannel(), keys, GatewayConfig(peer_batch_size=1))

    def queue_answers():
        for ts in range(n):
            gw._ctrl.append(Frame(FRAME_HB_RESP, ts))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        producer = threading.Thread(target=queue_answers)
        producer.start()
        deadline = time.monotonic() + 60
        while (producer.is_alive() or gw._ctrl) and time.monotonic() < deadline:
            gw._service_ctrl()
        producer.join(5)
    finally:
        sys.setswitchinterval(old)
    assert not producer.is_alive() and not gw._ctrl
    assert got == [Frame(FRAME_HB_RESP, ts) for ts in range(n)]


def test_tunneled_stream_bitwise_deterministic(keys):
    """Same source config and keys produce the identical ciphertext stream."""

    def capture() -> bytes:
        ch_gw, ch_dev = loopback_pair()
        gw = Gateway(ch_gw, keys, GatewayConfig(peer_batch_size=2))
        gw.start(SyntheticSource(SyntheticConfig(flows=8, count=200, seed=9, pkt_size=300)))
        gw.wait_source_done(30)
        n = gw.stats.records_sent * SEALED_RECORD_LEN
        data = ch_dev.recv_exact(n)
        gw.stop()
        return data

    assert capture() == capture()


def test_gateway_stream_bytes_pinned(keys):
    """The gateway-to-device ciphertext, fragments included, is the one
    recorded when the gateway had its own encoder."""
    ch_gw, ch_dev = loopback_pair()
    gw = Gateway(ch_gw, keys, GatewayConfig(mtu=1500, peer_batch_size=7))
    gw.start(SyntheticSource(SyntheticConfig(flows=20, count=300, seed=12, pkt_size=(60, 3000))))
    assert gw.wait_source_done(30)
    data = ch_dev.recv_exact(gw.stats.records_sent * SEALED_RECORD_LEN)
    gw.stop()
    assert (gw.stats.records_sent, gw.stats.fragments_created, gw.stats.pkts_sent) == (35, 285, 444)
    assert hashlib.sha256(data).hexdigest() == (
        "a21f79286ff4e8e7633a93185031f233189f572e216c66ca3d3fa2e9c9d85a7c"
    )


def test_device_stream_bytes_pinned(keys):
    """The device-to-gateway ciphertext over fixed TX passes, a heartbeat
    response queued mid-way, is the one recorded before the device's
    encoder moved into wire."""
    ch_gw, ch_dev = loopback_pair()
    dev = EtapDevice(
        ch_dev,
        keys,
        MemoryEnv(BoundaryConfig(trusted_capacity_bytes=4 << 20, untrusted_capacity_bytes=64 << 20)),
        EtapConfig(batch_size=3, ring_size=256, heartbeat_period_ms=0, idle_flush_ms=10**9),
    )
    rng = random.Random(17)
    stream = hashlib.sha256()
    sent = 0
    for p in range(8):
        for _ in range(rng.randrange(10, 60)):
            pkt = PktInfo(rng.getrandbits(40), rng.randbytes(rng.randrange(0, 1501)))
            assert dev.write_pkt(pkt, blocking=False)
        if p == 4:
            dev._ctrl.append(Frame(FRAME_HB_RESP, 123_456_789))
        if p == 7:
            dev.config.idle_flush_ms = 0  # the last pass flushes
        n = dev.tx_loop_iteration()
        sent += n
        stream.update(ch_gw.recv_exact(n * SEALED_RECORD_LEN))
    assert (sent, dev.stats.pkts_tx, dev.tx_ring.occupancy()) == (15, 294, 0)
    assert stream.hexdigest() == (
        "1e2b09508c4fd2b273a2afba19b0b83148099bc1927cae3dec20820eacbe7b58"
    )


class _RaisesOn:
    """Echo that raises ``ValueError`` on its ``n``-th packet."""

    def __init__(self, n: int):
        self.n = n
        self.seen = 0

    def __call__(self, pkt):
        self.seen += 1
        if self.seen == self.n:
            raise ValueError(f"packet {self.n}")
        return pkt


def test_nf_exception_shuts_device_down_and_wakes_gateway(keys):
    ch_gw, ch_dev = loopback_pair()
    dev = EtapDevice(ch_dev, keys, small_env(), EtapConfig(batch_size=4, idle_flush_ms=2))
    nf = Echo()
    nf.process = _RaisesOn(100)
    runner = NfRunner(dev, lambda i: nf, bounce=True)
    gw = Gateway(ch_gw, keys, GatewayConfig(peer_batch_size=4))
    dev.start()
    runner.start()
    gw.start(SyntheticSource(SyntheticConfig(flows=10, count=2000, seed=3, pkt_size=128)))
    t0 = time.monotonic()
    ok = gw.wait_received(2000, timeout=30)
    waited = time.monotonic() - t0
    gw.stop()
    dev.stop()
    runner.join()
    assert ok is False
    assert waited < 10
    assert dev.shutdown_reason == "nf 0 failed: ValueError('packet 100')"
    assert gw.recv_stop_reason == "channel closed"
    assert gw.stats.pkts_received < 100


def test_gateway_sink_exception_stops_receiver_and_wakes_waiters(keys):
    ch_gw, ch_dev = loopback_pair()
    dev = EtapDevice(ch_dev, keys, small_env(), EtapConfig(batch_size=4, idle_flush_ms=2))
    runner = NfRunner(dev, lambda i: Echo(), bounce=True)
    gw = Gateway(ch_gw, keys, GatewayConfig(peer_batch_size=4), sink=_RaisesOn(50))
    dev.start()
    runner.start()
    gw.start(SyntheticSource(SyntheticConfig(flows=10, count=500, seed=4, pkt_size=128)))
    t0 = time.monotonic()
    ok = gw.wait_received(500, timeout=30)
    waited = time.monotonic() - t0
    gw.stop()
    dev.stop()
    runner.join()
    assert ok is False
    assert waited < 10
    assert gw.recv_stop_reason == "sink failed: ValueError('packet 50')"
    assert dev.shutdown_reason == "channel closed"


def test_echo_round_trip_over_tcp_socket(keys):
    import socket

    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    port = srv.getsockname()[1]
    srv.close()

    dev_holder = {}

    def device_side():
        ch = SocketChannel.listen_accept("127.0.0.1", port)
        dev = EtapDevice(ch, keys, small_env(), EtapConfig(batch_size=2, idle_flush_ms=2))
        dev_holder["dev"] = dev
        runner = NfRunner(dev, lambda i: Echo(), bounce=True)
        dev.start()
        runner.start()
        dev_holder["runner"] = runner

    t = threading.Thread(target=device_side, daemon=True)
    t.start()
    time.sleep(0.1)
    ch_gw = SocketChannel.connect("127.0.0.1", port)
    received = []
    gw = Gateway(ch_gw, keys, GatewayConfig(peer_batch_size=2), sink=lambda p: received.append(p))
    cfg = SyntheticConfig(flows=6, count=120, seed=10, pkt_size=256)
    expected = [frame for _ts, frame in SyntheticSource(cfg)]
    gw.start(SyntheticSource(cfg))
    ok = gw.wait_received(len(expected), timeout=30)
    gw.stop()
    t.join(5)
    if "dev" in dev_holder:
        dev_holder["dev"].stop()
    assert ok
    assert Counter(p.data for p in received) == Counter(expected)


@pytest.mark.parametrize("garbage", [False, True], ids=["peer-closes", "bad-record"])
def test_cli_nf_run_reports_shutdown_reason(capsys, garbage):
    import socket

    from enclavetap.cli import main

    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    port = srv.getsockname()[1]
    srv.close()
    result = {}
    cli = threading.Thread(
        target=lambda: result.update(rc=main([
            "nf", "run", "--nf", "echo", "--peer-listen", f"127.0.0.1:{port}", "--batch-size", "1",
        ])),
        daemon=True,
    )
    cli.start()
    deadline = time.monotonic() + 10
    while True:
        try:
            peer = socket.create_connection(("127.0.0.1", port), timeout=1)
            break
        except OSError:
            assert time.monotonic() < deadline
            time.sleep(0.02)
    if garbage:
        peer.sendall(b"\x00" * SEALED_RECORD_LEN)  # fails authentication
    peer.close()
    cli.join(10)
    assert not cli.is_alive()
    out = capsys.readouterr().out
    if garbage:
        assert result["rc"] == 1
        assert "device shut down: record check failed" in out
    else:
        assert result["rc"] == 0
        assert "device shut down: channel closed" in out
