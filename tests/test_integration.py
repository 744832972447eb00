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
from enclavetap.wire import RECORD_LEN, SEALED_RECORD_LEN


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
