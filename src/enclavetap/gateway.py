"""Gateway-side tunnel peer: packet sources, fragmentation, and the pump.

The gateway is a plain untrusted-side program. It sources packets from
pcap files or a deterministic synthetic generator, timestamps and
fragments them, packs them into fixed-size sealed records, and streams
them to the device peer while concurrently receiving bounced traffic.
It uses the device's codec from ``wire``: one ``RecordPacker.pack`` pass
per packet's fragments, and ``RecordParser.feed_pkts``, whose ``PktInfo``s
go to the sink as they are.

Because the device-side RX loop always pulls whole batches of records,
the gateway keeps the gateway-to-device stream aligned to the peer's
batch size: whenever it flushes a partial record (end of source, or a
heartbeat response that must propagate promptly) it tops the stream up
with all-padding records. Padding records are indistinguishable from
data records on the wire, so the fixed-size observable is preserved.
"""

from __future__ import annotations

import struct
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator

from .errors import (
    AuthFailure,
    ChannelClosed,
    EnclaveTapError,
    MalformedPcap,
    TruncatedPacket,
    Unfragmentable,
)
from .etap import mono_us
from .packets import ip_checksum, make_tcp_frame, make_udp_frame
from .wire import (
    FRAME_HB_REQ,
    FRAME_HB_RESP,
    PAD_RECORD,
    SEALED_RECORD_LEN,
    ChannelKeys,
    Frame,
    PktInfo,
    RecordPacker,
    RecordParser,
)

# ---------------------------------------------------------------------- pcap

_MAGIC_US = 0xA1B2C3D4
_MAGIC_NS = 0xA1B23C4D
_PKT_HDR_LE = struct.Struct("<IIII")
_PKT_HDR_BE = struct.Struct(">IIII")


def read_pcap(path) -> Iterator[tuple[int, bytes]]:
    """Yield (timestamp_us, packet bytes) from a pcap file.

    Honors the magic number for endianness and microsecond/nanosecond
    timestamp precision; nanosecond stamps are down-converted.
    """
    with open(path, "rb") as fp:
        head = fp.read(4)
        if len(head) < 4:
            raise MalformedPcap("file shorter than magic number")
        for order, hdr_struct in (("<", _PKT_HDR_LE), (">", _PKT_HDR_BE)):
            magic = struct.unpack(order + "I", head)[0]
            if magic in (_MAGIC_US, _MAGIC_NS):
                nanos = magic == _MAGIC_NS
                pkt_hdr = hdr_struct
                break
        else:
            raise MalformedPcap(f"bad magic {head.hex()}")
        rest = fp.read(20)
        if len(rest) < 20:
            raise MalformedPcap("truncated global header")
        while True:
            raw = fp.read(16)
            if not raw:
                return
            if len(raw) < 16:
                raise TruncatedPacket("partial packet header")
            ts_sec, ts_frac, incl_len, _orig_len = pkt_hdr.unpack(raw)
            data = fp.read(incl_len)
            if len(data) < incl_len:
                raise TruncatedPacket(f"packet data short: want {incl_len}, got {len(data)}")
            ts_us = ts_sec * 1_000_000 + (ts_frac // 1000 if nanos else ts_frac)
            yield ts_us, data


def write_pcap(path, packets: Iterable[tuple[int, bytes]], nanosecond: bool = False) -> None:
    """Write a little-endian pcap file (linktype Ethernet)."""
    magic = _MAGIC_NS if nanosecond else _MAGIC_US
    with open(path, "wb") as fp:
        fp.write(struct.pack("<IHHiIII", magic, 2, 4, 0, 0, 65535, 1))
        for ts_us, data in packets:
            frac = (ts_us % 1_000_000) * (1000 if nanosecond else 1)
            fp.write(_PKT_HDR_LE.pack(ts_us // 1_000_000, frac, len(data), len(data)))
            fp.write(data)


# ---------------------------------------------------------------- synthetic

@dataclass
class SyntheticConfig:
    flows: int = 1000
    count: int = 100_000
    seed: int = 1
    pkt_size: int | tuple[int, int] = 512  # frame bytes; tuple = uniform range
    zipf: float = 0.0  # flow popularity skew; 0 = uniform
    udp_fraction: float = 0.0
    base_ts_us: int = 1_600_000_000_000_000
    pps: int = 1_000_000  # synthetic timestamp pacing


class SyntheticSource:
    """Deterministic generator of well-formed Ethernet/IPv4/{TCP,UDP} frames.

    Flow popularity follows a Zipf distribution over flow ranks; TCP flows
    carry correctly advancing sequence numbers so downstream reassembly is
    real. Identical config + seed yields identical byte streams.
    """

    MIN_TCP_FRAME = 14 + 20 + 20
    MIN_UDP_FRAME = 14 + 20 + 8

    def __init__(self, config: SyntheticConfig):
        import numpy as np

        self.config = config
        import random as _random

        rng = _random.Random(config.seed)
        self._rng = rng
        n = config.flows
        self._src_ips = [bytes((10, (i >> 16) & 255, (i >> 8) & 255, i & 255)) for i in range(n)]
        self._dst_ips = [
            bytes((172, 16 + ((i >> 16) & 15), (i >> 8) & 255, i & 255)) for i in range(n)
        ]
        self._sports = [rng.randrange(1024, 65535) for _ in range(n)]
        self._dports = [rng.choice((80, 443, 8080, 53, 22)) for _ in range(n)]
        self._is_udp = [rng.random() < config.udp_fraction for _ in range(n)]
        self._next_seq = [rng.randrange(0, 1 << 31) for _ in range(n)]

        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-config.zipf) if config.zipf else np.ones(n)
        self._cdf = np.cumsum(weights / weights.sum())
        self._np_rng = np.random.default_rng(config.seed)

    def _frame_size(self) -> int:
        ps = self.config.pkt_size
        if isinstance(ps, tuple):
            return self._rng.randint(ps[0], ps[1])
        return ps

    def __iter__(self) -> Iterator[tuple[int, bytes]]:
        import numpy as np

        cfg = self.config
        us_per_pkt = 1_000_000 / cfg.pps
        emitted = 0
        chunk = 65536
        while emitted < cfg.count:
            m = min(chunk, cfg.count - emitted)
            draws = self._np_rng.random(m)
            idxs = np.searchsorted(self._cdf, draws)
            for j in range(m):
                i = int(idxs[j])
                ts = cfg.base_ts_us + int((emitted + j) * us_per_pkt)
                yield ts, self._build(i)
            emitted += m

    def _build(self, i: int) -> bytes:
        size = self._frame_size()
        if self._is_udp[i]:
            payload_len = max(0, size - self.MIN_UDP_FRAME)
            return make_udp_frame(
                self._src_ips[i],
                self._dst_ips[i],
                self._sports[i],
                self._dports[i],
                self._rng.randbytes(payload_len),
            )
        payload_len = max(0, size - self.MIN_TCP_FRAME)
        payload = self._rng.randbytes(payload_len)
        seq = self._next_seq[i]
        self._next_seq[i] = (seq + payload_len) & 0xFFFFFFFF
        return make_tcp_frame(
            self._src_ips[i],
            self._dst_ips[i],
            self._sports[i],
            self._dports[i],
            payload,
            seq=seq,
        )


# ------------------------------------------------------------- fragmentation

IP_DF = 0x4000
IP_MF = 0x2000


def fragment(packet: bytes, mtu: int) -> list[bytes]:
    """Split an oversize IPv4 packet per IPv4 fragmentation rules.

    Accepts either a bare IPv4 datagram or an Ethernet frame carrying one;
    every output (including any Ethernet prefix) is at most ``mtu`` bytes.
    Raises ``Unfragmentable`` for non-IPv4 oversize packets or DF.
    """
    if len(packet) <= mtu:
        return [packet]
    if len(packet) >= 34 and packet[12] == 0x08 and packet[13] == 0x00 and packet[14] >> 4 == 4:
        l2 = 14
    elif packet and packet[0] >> 4 == 4 and (packet[0] & 0x0F) >= 5:
        l2 = 0
    else:
        raise Unfragmentable("oversize packet is not IPv4")
    ihl = (packet[l2] & 0x0F) * 4
    flags_frag = (packet[l2 + 6] << 8) | packet[l2 + 7]
    if flags_frag & IP_DF:
        raise Unfragmentable("DF flag set")
    total_len = (packet[l2 + 2] << 8) | packet[l2 + 3]
    orig_mf = flags_frag & IP_MF
    orig_off = flags_frag & 0x1FFF
    header = bytearray(packet[l2 : l2 + ihl])
    payload = packet[l2 + ihl : l2 + total_len]
    prefix = packet[:l2]
    max_payload = ((mtu - l2 - ihl) // 8) * 8
    if max_payload <= 0:
        raise Unfragmentable(f"mtu {mtu} cannot carry any fragment payload")
    frags = []
    pos = 0
    while pos < len(payload):
        chunk = payload[pos : pos + max_payload]
        last = pos + len(chunk) >= len(payload)
        ff = (orig_mf if last else IP_MF) | (orig_off + pos // 8)
        header[2:4] = (ihl + len(chunk)).to_bytes(2, "big")
        header[6:8] = ff.to_bytes(2, "big")
        header[10:12] = b"\x00\x00"
        header[10:12] = ip_checksum(bytes(header)).to_bytes(2, "big")
        frags.append(prefix + bytes(header) + chunk)
        pos += len(chunk)
    return frags


# ------------------------------------------------------------------ gateway

@dataclass
class GatewayConfig:
    mtu: int = 1500
    peer_batch_size: int = 10
    retimestamp: bool = False


@dataclass
class GatewayStats:
    pkts_sent: int = 0
    bytes_sent: int = 0
    fragments_created: int = 0
    dropped_unfragmentable: int = 0
    records_sent: int = 0
    pkts_received: int = 0
    bytes_received: int = 0
    records_received: int = 0
    heartbeats_answered: int = 0
    auth_failures: int = 0


class Gateway:
    """Sender/receiver pair pumping a packet source through the tunnel.

    The sender thread owns all sealing state; the receiver thread owns all
    opening state; they share only the channel, the stats counters, and a
    queue of control frames the receiver asks the sender to emit. When the
    receiver stops, ``recv_stop_reason`` says why; a library error on the
    receive side (a record failing authentication, a malformed frame) or an
    exception from ``sink`` also closes the channel.
    """

    def __init__(
        self,
        channel,
        keys: ChannelKeys,
        config: GatewayConfig | None = None,
        sink: Callable[[PktInfo], None] | None = None,
    ):
        self.config = config or GatewayConfig()
        self.channel = channel
        self.stats = GatewayStats()
        self.sink = sink
        self._sealer = keys.gateway_sealer()
        self._opener = keys.gateway_opener()
        self._packer = RecordPacker(self.config.mtu)
        self._parser = RecordParser(self.config.mtu)
        self._ctrl: deque[Frame] = deque()  # heartbeat answers awaiting transmit
        self._stop = False
        self._source_done = threading.Event()
        self._recv_cond = threading.Condition()
        self.recv_stop_reason: str | None = None
        self._unaligned = 0  # records sent since last batch boundary
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------- sender side

    def _send_records(self, records: list[bytes]) -> None:
        if not records:
            return
        out = b"".join(self._sealer.seal(r) for r in records)
        self.channel.send(out)
        self.stats.records_sent += len(records)
        self._unaligned = (self._unaligned + len(records)) % self.config.peer_batch_size

    def _ingest_packet(self, ts_us: int, packet: bytes) -> None:
        if self.config.retimestamp:
            ts_us = mono_us()
        try:
            frags = fragment(packet, self.config.mtu)
        except Unfragmentable:
            self.stats.dropped_unfragmentable += 1
            return
        # pack pops the fragments, each with the packet's timestamp, until None
        if len(frags) == 1:
            pkts = ((ts_us, packet), None)
        else:
            self.stats.fragments_created += len(frags)
            pkts = (*zip(repeat(ts_us), frags), None)
        records, _ = self._packer.pack((), iter(pkts).__next__)
        self.stats.pkts_sent += len(frags)
        self.stats.bytes_sent += sum(map(len, frags))
        self._send_records(records)

    def _flush_and_pad(self) -> None:
        """Flush any partial record and re-align the stream to the peer batch."""
        records: list[bytes] = []
        rec = self._packer.flush()
        if rec is not None:
            records.append(rec)
        pending = (self._unaligned + len(records)) % self.config.peer_batch_size
        if pending:
            records.extend([PAD_RECORD] * (self.config.peer_batch_size - pending))
        self._send_records(records)

    def _service_ctrl(self) -> bool:
        # the receiver may append more meanwhile; those wait for the next call
        frames = [self._ctrl.popleft() for _ in range(len(self._ctrl))]
        if not frames:
            return False
        self._send_records(self._packer.pack(frames)[0])
        self._flush_and_pad()
        return True

    def _sender_main(self, source: Iterable[tuple[int, bytes]]) -> None:
        try:
            for ts_us, packet in source:
                self._ingest_packet(ts_us, packet)
                if self._ctrl:
                    self._service_ctrl()
                if self._stop:
                    break
            self._flush_and_pad()
            self._source_done.set()
            while not self._stop:
                if not self._service_ctrl():
                    time.sleep(0.0005)
        except ChannelClosed:
            self._source_done.set()

    # ----------------------------------------------------------- receiver side

    def _recv_one(self) -> list[PktInfo]:
        """Open and parse one record, answer its heartbeats, return its packets."""
        sealed = self.channel.recv_exact(SEALED_RECORD_LEN)
        try:
            plaintext = self._opener.open(sealed)
        except AuthFailure:
            self.stats.auth_failures += 1
            raise
        self.stats.records_received += 1
        items, ctrl = self._parser.feed_pkts(plaintext)
        if not ctrl:
            return items
        for at in ctrl:
            frame = items[at]
            if frame.ftype == FRAME_HB_REQ:
                self._ctrl.append(Frame(FRAME_HB_RESP, frame.ts_us))
                self.stats.heartbeats_answered += 1
            # HB_RESP: the gateway never originates requests; nothing to do
        return [x for x in items if type(x) is PktInfo]

    def _receiver_main(self) -> None:
        reason = "stopped"
        sink = self.sink
        stats = self.stats
        try:
            while not self._stop:
                pkts = self._recv_one()
                if sink is not None:
                    try:
                        for pkt in pkts:
                            sink(pkt)
                    except Exception as exc:
                        traceback.print_exc()
                        reason = f"sink failed: {exc!r}"
                        self.channel.close()
                        break
                # counted once the sink has them, so a woken waiter sees them there
                with self._recv_cond:
                    stats.pkts_received += len(pkts)
                    stats.bytes_received += sum(len(p.data) for p in pkts)
                    self._recv_cond.notify_all()
        except ChannelClosed:
            if not self._stop:
                reason = "channel closed"
        except EnclaveTapError as exc:
            reason = f"receive check failed: {exc}"
            self.channel.close()
        with self._recv_cond:
            self.recv_stop_reason = reason
            self._recv_cond.notify_all()

    # ------------------------------------------------------------- lifecycle

    def start(self, source: Iterable[tuple[int, bytes]]) -> None:
        snd = threading.Thread(target=self._sender_main, args=(source,), name="gw-send", daemon=True)
        rcv = threading.Thread(target=self._receiver_main, name="gw-recv", daemon=True)
        self._threads = [snd, rcv]
        rcv.start()
        snd.start()

    def wait_source_done(self, timeout: float | None = None) -> bool:
        return self._source_done.wait(timeout)

    def wait_received(self, n: int, timeout: float = 60.0) -> bool:
        """Wait until ``n`` packets arrived; False on timeout or once the receiver stopped."""
        deadline = time.monotonic() + timeout
        with self._recv_cond:
            while self.stats.pkts_received < n:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.recv_stop_reason is not None:
                    return False
                self._recv_cond.wait(min(remaining, 0.1))
        return True

    def stop(self) -> GatewayStats:
        self._stop = True
        try:
            self.channel.close()
        except Exception:
            pass
        for t in self._threads:
            t.join(timeout=5)
        self._threads = []
        return self.stats


def run_gateway(
    source: Iterable[tuple[int, bytes]],
    channel,
    keys: ChannelKeys,
    config: GatewayConfig | None = None,
    sink: Callable[[PktInfo], None] | None = None,
    linger_s: float = 0.5,
) -> GatewayStats:
    """Pump a source through the tunnel and return the final stats.

    Keeps the receive side open ``linger_s`` after the source drains so
    bounced traffic can arrive.
    """
    gw = Gateway(channel, keys, config, sink)
    gw.start(source)
    gw.wait_source_done()
    time.sleep(linger_s)
    return gw.stop()
