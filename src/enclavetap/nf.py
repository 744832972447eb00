"""Sample stateful network functions and the capture-style read API.

Two NFs exercise the state layer end to end: a flow meter that keeps
per-flow packet/byte counters and TCP flag accumulation, and a lightweight
per-flow pattern matcher that appends in-order TCP payload to a 4 KB
inspection buffer and scans it whenever the buffer fills or the flow
completes. Both are oblivious to how flow state is stored: they run
unchanged over the bounded sealed-store manager, an unbounded plaintext
map, or the strawman: the same manager with every access a miss (one
cached state, sealed back before each track).

Timing inside the NFs derives from packet timestamps (monotonically
clamped), so identical input packets produce identical outputs regardless
of backend or wall-clock speed. A flow whose sealed state fails
authentication is dropped by the state manager; the NF counts it in
``auth_failures``, passes the packet on, and sees the flow's next packet as
a new flow.
"""

from __future__ import annotations

import struct
import threading
import traceback
from typing import Callable, NamedTuple

from .errors import AuthFailure, DeviceShutdown
from .packets import (
    PROTO_TCP,
    TCP_FIN,
    TCP_RST,
    ParsedPacket,
    parse_packet,
)
from .wire import PktInfo

# ------------------------------------------------------------- pcap compat

class PcapCompatHeader(NamedTuple):
    ts_sec: int
    ts_usec: int
    caplen: int
    len: int


def pcap_compat_next(device, ring_index: int = 0) -> tuple[PcapCompatHeader, bytes]:
    """Capture-style blocking read: returns (header, packet bytes)."""
    pkt = device.read_pkt(ring_index, blocking=True)
    hdr = PcapCompatHeader(pkt.ts_us // 1_000_000, pkt.ts_us % 1_000_000, len(pkt.data), len(pkt.data))
    return hdr, pkt.data


def pcap_compat_loop(device, callback, count: int, ring_index: int = 0) -> int:
    """Dispatch exactly ``count`` packets to ``callback`` (or until shutdown).

    ``count <= 0`` loops until the device shuts down. Returns the number of
    packets dispatched.
    """
    dispatched = 0
    while count <= 0 or dispatched < count:
        try:
            hdr, data = pcap_compat_next(device, ring_index)
        except DeviceShutdown:
            break
        callback(hdr, data)
        dispatched += 1
    return dispatched


# ----------------------------------------------------------- pattern match

class PatternSet:
    """Multi-pattern byte matcher compiled once at startup.

    ``scan`` reports every (pattern index, end offset) occurrence in a
    buffer, overlaps included, sorted by end offset. Matching runs each
    pattern through the C substring engine, which for IDS-scale rule sets
    far outruns an interpreted per-byte automaton while producing the same
    answer (the equivalence is covered by tests against a reference
    automaton).
    """

    def __init__(self, patterns: list[bytes]):
        if not patterns:
            raise ValueError("pattern set must not be empty")
        for p in patterns:
            if not p:
                raise ValueError("empty pattern")
        self.patterns = list(patterns)

    @classmethod
    def from_file(cls, path) -> "PatternSet":
        """One pattern per line; backslash hex escapes (\\xNN) supported."""
        pats = []
        with open(path, "r", encoding="utf-8") as fp:
            for line in fp:
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                pats.append(line.encode("utf-8").decode("unicode_escape").encode("latin-1"))
        return cls(pats)

    def scan(self, data: bytes) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for pid, pat in enumerate(self.patterns):
            plen = len(pat)
            idx = data.find(pat)
            while idx != -1:
                out.append((pid, idx + plen))
                idx = data.find(pat, idx + 1)
        out.sort()
        return out


# --------------------------------------------------------------- flow meter

_FM = struct.Struct("<QQQQBB")  # pkts, bytes, first_us, last_us, proto, tcp flag accumulator


class FlowMeterEvent(NamedTuple):
    ts_us: int
    fid: bytes
    kind: str  # "new" | "fin"
    detail: str


class FlowMeter:
    """Per-flow packet/byte/flag meter over a pluggable state backend.

    Non-IPv4/{TCP,UDP} packets are counted and passed through untouched.
    FIN or RST terminates tracking immediately; expiration runs once per
    packet-time second.
    """

    def __init__(self, state_backend, emit_events: bool = True, expire_every_s: int = 1):
        self.state = state_backend
        self.events: list[FlowMeterEvent] = []
        self.emit_events = emit_events
        self.parse_failures = 0
        self.auth_failures = 0
        self._now_s = 0
        self._next_expire_s = 0
        self._expire_every_s = expire_every_s

    def process(self, pkt: PktInfo) -> PktInfo:
        pp = parse_packet(pkt.data)
        if pp is None:
            self.parse_failures += 1
            return pkt
        self.process_parsed(pp, pkt.ts_us)
        return pkt

    def process_parsed(self, pp: ParsedPacket, ts_us: int) -> None:
        now_s = ts_us // 1_000_000
        if now_s > self._now_s:
            self._now_s = now_s
        now_s = self._now_s
        try:
            view, is_new, _ = self.state.track(pp.fid, now_s)
        except AuthFailure:
            self.auth_failures += 1  # the manager dropped the flow
            return
        if is_new:
            pkts = n_bytes = 0
            first = ts_us
            flags_acc = 0
            if self.emit_events:
                self.events.append(FlowMeterEvent(ts_us, pp.fid, "new", ""))
        else:
            pkts, n_bytes, first, _last, _proto, flags_acc = _FM.unpack_from(view, 0)
        pkts += 1
        n_bytes += pp.total_len
        flags_acc |= pp.tcp_flags
        _FM.pack_into(view, 0, pkts, n_bytes, first, ts_us, pp.proto, flags_acc & 0xFF)
        if pp.proto == PROTO_TCP and pp.tcp_flags & (TCP_FIN | TCP_RST):
            if self.emit_events:
                self.events.append(
                    FlowMeterEvent(ts_us, pp.fid, "fin", f"pkts={pkts};bytes={n_bytes}")
                )
            self.state.terminate(pp.fid)
        if now_s >= self._next_expire_s:
            self.state.expire(now_s)
            self._next_expire_s = now_s + self._expire_every_s


# ----------------------------------------------------------------- lightweight IDS

IDS_BUF_CAP = 4096
_IDS_HDR = struct.Struct("<IHBBQ")  # expected_seq, buf_len, flags_acc, inited, window_base
IDS_BUF_OFF = _IDS_HDR.size
IDS_STATE_SIZE = 5632  # 4 KB inspection buffer plus header, padded


class IdsEvent(NamedTuple):
    ts_us: int
    fid: bytes
    pattern_id: int
    end_offset: int  # absolute offset in the in-order payload stream


class BufferedIds:
    """Buffered per-flow pattern matcher over TCP payload.

    Appends strictly in-order TCP segments to the flow's inspection buffer
    (out-of-order segments are dropped and counted); scans and resets the
    buffer when it fills or the flow completes. Patterns crossing a flush
    boundary are not matched — inherited behavior of the flush-then-scan
    lifecycle.
    """

    def __init__(self, state_backend, patterns: PatternSet, expire_every_s: int = 1):
        self.state = state_backend
        self.patterns = patterns
        self.events: list[IdsEvent] = []
        self.bypassed = 0
        self.ooo_dropped = 0
        self.auth_failures = 0
        self._now_s = 0
        self._next_expire_s = 0
        self._expire_every_s = expire_every_s

    def process(self, pkt: PktInfo) -> PktInfo:
        pp = parse_packet(pkt.data)
        if pp is None or pp.proto != PROTO_TCP:
            self.bypassed += 1
            return pkt
        self.process_parsed(pp, pkt.ts_us, pkt.data)
        return pkt

    def process_parsed(self, pp: ParsedPacket, ts_us: int, raw: bytes) -> None:
        if pp.proto != PROTO_TCP:
            self.bypassed += 1
            return
        now_s = ts_us // 1_000_000
        if now_s > self._now_s:
            self._now_s = now_s
        now_s = self._now_s
        try:
            view, is_new, _ = self.state.track(pp.fid, now_s)
        except AuthFailure:
            self.auth_failures += 1  # the manager dropped the flow
            return
        if is_new:
            expected = pp.tcp_seq
            buf_len = 0
            flags_acc = 0
            window_base = 0
        else:
            expected, buf_len, flags_acc, _inited, window_base = _IDS_HDR.unpack_from(view, 0)
        payload = raw[pp.payload_off : pp.payload_off + pp.payload_len]
        if payload:
            if pp.tcp_seq == expected:
                expected = (expected + len(payload)) & 0xFFFFFFFF
                pos = 0
                while pos < len(payload):
                    space = IDS_BUF_CAP - buf_len
                    take = min(space, len(payload) - pos)
                    view[IDS_BUF_OFF + buf_len : IDS_BUF_OFF + buf_len + take] = payload[
                        pos : pos + take
                    ]
                    buf_len += take
                    pos += take
                    if buf_len == IDS_BUF_CAP:
                        self._flush(pp.fid, view, buf_len, window_base, ts_us)
                        window_base += buf_len
                        buf_len = 0
            else:
                self.ooo_dropped += 1
        flags_acc |= pp.tcp_flags
        if pp.tcp_flags & (TCP_FIN | TCP_RST):
            self._flush(pp.fid, view, buf_len, window_base, ts_us)
            self.state.terminate(pp.fid)
        else:
            _IDS_HDR.pack_into(view, 0, expected, buf_len, flags_acc & 0xFF, 1, window_base)
        if now_s >= self._next_expire_s:
            self.state.expire(now_s)
            self._next_expire_s = now_s + self._expire_every_s

    def _flush(self, fid: bytes, view: memoryview, buf_len: int, window_base: int, ts_us: int) -> None:
        if not buf_len:
            return
        data = bytes(view[IDS_BUF_OFF : IDS_BUF_OFF + buf_len])
        for pid, end in self.patterns.scan(data):
            self.events.append(IdsEvent(ts_us, fid, pid, window_base + end))


# ----------------------------------------------------------------------- echo

class Echo:
    """Identity NF: read, optionally burn tunable cycles, write back."""

    def __init__(self, busy_work: int = 0):
        self.busy_work = busy_work
        self.processed = 0

    def process(self, pkt: PktInfo) -> PktInfo:
        k = self.busy_work
        if k:
            acc = 0
            for i in range(k):
                acc += i
        self.processed += 1
        return pkt


# ----------------------------------------------------------------- NF runner

class NfRunner:
    """One middlebox thread per receive ring, driving an NF over the poll API.

    With ``bounce`` set, processed packets are written back to the transmit
    ring; the single-producer contract on that ring restricts bouncing to
    single-ring devices. Any other exception from an NF shuts the device
    down with a reason naming the NF.
    """

    def __init__(self, device, nf_factory: Callable[[int], object], bounce: bool = False):
        if bounce and device.config.num_rx_rings != 1:
            raise ValueError("bounce requires a single receive ring")
        self.device = device
        self.bounce = bounce
        self.nfs = [nf_factory(i) for i in range(device.config.num_rx_rings)]
        self.processed = [0] * len(self.nfs)
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        for i, nf in enumerate(self.nfs):
            t = threading.Thread(target=self._main, args=(i, nf), name=f"nf-{i}", daemon=True)
            self._threads.append(t)
            t.start()

    def _main(self, ring_index: int, nf) -> None:
        device = self.device
        bounce = self.bounce
        count = 0
        try:
            while True:
                pkt = device.read_pkt(ring_index, blocking=True)
                out = nf.process(pkt)
                count += 1
                self.processed[ring_index] = count
                if bounce and out is not None:
                    device.write_pkt(out, blocking=True)
        except DeviceShutdown:
            self.processed[ring_index] = count
        except Exception as exc:
            traceback.print_exc()
            device.shutdown(f"nf {ring_index} failed: {exc!r}")

    @property
    def processed_total(self) -> int:
        return sum(self.processed)

    def join(self, timeout: float = 10.0) -> None:
        for t in self._threads:
            t.join(timeout)

    def wait_processed(self, n: int, timeout: float = 60.0) -> bool:
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.processed_total >= n:
                return True
            time.sleep(0.005)
        return self.processed_total >= n
