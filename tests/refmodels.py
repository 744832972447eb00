"""Independent reference models used as test oracles.

Each model re-implements a contract with the most boring data structures
available (dicts, OrderedDicts, brute-force scans) so the production code
path is never checked against itself.
"""

from __future__ import annotations

import struct
from collections import OrderedDict

from enclavetap.packets import PROTO_TCP, TCP_FIN, TCP_RST, canonical_fid

RECORD_LEN = 16384


class RefStateModel:
    """Unbounded plaintext map plus an LRU list of the C most recent flows.

    Predicts exactly what the bounded manager must expose: state contents,
    is_new, the evicted victim on each miss-with-full-cache, and which
    flows an expiration pass may remove (only those outside the LRU list).
    """

    def __init__(self, capacity: int, state_size: int, expiration_s: int = 60):
        self.capacity = capacity
        self.state_size = state_size
        self.expiration_s = expiration_s
        self.states: dict[bytes, bytearray] = {}
        self.lru: OrderedDict[bytes, None] = OrderedDict()  # cached flows, oldest first
        self.last_access: dict[bytes, int] = {}

    def track(self, fid: bytes, now_s: int):
        """Returns (state, is_new, flipped, predicted_victim_or_None)."""
        fid, flipped = canonical_fid(fid)
        st = self.states.get(fid)
        is_new = st is None
        if is_new:
            st = bytearray(self.state_size)
            self.states[fid] = st
        victim = None
        if fid in self.lru:
            self.lru.move_to_end(fid)
        else:
            if len(self.lru) >= self.capacity:
                victim, _ = self.lru.popitem(last=False)
            self.lru[fid] = None
        self.last_access[fid] = now_s
        return st, is_new, flipped, victim

    def terminate(self, fid: bytes) -> bool:
        fid, _ = canonical_fid(fid)
        if fid not in self.states:
            return False
        del self.states[fid]
        self.lru.pop(fid, None)
        del self.last_access[fid]
        return True

    def expire(self, now_s: int) -> int:
        timeout = self.expiration_s
        dead = [
            f
            for f, last in self.last_access.items()
            if now_s - last > timeout and f not in self.lru
        ]
        for f in dead:
            del self.states[f]
            del self.last_access[f]
        return len(dead)

    @property
    def cached_flows(self) -> int:
        return len(self.lru)


def ref_encode(item) -> bytes:
    """The wire bytes of one frame, restated from the format description.

    A 2-tuple ``(ts_us, data)`` (a ``PktInfo``) is a Data frame; a 3-tuple
    ``(ftype, ts_us, data)`` (a ``Frame``) is a heartbeat frame.
    """
    if len(item) == 2:
        ts_us, data = item
        return struct.pack("!BHQ", 0, len(data), ts_us) + data
    ftype, ts_us, _ = item
    assert ftype in (1, 2)
    return struct.pack("!BQ", ftype, ts_us)


def ref_records(items) -> list[bytes]:
    """Frames back to back, cut into records, the last one padded (0x03,
    then zeros)."""
    stream = b"".join(ref_encode(x) for x in items)
    full = len(stream) - len(stream) % RECORD_LEN
    records = [stream[i : i + RECORD_LEN] for i in range(0, full, RECORD_LEN)]
    tail = stream[full:]
    if tail:
        records.append(tail + b"\x03" + bytes(RECORD_LEN - len(tail) - 1))
    return records


def pack_record_count(frame_lens: list[int], flush: bool) -> int:
    """Arithmetic oracle for the record packer: back-to-back cursor."""
    total = sum(frame_lens)
    full, rem = divmod(total, RECORD_LEN)
    return full + (1 if flush and rem else 0)


def brute_find_all(data: bytes, patterns: list[bytes]) -> list[tuple[int, int]]:
    """Every (pattern index, end offset) by direct slice comparison."""
    out = []
    for pid, pat in enumerate(patterns):
        plen = len(pat)
        for i in range(len(data) - plen + 1):
            if data[i : i + plen] == pat:
                out.append((pid, i + plen))
    out.sort()
    return out


class AhoCorasick:
    """Textbook multi-pattern automaton, used to cross-check the scanner."""

    def __init__(self, patterns: list[bytes]):
        self.patterns = patterns
        self.goto: list[dict[int, int]] = [{}]
        self.fail: list[int] = [0]
        self.out: list[list[int]] = [[]]
        for pid, pat in enumerate(patterns):
            node = 0
            for b in pat:
                nxt = self.goto[node].get(b)
                if nxt is None:
                    nxt = len(self.goto)
                    self.goto[node][b] = nxt
                    self.goto.append({})
                    self.fail.append(0)
                    self.out.append([])
                node = nxt
            self.out[node].append(pid)
        from collections import deque

        queue = deque()
        for b, nxt in self.goto[0].items():
            queue.append(nxt)
        while queue:
            node = queue.popleft()
            for b, nxt in self.goto[node].items():
                queue.append(nxt)
                f = self.fail[node]
                while f and b not in self.goto[f]:
                    f = self.fail[f]
                self.fail[nxt] = self.goto[f].get(b, 0) if self.goto[f].get(b, 0) != nxt else 0
                self.out[nxt] = self.out[nxt] + self.out[self.fail[nxt]]
        self._plen = [len(p) for p in patterns]

    def scan(self, data: bytes) -> list[tuple[int, int]]:
        out = []
        node = 0
        goto = self.goto
        fail = self.fail
        outs = self.out
        for i, b in enumerate(data):
            while node and b not in goto[node]:
                node = fail[node]
            node = goto[node].get(b, 0)
            for pid in outs[node]:
                out.append((pid, i + 1))
        out.sort()
        return out


def reassemble_ipv4(fragments: list[bytes], l2: int = 0) -> bytes:
    """Offset-sorted concatenation of IPv4 fragment payloads."""
    pieces = []
    for frag in fragments:
        ihl = (frag[l2] & 0x0F) * 4
        total_len = (frag[l2 + 2] << 8) | frag[l2 + 3]
        off8 = ((frag[l2 + 6] << 8) | frag[l2 + 7]) & 0x1FFF
        pieces.append((off8 * 8, frag[l2 + ihl : l2 + total_len]))
    pieces.sort()
    expect = 0
    out = bytearray()
    for off, chunk in pieces:
        assert off == expect, f"fragment gap at offset {off}, expected {expect}"
        out += chunk
        expect = off + len(chunk)
    return bytes(out)


def flowmeter_oracle(parsed_seq):
    """Single-pass flow metering over (ParsedPacket, ts_us) pairs.

    Returns (final_states, events) where final_states maps fid to the tuple
    (pkts, bytes, first_us, last_us, proto, flag_acc) for flows still
    tracked at the end, and events is the (ts, fid, kind, detail) list.
    """
    flows: dict[bytes, list] = {}
    events = []
    for pp, ts in parsed_seq:
        st = flows.get(pp.fid)
        if st is None:
            st = [0, 0, ts, 0, pp.proto, 0]
            flows[pp.fid] = st
            events.append((ts, pp.fid, "new", ""))
        st[0] += 1
        st[1] += pp.total_len
        st[3] = ts
        st[4] = pp.proto
        st[5] = (st[5] | pp.tcp_flags) & 0xFF
        if pp.proto == PROTO_TCP and pp.tcp_flags & (TCP_FIN | TCP_RST):
            events.append((ts, pp.fid, "fin", f"pkts={st[0]};bytes={st[1]}"))
            del flows[pp.fid]
    final = {fid: tuple(st) for fid, st in flows.items()}
    return final, events


def ids_oracle(parsed_seq, patterns: list[bytes], buf_cap: int = 4096, scanner=None):
    """Window simulation for the buffered pattern matcher.

    ``parsed_seq`` yields (ParsedPacket, ts_us, raw frame). Returns the
    (ts, fid, pattern_id, absolute_end_offset) event list. ``scanner``
    defaults to brute force; pass another callable to scan large streams.
    """
    scan = scanner or (lambda data: brute_find_all(data, patterns))
    streams: dict[bytes, list] = {}  # fid -> [expected_seq, buffer, base]
    events = []
    for pp, ts, raw in parsed_seq:
        if pp.proto != PROTO_TCP:
            continue
        st = streams.get(pp.fid)
        if st is None:
            st = [pp.tcp_seq, bytearray(), 0]
            streams[pp.fid] = st
        payload = raw[pp.payload_off : pp.payload_off + pp.payload_len]
        if payload and pp.tcp_seq == st[0]:
            st[0] = (st[0] + len(payload)) & 0xFFFFFFFF
            st[1] += payload
            while len(st[1]) >= buf_cap:
                window = bytes(st[1][:buf_cap])
                for pid, end in scan(window):
                    events.append((ts, pp.fid, pid, st[2] + end))
                st[2] += buf_cap
                del st[1][:buf_cap]
        if pp.tcp_flags & (TCP_FIN | TCP_RST):
            if st[1]:
                window = bytes(st[1])
                for pid, end in scan(window):
                    events.append((ts, pp.fid, pid, st[2] + end))
            del streams[pp.fid]
    return events
