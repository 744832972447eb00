"""Seeded benchmark inputs, built without the program's own helpers.

Everything here is independent of ``enclavetap``: its own Ethernet/IPv4/TCP
frame builder, its own flow-id canonicalisation and its own model of how
many 16 KB records a list of packets fills. The program only ever sees the
frames; the checks compare its outputs against what this module computed.

All generators draw from ``random.Random`` seeded by a string that names
the workload and the ``--seed``, so one seed always gives the same inputs.
Frames are made on demand, a burst at a time, so memory for inputs stays
bounded however long a run lasts.
"""

from __future__ import annotations

import random
import struct
from collections import deque

# Tunnel framing as the wire format documents it, restated here on purpose.
FRAME_HDR = 11  # type u8 | len u16 | timestamp u64
RECORD = 16384
SEALED = RECORD + 16

ETH_HDR = bytes.fromhex("040404040404" "020202020202" "0800")
L2_L4_LEN = 14 + 20 + 20
TCP_FIN = 0x01
TCP_ACK = 0x10
PROTO_TCP = 6
BASE_TS_US = 1_700_000_000_000_000

_IP = struct.Struct("!BBHHHBBH4s4s")
_IP_WORDS = struct.Struct("!10H")
_TCP = struct.Struct("!HHIIBBHHH")

# Payload filler never holds these two bytes; every IDS pattern starts with
# the first and ends with the second (see ``ids_patterns``).
PAT_START = 0xFF
PAT_END = 0xFE
_FILLER = bytes(range(256)).translate(bytes(range(254)) + b"\x00\x01")


def tcp_frame(src: bytes, dst: bytes, sport: int, dport: int, seq: int, flags: int,
              payload: bytes, ident: int = 0) -> bytes:
    """Ethernet + IPv4 (with header checksum) + 20-byte TCP header + payload."""
    ip = _IP.pack(0x45, 0, 40 + len(payload), ident & 0xFFFF, 0, 64, PROTO_TCP, 0, src, dst)
    total = sum(_IP_WORDS.unpack(ip))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    ip = ip[:10] + (~total & 0xFFFF).to_bytes(2, "big") + ip[12:]
    return ETH_HDR + ip + _TCP.pack(sport, dport, seq, 0, 0x50, flags, 65535, 0, 0) + payload


def canonical_fid(src: bytes, dst: bytes, sport: int, dport: int) -> bytes:
    """13-byte TCP flow id with the smaller (address, port) endpoint first."""
    a = src + sport.to_bytes(2, "big")
    b = dst + dport.to_bytes(2, "big")
    if b < a:
        src, dst, sport, dport = dst, src, dport, sport
    return src + dst + sport.to_bytes(2, "big") + dport.to_bytes(2, "big") + bytes((PROTO_TCP,))


def records_for(frame_lens: list[int]) -> int:
    """Records that packets fill when packed back to back and the tail padded."""
    total = sum(FRAME_HDR + n for n in frame_lens)
    return -(-total // RECORD)


def fill_batch(frame_lens: list[int], batch_size: int) -> int:
    """Number of leading packets that fit in one batch of ``batch_size`` records.

    The gateway packs packets back to back until the next one would spill
    past ``batch_size`` records, then pads; so each burst is one device batch
    and every packet of it comes back in the same burst.
    """
    room = batch_size * RECORD
    n = 0
    for length in frame_lens:
        if FRAME_HDR + length > room:
            break
        room -= FRAME_HDR + length
        n += 1
    return n


def _endpoints(rng: random.Random, i: int) -> tuple[bytes, bytes, int, int]:
    src = bytes((10, (i >> 16) & 255, (i >> 8) & 255, i & 255))
    dst = bytes((172, 16 + ((i >> 16) & 15), (i >> 8) & 255, i & 255))
    return src, dst, rng.randrange(1024, 65535), rng.choice((80, 443, 8080, 25, 22))


# ------------------------------------------------------------- tunnel echo

class EchoTraffic:
    """Fixed-size TCP frames over a fixed flow population, flows drawn uniformly."""

    def __init__(self, seed: int, flows: int, frame_len: int):
        self._rng = random.Random(f"tunnel-echo:{seed}")
        self._flows = [_endpoints(self._rng, i) for i in range(flows)]
        self._seq = [self._rng.getrandbits(32) for _ in range(flows)]
        self._payload = frame_len - L2_L4_LEN
        self._n = 0

    def take(self, count: int) -> list[tuple[int, bytes]]:
        rng = self._rng
        flows, seqs, plen = self._flows, self._seq, self._payload
        out = []
        for _ in range(count):
            i = rng.randrange(len(flows))
            src, dst, sport, dport = flows[i]
            seq = seqs[i]
            seqs[i] = (seq + plen) & 0xFFFFFFFF
            out.append((BASE_TS_US + self._n,
                        tcp_frame(src, dst, sport, dport, seq, TCP_ACK, rng.randbytes(plen), self._n)))
            self._n += 1
        return out


# ------------------------------------------------------------- live flows

def ids_patterns(seed: int, count: int) -> list[bytes]:
    """Distinct patterns, each 0xFF + body + 0xFE with neither marker in the body.

    Filler never holds either marker, so a match can only start at a planted
    0xFF and end at the next 0xFE, which is the end of that same plant: the
    events the IDS reports are exactly the plants.
    """
    rng = random.Random(f"ids-patterns:{seed}")
    pats: set[bytes] = set()
    while len(pats) < count:
        body = bytes(rng.randrange(0x20, 0x7F) for _ in range(rng.randint(6, 22)))
        pats.add(bytes((PAT_START,)) + body + bytes((PAT_END,)))
    return sorted(pats)


class Flow:
    """One generated TCP flow and the totals the NFs must report for it."""

    __slots__ = ("src", "dst", "sport", "dport", "fid", "seq", "left", "pkts", "ip_bytes",
                 "offset", "plants")

    def __init__(self, rng: random.Random, serial: int, length: int):
        self.src, self.dst, self.sport, self.dport = _endpoints(rng, serial)
        self.fid = canonical_fid(self.src, self.dst, self.sport, self.dport)
        self.seq = rng.getrandbits(32)
        self.left = length
        self.pkts = 0
        self.ip_bytes = 0
        self.offset = 0  # stream offset of the next payload byte
        self.plants: set[tuple[int, int]] = set()  # (pattern id, stream end offset)


class FlowTraffic:
    """A fixed number of live TCP flows that open and close throughout.

    Every packet goes to a live flow drawn uniformly; a flow that sends its
    last packet (with FIN) is replaced by a new one at once, so exactly
    ``live`` flows are open at any time until ``finish()`` stops the
    openings. Traffic is therefore the same from the first second to the
    last, however long a run lasts. With ``patterns``, some packets carry
    one planted pattern, placed only wholly inside one 4096-byte inspection
    window of the flow's stream.
    """

    WINDOW = 4096

    def __init__(self, label: str, live: int, flow_len: tuple[int, int],
                 size_range: tuple[int, int], ts_step_us: int,
                 patterns: list[bytes] = (), plant_prob: float = 0.0):
        self._rng = random.Random(label)
        self._flow_len = flow_len
        self._sizes = size_range
        self._ts_step = ts_step_us
        self.patterns = list(patterns)
        self._plant_prob = plant_prob
        self._ts = BASE_TS_US
        self._serial = 0
        self._opening = True
        self.live: list[Flow] = [self._open() for _ in range(live)]
        self.packets = 0  # frames made so far
        # (frames made up to and including the flow's FIN, flow) for ended
        # flows the checker has not taken yet
        self.completed: deque[tuple[int, Flow]] = deque()

    def _open(self) -> Flow:
        self._serial += 1
        return Flow(self._rng, self._serial, self._rng.randint(*self._flow_len))

    def finish(self) -> None:
        """Stop opening flows; the live ones run to their FIN."""
        self._opening = False

    @property
    def done(self) -> bool:
        return not self.live

    def _payload(self, f: Flow, plen: int) -> bytes:
        rng = self._rng
        data = rng.randbytes(plen).translate(_FILLER)
        if self._plant_prob and plen and rng.random() < self._plant_prob:
            pid = rng.randrange(len(self.patterns))
            pat = self.patterns[pid]
            if len(pat) <= plen:
                at = rng.randrange(plen - len(pat) + 1)
                start = f.offset + at
                end = start + len(pat)
                if start // self.WINDOW == (end - 1) // self.WINDOW:
                    data = data[:at] + pat + data[at + len(pat):]
                    f.plants.add((pid, end))
        return data

    def take(self, count: int) -> list[tuple[int, bytes]]:
        rng = self._rng
        out = []
        while len(out) < count and self.live:
            k = rng.randrange(len(self.live))
            f = self.live[k]
            f.left -= 1
            last = f.left == 0
            plen = rng.randint(*self._sizes) - L2_L4_LEN
            frame = tcp_frame(f.src, f.dst, f.sport, f.dport, f.seq,
                              TCP_ACK | (TCP_FIN if last else 0), self._payload(f, plen))
            f.seq = (f.seq + plen) & 0xFFFFFFFF
            f.offset += plen
            f.pkts += 1
            f.ip_bytes += len(frame) - 14
            self._ts += self._ts_step
            self.packets += 1
            out.append((self._ts, frame))
            if last:
                self.completed.append((self.packets, f))
                if self._opening:
                    self.live[k] = self._open()
                else:
                    self.live[k] = self.live[-1]
                    self.live.pop()
        return out
