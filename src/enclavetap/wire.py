"""Packet/record codec and record-level authenticated encryption.

Packets are packed back-to-back into fixed 16 KB plaintext records; only
fixed-size ciphertext records are ever observable on the wire, so packet
boundaries, sizes, counts and timestamps cannot be recovered from what an
on-path observer sees. Each direction seals records under its own key with
an implicit (never transmitted) sequence number, so any tamper, replay,
reorder or drop is caught at open time.

Wire format per direction: a stream of `AEAD(16384-byte plaintext) || 16-byte
tag` units, no per-record header. Frames inside the plaintext:

    Data      : 0x00 | len u16be | timestamp u64be | data[len]
    HbReq     : 0x01 | timestamp u64be
    HbResp    : 0x02 | timestamp u64be
    Padding   : 0x03                  (rest of record is filler)

A Padding frame is always the last frame of its record. Data frames may
straddle record boundaries; the parser carries partial bytes across.

The frame layout lives only here. Both peers encode in one pass with
``RecordPacker.pack`` and parse with ``RecordParser.feed_pkts``, which
yields a Data frame as the ``PktInfo`` it carries and a control frame as a
``Frame``.
"""

from __future__ import annotations

import struct
import sys
from typing import Callable, Iterable, NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import AuthFailure, MalformedFrame, OversizePacket

RECORD_LEN = 16384
TAG_LEN = 16
SEALED_RECORD_LEN = RECORD_LEN + TAG_LEN
DEFAULT_MAX_PKT = 1500

FRAME_DATA = 0
FRAME_HB_REQ = 1
FRAME_HB_RESP = 2
FRAME_PADDING = 3

DATA_HDR = struct.Struct("!BHQ")  # type, len, timestamp
HB_HDR = struct.Struct("!BQ")  # type, timestamp
DATA_OVERHEAD = DATA_HDR.size  # 11
_LEN_TS = struct.Struct("!HQ")  # a Data header after its type byte


class PktInfo(NamedTuple):
    """Length-prefixed packet descriptor: timestamp in microseconds + raw bytes."""

    ts_us: int
    data: bytes


class Frame(NamedTuple):
    ftype: int
    ts_us: int = 0
    data: bytes = b""


def encode_pkt(pkt: PktInfo, max_pkt: int = DEFAULT_MAX_PKT) -> bytes:
    """One packet as a Data frame."""
    if len(pkt.data) > max_pkt:
        raise OversizePacket(f"{len(pkt.data)} > {max_pkt}")
    return DATA_HDR.pack(FRAME_DATA, len(pkt.data), pkt.ts_us) + pkt.data


# plaintext of a record carrying nothing but padding
PAD_RECORD = bytes([FRAME_PADDING]) + bytes(RECORD_LEN - 1)


class RecordPacker:
    """Accumulates encoded frames and emits exact 16384-byte plaintext records.

    A record is emitted exactly when 16384 bytes accumulate; frames straddle
    record boundaries freely. ``flush()`` pads any partial record with a
    Padding frame so the fixed-length invariant holds even at low rate.
    """

    def __init__(self, max_pkt: int = DEFAULT_MAX_PKT) -> None:
        self.max_pkt = max_pkt
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def pack(
        self,
        ctrl: Iterable[Frame],
        pop: Callable[[], tuple[int, bytes] | None] | None = None,
        max_records: int | None = None,
    ) -> tuple[list[bytes], int]:
        """Encode control frames, then packets from ``pop``, in one pass.

        ``ctrl`` holds heartbeat frames, encoded first. Packets are then
        taken from ``pop`` until it returns None or, with ``max_records``,
        up to the packet whose bytes (counted with those already pending)
        complete the ``max_records``-th record, as packing packet by packet
        would. Returns the completed records and the number of packets
        taken.
        """
        buf = self._buf
        for f in ctrl:
            buf += HB_HDR.pack(f.ftype, f.ts_us)
        count = 0
        if pop is not None:
            limit = sys.maxsize if max_records is None else max_records * RECORD_LEN
            max_pkt = self.max_pkt
            pack_hdr = DATA_HDR.pack
            while len(buf) < limit:
                pkt = pop()
                if pkt is None:
                    break
                ts_us, body = pkt
                n = len(body)
                if n > max_pkt:
                    raise OversizePacket(f"{n} > {max_pkt}")
                buf += pack_hdr(FRAME_DATA, n, ts_us)
                buf += body
                count += 1
        return (self._cut() if len(buf) >= RECORD_LEN else []), count

    def add(self, encoded: bytes) -> list[bytes]:
        buf = self._buf
        buf += encoded
        return self._cut() if len(buf) >= RECORD_LEN else []

    def _cut(self) -> list[bytes]:
        """Take every complete record off the front of the buffer."""
        buf = self._buf
        out = []
        pos = 0
        while len(buf) - pos >= RECORD_LEN:
            out.append(bytes(buf[pos : pos + RECORD_LEN]))
            pos += RECORD_LEN
        del buf[:pos]
        return out

    def flush(self) -> bytes | None:
        """Pad and emit the partial record, if any."""
        if not self._buf:
            return None
        self._buf.append(FRAME_PADDING)
        self._buf += bytes(RECORD_LEN - len(self._buf))
        rec = bytes(self._buf)
        self._buf.clear()
        return rec


class RecordParser:
    """Reconstructs the frame sequence from decrypted records, in order.

    Handles frames that straddle record boundaries by carrying the pending
    partial bytes into the next record. Padding frames are consumed
    silently. Raises ``MalformedFrame`` on unknown type bytes or Data
    lengths over the packet buffer size — corruption upstream of AEAD.

    A Data frame comes out as the ``PktInfo`` it was sent as, a control
    frame as a ``Frame``.
    """

    def __init__(self, max_pkt: int = DEFAULT_MAX_PKT):
        self.max_pkt = max_pkt
        self._pending = b""

    @property
    def pending_bytes(self) -> int:
        return len(self._pending)

    def feed(self, record: bytes) -> list:
        """The items of ``feed_pkts``, without the control-frame indices."""
        return self.feed_pkts(record)[0]

    def feed_pkts(self, record: bytes) -> tuple[list, list[int]]:
        """Parse one record into ``PktInfo``s for Data frames and ``Frame``s
        for control frames, in stream order.

        Returns ``(items, ctrl)``: ``ctrl`` lists the indices of the control
        frames in ``items`` (empty in the common case), so a caller can take
        the runs of packets between them as list slices.
        """
        # PktInfos are built with tuple.__new__, skipping the constructor
        data = bytes(record)  # no copy for bytes; every slice below is bytes
        if self._pending:
            data = self._pending + data
            self._pending = b""
        items: list = []
        ctrl: list[int] = []
        append = items.append
        new = tuple.__new__
        len_ts = _LEN_TS.unpack_from
        max_pkt = self.max_pkt
        pos = 0
        end = len(data)
        while pos < end:
            ftype = data[pos]
            if ftype == FRAME_DATA:
                body = pos + DATA_OVERHEAD
                if body > end:
                    self._pending = data[pos:]
                    break
                plen, ts = len_ts(data, pos + 1)
                if plen > max_pkt:
                    raise MalformedFrame(f"data length {plen} > {max_pkt}")
                body_end = body + plen
                if body_end > end:
                    self._pending = data[pos:]
                    break
                append(new(PktInfo, (ts, data[body:body_end])))
                pos = body_end
            elif ftype in (FRAME_HB_REQ, FRAME_HB_RESP):
                if pos + HB_HDR.size > end:
                    self._pending = data[pos:]
                    break
                _, ts = HB_HDR.unpack_from(data, pos)
                ctrl.append(len(items))
                append(Frame(ftype, ts))
                pos += HB_HDR.size
            elif ftype == FRAME_PADDING:
                # always the last frame in its record: remainder is filler
                break
            else:
                raise MalformedFrame(f"unknown frame type {ftype}")
        return items, ctrl


class RecordSealer:
    """Per-direction sealing context: AEAD key, 4-byte salt, send sequence.

    Nonce is salt || big-endian sequence; the sequence is implicit on the
    wire and advances by exactly one per record.
    """

    __slots__ = ("_aead", "_salt", "seq")

    def __init__(self, key: bytes, salt: bytes):
        if len(salt) != 4:
            raise ValueError("direction salt must be 4 bytes")
        self._aead = AESGCM(key)
        self._salt = salt
        self.seq = 0

    def seal(self, plaintext: bytes) -> bytes:
        if len(plaintext) != RECORD_LEN:
            raise ValueError(f"record plaintext must be {RECORD_LEN} bytes")
        nonce = self._salt + self.seq.to_bytes(8, "big")
        self.seq += 1
        return self._aead.encrypt(nonce, plaintext, None)


class RecordOpener:
    """Per-direction opening context holding the expected sequence counter."""

    __slots__ = ("_aead", "_salt", "expected_seq")

    def __init__(self, key: bytes, salt: bytes):
        if len(salt) != 4:
            raise ValueError("direction salt must be 4 bytes")
        self._aead = AESGCM(key)
        self._salt = salt
        self.expected_seq = 0

    def open(self, sealed: bytes) -> bytes:
        if len(sealed) != SEALED_RECORD_LEN:
            raise AuthFailure(f"sealed record must be {SEALED_RECORD_LEN} bytes, got {len(sealed)}")
        nonce = self._salt + self.expected_seq.to_bytes(8, "big")
        try:
            plaintext = self._aead.decrypt(nonce, sealed, None)
        except InvalidTag:
            raise AuthFailure(
                f"record integrity check failed at sequence {self.expected_seq}"
            ) from None
        self.expected_seq += 1
        return plaintext


class ChannelKeys(NamedTuple):
    """Key material for one channel: per-direction AEAD keys and salts.

    Directions are named from the gateway's point of view: ``g2e`` carries
    gateway-to-device records, ``e2g`` the reverse. Keys are injected via
    config or derived from a shared secret; no handshake is performed here.
    """

    g2e_key: bytes
    g2e_salt: bytes
    e2g_key: bytes
    e2g_salt: bytes

    @classmethod
    def from_secret(cls, secret: bytes) -> "ChannelKeys":
        import hashlib

        def kdf(label: bytes, n: int) -> bytes:
            return hashlib.blake2b(secret, digest_size=n, person=label).digest()

        return cls(
            g2e_key=kdf(b"g2e-key", 16),
            g2e_salt=kdf(b"g2e-salt", 4),
            e2g_key=kdf(b"e2g-key", 16),
            e2g_salt=kdf(b"e2g-salt", 4),
        )

    def gateway_sealer(self) -> RecordSealer:
        return RecordSealer(self.g2e_key, self.g2e_salt)

    def gateway_opener(self) -> RecordOpener:
        return RecordOpener(self.e2g_key, self.e2g_salt)

    def device_sealer(self) -> RecordSealer:
        return RecordSealer(self.e2g_key, self.e2g_salt)

    def device_opener(self) -> RecordOpener:
        return RecordOpener(self.g2e_key, self.g2e_salt)
