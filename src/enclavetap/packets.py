"""Ethernet/IPv4/TCP/UDP header construction and parsing.

Only the fields the flow layer cares about are parsed: the 5-tuple, TCP
flags/sequence, and the L4 payload span. Checksums are produced on build
but not verified on parse.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

ETH_LEN = 14
ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6
PROTO_UDP = 17

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_ACK = 0x10

_IP_FIXED = struct.Struct("!BBHHHBBH4s4s")
_TCP_FIXED = struct.Struct("!HHIIBBHHH")
_UDP_FIXED = struct.Struct("!HHHH")


class FlowId(NamedTuple):
    """The conventional 5-tuple; packs to exactly 13 bytes."""

    src_ip: bytes  # 4 bytes
    dst_ip: bytes  # 4 bytes
    src_port: int
    dst_port: int
    proto: int

    def pack(self) -> bytes:
        return (
            self.src_ip
            + self.dst_ip
            + self.src_port.to_bytes(2, "big")
            + self.dst_port.to_bytes(2, "big")
            + bytes((self.proto,))
        )

    @classmethod
    def unpack(cls, fid: bytes) -> "FlowId":
        if len(fid) != 13:
            raise ValueError("flow id must be 13 bytes")
        return cls(
            fid[0:4],
            fid[4:8],
            int.from_bytes(fid[8:10], "big"),
            int.from_bytes(fid[10:12], "big"),
            fid[12],
        )

    def reversed(self) -> "FlowId":
        return FlowId(self.dst_ip, self.src_ip, self.dst_port, self.src_port, self.proto)


def canonical_fid(fid: bytes) -> tuple[bytes, bool]:
    """Normalize a 13-byte flow id so both directions map to one key.

    The lexicographically smaller (ip, port) endpoint goes first; returns
    (canonical bytes, flipped) where flipped is True when the input was in
    responder-to-initiator order. The common case (ips differ) resolves on
    one slice comparison.
    """
    a = fid[0:4]
    b = fid[4:8]
    if a < b:
        return fid, False
    if a == b and fid[8:10] <= fid[10:12]:
        return fid, False
    return b + a + fid[10:12] + fid[8:10] + fid[12:13], True


class ParsedPacket(NamedTuple):
    fid: bytes  # canonical 13-byte flow id
    flipped: bool
    proto: int
    total_len: int  # IP total length
    tcp_flags: int  # 0 for UDP
    tcp_seq: int  # 0 for UDP
    payload_off: int  # offset of L4 payload in the frame
    payload_len: int


def parse_packet(frame: bytes) -> ParsedPacket | None:
    """Parse an Ethernet/IPv4/{TCP,UDP} frame; None when not parseable.

    Only an unfragmented packet or the first fragment of one has an L4
    header; a fragment at a non-zero offset is not parseable.
    """
    if len(frame) < ETH_LEN + 20:
        return None
    if frame[12] != 0x08 or frame[13] != 0x00:
        return None
    vihl = frame[ETH_LEN]
    if vihl >> 4 != 4:
        return None
    ihl = (vihl & 0x0F) * 4
    ip_off = ETH_LEN
    l4_off = ip_off + ihl
    if len(frame) < l4_off:
        return None
    if (frame[ip_off + 6] & 0x1F) or frame[ip_off + 7]:
        return None  # a non-first fragment carries no L4 header
    total_len = (frame[ip_off + 2] << 8) | frame[ip_off + 3]
    proto = frame[ip_off + 9]
    src_ip = frame[ip_off + 12 : ip_off + 16]
    dst_ip = frame[ip_off + 16 : ip_off + 20]
    if proto == PROTO_TCP:
        if len(frame) < l4_off + 20:
            return None
        sport, dport, seq, _ack, doff_rsv, flags, _win, _ck, _urg = _TCP_FIXED.unpack_from(
            frame, l4_off
        )
        data_off = (doff_rsv >> 4) * 4
        payload_off = l4_off + data_off
        payload_len = ip_off + total_len - payload_off
    elif proto == PROTO_UDP:
        if len(frame) < l4_off + 8:
            return None
        sport, dport, _ulen, _ck = _UDP_FIXED.unpack_from(frame, l4_off)
        seq = 0
        flags = 0
        payload_off = l4_off + 8
        payload_len = ip_off + total_len - payload_off
    else:
        return None
    if payload_len < 0 or payload_off + payload_len > len(frame):
        payload_len = max(0, len(frame) - payload_off)
    raw_fid = (
        src_ip + dst_ip + sport.to_bytes(2, "big") + dport.to_bytes(2, "big") + bytes((proto,))
    )
    fid, flipped = canonical_fid(raw_fid)
    return ParsedPacket(fid, flipped, proto, total_len, flags, seq, payload_off, payload_len)


def ip_checksum(header: bytes) -> int:
    if len(header) & 1:
        header += b"\x00"
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def build_ipv4(
    src_ip: bytes,
    dst_ip: bytes,
    proto: int,
    payload: bytes,
    ident: int = 0,
    flags: int = 0,
    frag_offset: int = 0,
    ttl: int = 64,
) -> bytes:
    total_len = 20 + len(payload)
    hdr = _IP_FIXED.pack(
        0x45, 0, total_len, ident, (flags << 13) | frag_offset, ttl, proto, 0, src_ip, dst_ip
    )
    ck = ip_checksum(hdr)
    hdr = hdr[:10] + ck.to_bytes(2, "big") + hdr[12:]
    return hdr + payload


def build_tcp(
    sport: int, dport: int, seq: int, payload: bytes, flags: int = TCP_ACK, ack: int = 0
) -> bytes:
    return _TCP_FIXED.pack(sport, dport, seq, ack, 5 << 4, flags, 65535, 0, 0) + payload


def build_udp(sport: int, dport: int, payload: bytes) -> bytes:
    return _UDP_FIXED.pack(sport, dport, 8 + len(payload), 0) + payload


def build_eth(payload: bytes, src_mac: bytes = b"\x02" * 6, dst_mac: bytes = b"\x04" * 6) -> bytes:
    return dst_mac + src_mac + ETHERTYPE_IPV4.to_bytes(2, "big") + payload


def make_tcp_frame(
    src_ip: bytes,
    dst_ip: bytes,
    sport: int,
    dport: int,
    payload: bytes = b"",
    seq: int = 0,
    flags: int = TCP_ACK,
    ident: int = 0,
) -> bytes:
    return build_eth(
        build_ipv4(src_ip, dst_ip, PROTO_TCP, build_tcp(sport, dport, seq, payload, flags), ident)
    )


def make_udp_frame(
    src_ip: bytes, dst_ip: bytes, sport: int, dport: int, payload: bytes = b"", ident: int = 0
) -> bytes:
    return build_eth(build_ipv4(src_ip, dst_ip, PROTO_UDP, build_udp(sport, dport, payload), ident))
