from enclavetap.boundary import BoundaryConfig, MemoryEnv
from enclavetap.gateway import fragment
from enclavetap.nf import FlowMeter
from enclavetap.packets import (
    PROTO_TCP,
    PROTO_UDP,
    TCP_FIN,
    FlowId,
    canonical_fid,
    ip_checksum,
    make_tcp_frame,
    make_udp_frame,
    parse_packet,
)
from enclavetap.statemgmt import StateManager
from enclavetap.wire import PktInfo

A = bytes([10, 0, 0, 1])
B = bytes([10, 0, 0, 2])


def test_flowid_pack_unpack():
    fid = FlowId(A, B, 1234, 80, PROTO_TCP)
    packed = fid.pack()
    assert len(packed) == 13
    assert FlowId.unpack(packed) == fid


def test_canonical_fid_symmetric():
    fwd = FlowId(A, B, 1234, 80, PROTO_TCP).pack()
    rev = FlowId(B, A, 80, 1234, PROTO_TCP).pack()
    cf, f_flip = canonical_fid(fwd)
    cr, r_flip = canonical_fid(rev)
    assert cf == cr
    assert f_flip != r_flip


def test_canonical_fid_orders_by_endpoint_not_ip():
    # same ip both sides: port decides
    fwd = FlowId(A, A, 9999, 80, PROTO_UDP).pack()
    c, flipped = canonical_fid(fwd)
    got = FlowId.unpack(c)
    assert got.src_port == 80
    assert flipped


def test_parse_tcp_frame():
    frame = make_tcp_frame(A, B, 1234, 80, b"hello", seq=777, flags=TCP_FIN)
    pp = parse_packet(frame)
    assert pp is not None
    assert pp.proto == PROTO_TCP
    assert pp.tcp_seq == 777
    assert pp.tcp_flags == TCP_FIN
    assert frame[pp.payload_off : pp.payload_off + pp.payload_len] == b"hello"
    assert pp.total_len == 20 + 20 + 5


def test_parse_udp_frame():
    frame = make_udp_frame(A, B, 53, 53, b"abc")
    pp = parse_packet(frame)
    assert pp.proto == PROTO_UDP
    assert pp.payload_len == 3
    assert frame[pp.payload_off :] == b"abc"


def test_parse_both_directions_same_fid():
    f1 = make_tcp_frame(A, B, 1234, 80, b"x")
    f2 = make_tcp_frame(B, A, 80, 1234, b"y")
    p1, p2 = parse_packet(f1), parse_packet(f2)
    assert p1.fid == p2.fid
    assert p1.flipped != p2.flipped


def test_parse_rejects_non_ip():
    assert parse_packet(b"\x00" * 60) is None
    assert parse_packet(b"") is None


def test_built_ip_header_checksums_to_zero():
    frame = make_tcp_frame(A, B, 1, 2, b"payload")
    assert ip_checksum(frame[14:34]) == 0
    frame = make_udp_frame(A, B, 1, 2, b"payload")
    assert ip_checksum(frame[14:34]) == 0


def test_parse_only_first_fragment():
    payload = bytes(range(256)) * 12  # 3072 B: three fragments at 1500
    frags = fragment(make_tcp_frame(A, B, 1234, 80, payload, flags=TCP_FIN), 1500)
    assert len(frags) == 3
    first = parse_packet(frags[0])
    assert first is not None
    assert first.fid == parse_packet(make_tcp_frame(A, B, 1234, 80)).fid
    assert first.tcp_flags == TCP_FIN
    assert [parse_packet(f) for f in frags[1:]] == [None, None]

    env = MemoryEnv(BoundaryConfig(trusted_capacity_bytes=1 << 20, untrusted_capacity_bytes=1 << 20))
    meter = FlowMeter(StateManager(4, 64, env=env, seed=1))
    for i, f in enumerate(frags[1:]):
        meter.process(PktInfo(i, f))
    assert meter.parse_failures == 2
    assert meter.events == []
    assert meter.state.tracked_flows == 0
