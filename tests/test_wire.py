import random

import pytest

from enclavetap.errors import AuthFailure, MalformedFrame, OversizePacket
from enclavetap.wire import (
    FRAME_DATA,
    FRAME_HB_REQ,
    FRAME_HB_RESP,
    FRAME_PADDING,
    RECORD_LEN,
    SEALED_RECORD_LEN,
    Frame,
    PktInfo,
    RecordPacker,
    RecordParser,
    frame_encode,
    pack_stream,
    parse_records,
)

from refmodels import pack_record_count


def rand_frame(rng: random.Random, max_pkt: int = 1500) -> Frame:
    t = rng.choice((FRAME_DATA, FRAME_DATA, FRAME_DATA, FRAME_HB_REQ, FRAME_HB_RESP))
    if t == FRAME_DATA:
        return Frame(FRAME_DATA, rng.getrandbits(60), rng.randbytes(rng.randint(0, max_pkt)))
    return Frame(t, rng.getrandbits(60))


# ------------------------------------------------------------------- frames

def test_data_frame_zero_case():
    enc = frame_encode(Frame(FRAME_DATA, 0, b""))
    assert enc == bytes(11)
    assert len(enc) == 11


def test_data_frame_full_mtu_overhead():
    enc = frame_encode(Frame(FRAME_DATA, 7, bytes(1500)))
    assert len(enc) == 1511


def test_data_frame_field_order():
    enc = frame_encode(Frame(FRAME_DATA, 0x1122334455667788, b"\xAB\xCD"))
    assert enc[0] == FRAME_DATA
    assert enc[1:3] == (2).to_bytes(2, "big")  # size first
    assert enc[3:11] == bytes.fromhex("1122334455667788")  # then timestamp
    assert enc[11:] == b"\xAB\xCD"  # then raw data


def test_oversize_packet_rejected():
    with pytest.raises(OversizePacket):
        frame_encode(Frame(FRAME_DATA, 0, bytes(1501)))


def test_heartbeat_frames_encode_9_bytes():
    for t in (FRAME_HB_REQ, FRAME_HB_RESP):
        assert len(frame_encode(Frame(t, 42))) == 9


def test_frame_round_trip_random(rng):
    frames = [rand_frame(rng) for _ in range(2000)]
    records = pack_stream(frames, flush=True)
    assert parse_records(records) == frames


# ------------------------------------------------------------------ packing

def test_pack_two_frames_one_padded_record():
    frames = [Frame(FRAME_DATA, 0, bytes(1000)), Frame(FRAME_DATA, 0, bytes(600))]
    records = pack_stream(frames, flush=True)
    assert len(records) == 1
    rec = records[0]
    assert len(rec) == RECORD_LEN
    assert rec[1622] == FRAME_PADDING  # 1011 + 611 frame bytes, then the marker
    assert rec[1623:] == bytes(RECORD_LEN - 1623)  # 14761 filler bytes
    assert len(rec) - 1622 - 1 == 14761


def test_pack_33_full_frames_four_records():
    frames = [Frame(FRAME_DATA, 0, bytes(1500))] * 33
    assert pack_record_count([1511] * 33, flush=True) == 4
    records = pack_stream(frames, flush=True)
    assert len(records) == 4
    assert all(len(r) == RECORD_LEN for r in records)
    # last record is padded; the first three are full of frame bytes
    assert parse_records(records) == frames


def test_pack_empty_input_no_records():
    assert pack_stream([], flush=True) == []


def test_pack_exact_record_boundary_no_padding_record():
    # 12 frames of 1354-byte payload encode to 12 * 1365 = 16380; add one
    # 1354+11? craft exact 16384: 16384 = 16 * 1024 -> frame of 1013 payload = 1024 enc
    frames = [Frame(FRAME_DATA, 0, bytes(1013))] * 16
    packer = RecordPacker()
    out = []
    for f in frames:
        out.extend(packer.add(frame_encode(f)))
    assert len(out) == 1
    assert packer.pending_bytes == 0
    assert packer.flush() is None


def test_record_count_matches_simulator(rng):
    for _ in range(50):
        frames = [rand_frame(rng) for _ in range(rng.randint(0, 60))]
        lens = [len(frame_encode(f)) for f in frames]
        records = pack_stream(frames, flush=True)
        assert len(records) == pack_record_count(lens, flush=True)


# ------------------------------------------------------------------ parsing

def test_parse_cross_record_split():
    # pre-fill record 1 with 16284 bytes of prior frames: 12 x (11 + 1346)
    prior = [Frame(FRAME_DATA, 0, bytes(1346))] * 12
    big = Frame(FRAME_DATA, 99, bytes(range(256)) * 5 + bytes(220))  # 1500-byte payload
    records = pack_stream(prior + [big], flush=True)
    assert len(records) == 2
    # the big frame is split 100 bytes / 1411 bytes across the two records
    parser = RecordParser()
    first = parser.feed(records[0])
    assert first == prior
    assert parser.pending_bytes == 100
    second = parser.feed(records[1])
    assert second == [big]


def test_parse_padding_only_record():
    rec = b"\x03" + bytes(RECORD_LEN - 1)
    assert RecordParser().feed(rec) == []


def test_parse_unknown_type_malformed():
    rec = b"\x07" + bytes(RECORD_LEN - 1)
    with pytest.raises(MalformedFrame):
        RecordParser().feed(rec)


def test_parse_oversize_len_malformed():
    body = bytes([FRAME_DATA]) + (1501).to_bytes(2, "big") + bytes(8)
    rec = body + b"\x03" + bytes(RECORD_LEN - len(body) - 1)
    with pytest.raises(MalformedFrame):
        RecordParser().feed(rec)


def _feed_pkts_as_frames(parser: RecordParser, record: bytes) -> list[Frame]:
    items, ctrl = parser.feed_pkts(record)
    assert [i for i, x in enumerate(items) if type(x) is Frame] == ctrl
    assert all(type(x) is PktInfo for i, x in enumerate(items) if i not in ctrl)
    return [x if i in ctrl else Frame(FRAME_DATA, x.ts_us, x.data) for i, x in enumerate(items)]


def test_parse_random_flush_points(rng):
    """Both entry points give the sent frames; feed_pkts as PktInfo for data."""
    for _ in range(30):
        parser = RecordParser()
        pkt_parser = RecordParser()
        packer = RecordPacker()
        sent = []
        got = []
        got_pkts = []
        for _ in range(rng.randint(1, 5)):
            chunk = [rand_frame(rng) for _ in range(rng.randint(0, 30))]
            sent.extend(chunk)
            records = []
            for f in chunk:
                records.extend(packer.add(frame_encode(f)))
            rec = packer.flush()
            if rec is not None:
                records.append(rec)
            for r in records:
                got.extend(parser.feed(r))
                got_pkts.extend(_feed_pkts_as_frames(pkt_parser, r))
        assert got == sent
        assert got_pkts == sent


# ------------------------------------------------------------------ sealing

def test_seal_constant_length(keys):
    sealer = keys.gateway_sealer()
    a = sealer.seal(bytes(RECORD_LEN))
    b = sealer.seal(bytes([1]) * RECORD_LEN)
    assert len(a) == len(b) == SEALED_RECORD_LEN


def test_seal_same_plaintext_differs(keys):
    sealer = keys.gateway_sealer()
    assert sealer.seal(bytes(RECORD_LEN)) != sealer.seal(bytes(RECORD_LEN))


def test_seal_open_round_trip(keys, rng):
    sealer = keys.gateway_sealer()
    opener = keys.device_opener()
    for _ in range(20):
        pt = rng.randbytes(RECORD_LEN)
        assert opener.open(sealer.seal(pt)) == pt


def test_seal_requires_exact_length(keys):
    with pytest.raises(ValueError):
        keys.gateway_sealer().seal(bytes(100))


def test_open_single_bit_flip_fails(keys, rng):
    sealer = keys.gateway_sealer()
    for _ in range(20):
        opener = keys.device_opener()
        sealed = bytearray(sealer.seal(rng.randbytes(RECORD_LEN)))
        # fresh opener expects sequence 0; re-seal with a fresh sealer
        sealer = keys.gateway_sealer()
        sealed = bytearray(sealer.seal(rng.randbytes(RECORD_LEN)))
        pos = rng.randrange(len(sealed) * 8)
        sealed[pos // 8] ^= 1 << (pos % 8)
        with pytest.raises(AuthFailure):
            opener.open(bytes(sealed))


def test_open_replay_fails(keys, rng):
    sealer = keys.gateway_sealer()
    opener = keys.device_opener()
    r0 = sealer.seal(rng.randbytes(RECORD_LEN))
    r1 = sealer.seal(rng.randbytes(RECORD_LEN))
    opener.open(r0)
    opener.open(r1)
    with pytest.raises(AuthFailure):
        opener.open(r0)


def test_open_drop_fails(keys, rng):
    sealer = keys.gateway_sealer()
    opener = keys.device_opener()
    _dropped = sealer.seal(rng.randbytes(RECORD_LEN))
    r1 = sealer.seal(rng.randbytes(RECORD_LEN))
    with pytest.raises(AuthFailure):
        opener.open(r1)


def test_open_reorder_fails(keys, rng):
    sealer = keys.gateway_sealer()
    opener = keys.device_opener()
    r0 = sealer.seal(rng.randbytes(RECORD_LEN))
    r1 = sealer.seal(rng.randbytes(RECORD_LEN))
    with pytest.raises(AuthFailure):
        opener.open(r1)
    del r0


def test_directions_use_distinct_keys(keys):
    g = keys.gateway_sealer()
    sealed = g.seal(bytes(RECORD_LEN))
    wrong_direction = keys.gateway_opener()  # expects device-to-gateway traffic
    with pytest.raises(AuthFailure):
        wrong_direction.open(sealed)


def test_sequence_increments_by_one_per_record(keys, rng):
    sealer = keys.gateway_sealer()
    opener = keys.device_opener()
    for i in range(5):
        assert sealer.seq == i
        opener.open(sealer.seal(rng.randbytes(RECORD_LEN)))
        assert opener.expected_seq == i + 1


def test_full_round_trip_identity(keys, rng):
    """pack -> seal -> open -> parse is byte-exact, cross-record splits included."""
    frames = [rand_frame(rng) for _ in range(300)]
    sealer = keys.gateway_sealer()
    opener = keys.device_opener()
    records = pack_stream(frames, flush=True)
    out = parse_records(opener.open(sealer.seal(r)) for r in records)
    assert out == frames
