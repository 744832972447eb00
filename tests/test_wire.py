import random
from functools import partial

import pytest

from enclavetap.errors import AuthFailure, MalformedFrame, OversizePacket
from enclavetap.wire import (
    FRAME_DATA,
    FRAME_HB_REQ,
    FRAME_HB_RESP,
    FRAME_PADDING,
    PAD_RECORD,
    RECORD_LEN,
    SEALED_RECORD_LEN,
    Frame,
    PktInfo,
    RecordPacker,
    RecordParser,
    encode_pkt,
)

from refmodels import pack_record_count, ref_encode, ref_records


def rand_item(rng: random.Random, max_pkt: int = 1500):
    """A Data frame as the PktInfo it carries, or a heartbeat Frame."""
    t = rng.choice((FRAME_DATA, FRAME_DATA, FRAME_DATA, FRAME_HB_REQ, FRAME_HB_RESP))
    if t == FRAME_DATA:
        return PktInfo(rng.getrandbits(60), rng.randbytes(rng.randint(0, max_pkt)))
    return Frame(t, rng.getrandbits(60))


def popper(pkts):
    """A ring-style pop over ``pkts``: the next one, then None."""
    return partial(next, iter(pkts), None)


def pack_flushed(pack_items, items) -> list[bytes]:
    packer = RecordPacker()
    records = pack_items(packer, items)
    rec = packer.flush()
    return records + [rec] if rec is not None else records


def parse_all(records) -> list:
    parser = RecordParser()
    return [x for r in records for x in parser.feed(r)]


# ------------------------------------------------------------------- frames

def test_data_frame_zero_case():
    enc = encode_pkt(PktInfo(0, b""))
    assert enc == bytes(11)
    assert len(enc) == 11


def test_data_frame_full_mtu_overhead():
    enc = encode_pkt(PktInfo(7, bytes(1500)))
    assert len(enc) == 1511


def test_data_frame_field_order():
    enc = encode_pkt(PktInfo(0x1122334455667788, b"\xAB\xCD"))
    assert enc[0] == FRAME_DATA
    assert enc[1:3] == (2).to_bytes(2, "big")  # size first
    assert enc[3:11] == bytes.fromhex("1122334455667788")  # then timestamp
    assert enc[11:] == b"\xAB\xCD"  # then raw data


def test_oversize_packet_rejected():
    with pytest.raises(OversizePacket):
        encode_pkt(PktInfo(0, bytes(1501)))
    with pytest.raises(OversizePacket):
        RecordPacker().pack((), popper([PktInfo(0, bytes(1501))]))
    # the packer's own limit replaces the default
    with pytest.raises(OversizePacket):
        RecordPacker(100).pack((), popper([PktInfo(0, bytes(101))]))


def test_heartbeat_frames_encode_9_bytes():
    for t in (FRAME_HB_REQ, FRAME_HB_RESP):
        packer = RecordPacker()
        assert packer.pack([Frame(t, 42)]) == ([], 0)
        assert packer.pending_bytes == 9
        assert packer.flush()[:10] == bytes([t]) + (42).to_bytes(8, "big") + bytes([FRAME_PADDING])


def test_frame_round_trip_random(rng, pack_items):
    items = [rand_item(rng) for _ in range(2000)]
    records = pack_flushed(pack_items, items)
    assert parse_all(records) == items


def test_pack_matches_reference_encoder(rng, pack_items):
    """The one encoding pass gives the bytes of the format description,
    control frames and packets interleaved, records cut mid-frame."""
    for _ in range(30):
        items = [rand_item(rng) for _ in range(rng.randint(0, 80))]
        assert pack_flushed(pack_items, items) == ref_records(items)


# ------------------------------------------------------------------ packing

def test_pad_record_is_one_padding_frame():
    assert PAD_RECORD == bytes([FRAME_PADDING]) + bytes(RECORD_LEN - 1)
    assert RecordParser().feed(PAD_RECORD) == []


def test_pack_two_frames_one_padded_record(pack_items):
    items = [PktInfo(0, bytes(1000)), PktInfo(0, bytes(600))]
    records = pack_flushed(pack_items, items)
    assert len(records) == 1
    rec = records[0]
    assert len(rec) == RECORD_LEN
    assert rec[1622] == FRAME_PADDING  # 1011 + 611 frame bytes, then the marker
    assert rec[1623:] == bytes(RECORD_LEN - 1623)  # 14761 filler bytes
    assert len(rec) - 1622 - 1 == 14761


def test_pack_33_full_frames_four_records(pack_items):
    items = [PktInfo(0, bytes(1500))] * 33
    assert pack_record_count([1511] * 33, flush=True) == 4
    records = pack_flushed(pack_items, items)
    assert len(records) == 4
    assert all(len(r) == RECORD_LEN for r in records)
    # last record is padded; the first three are full of frame bytes
    assert parse_all(records) == items


def test_pack_empty_input_no_records():
    packer = RecordPacker()
    assert packer.pack(()) == ([], 0)
    assert packer.pack((), popper([])) == ([], 0)
    assert packer.flush() is None


def test_pack_exact_record_boundary_no_padding_record():
    # 16384 = 16 * 1024: a 1013-byte payload encodes to 1024 bytes
    packer = RecordPacker()
    out, taken = packer.pack((), popper([PktInfo(0, bytes(1013))] * 16))
    assert (len(out), taken) == (1, 16)
    assert packer.pending_bytes == 0
    assert packer.flush() is None


def test_pack_stops_at_packet_completing_max_records():
    """Pending bytes and control frames count toward ``max_records``; the
    packet that completes the last record is the last one taken."""
    packer = RecordPacker()
    packer.add(bytes(1024 - 9))  # pending, with one heartbeat: one packet's worth
    pkts = iter([PktInfo(0, bytes(1013))] * 40)
    out, taken = packer.pack([Frame(FRAME_HB_REQ, 1)], partial(next, pkts, None), max_records=2)
    assert (len(out), taken) == (2, 31)
    assert packer.pending_bytes == 0
    assert len(list(pkts)) == 9
    # an unfinished record does not stop the pass early
    out, taken = packer.pack((), popper([PktInfo(0, bytes(1013))] * 3), max_records=1)
    assert (out, taken) == ([], 3)


def test_record_count_matches_simulator(rng, pack_items):
    for _ in range(50):
        items = [rand_item(rng) for _ in range(rng.randint(0, 60))]
        lens = [len(ref_encode(x)) for x in items]
        records = pack_flushed(pack_items, items)
        assert len(records) == pack_record_count(lens, flush=True)


# ------------------------------------------------------------------ parsing

def test_parse_cross_record_split(pack_items):
    # pre-fill record 1 with 16284 bytes of prior frames: 12 x (11 + 1346)
    prior = [PktInfo(0, bytes(1346))] * 12
    big = PktInfo(99, bytes(range(256)) * 5 + bytes(220))  # 1500-byte payload
    records = pack_flushed(pack_items, prior + [big])
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


def test_parse_random_flush_points(rng):
    """Both entry points give the sent items: PktInfo for data, Frame for
    control, with feed_pkts listing where the control frames are."""
    for _ in range(30):
        parser = RecordParser()
        pkt_parser = RecordParser()
        sent = []
        got = []
        got_pkts = []
        for _ in range(rng.randint(1, 5)):
            chunk = [rand_item(rng) for _ in range(rng.randint(0, 30))]
            sent.extend(chunk)
            for r in ref_records(chunk):
                got.extend(parser.feed(r))
                items, ctrl = pkt_parser.feed_pkts(r)
                assert [i for i, x in enumerate(items) if type(x) is Frame] == ctrl
                assert all(type(x) is PktInfo for i, x in enumerate(items) if i not in ctrl)
                got_pkts.extend(items)
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


def test_full_round_trip_identity(keys, rng, pack_items):
    """pack -> seal -> open -> parse is byte-exact, cross-record splits included."""
    items = [rand_item(rng) for _ in range(300)]
    sealer = keys.gateway_sealer()
    opener = keys.device_opener()
    records = pack_flushed(pack_items, items)
    assert parse_all(opener.open(sealer.seal(r)) for r in records) == items
