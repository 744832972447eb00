import threading
import time

import pytest

from enclavetap.channel import loopback_pair
from enclavetap.errors import ChannelClosed


def test_recv_exact_whole_chunk_returned_as_is():
    a, b = loopback_pair()
    data = bytes(range(256)) * 4
    a.send(data)
    assert b.recv_exact(len(data)) is data


def test_recv_exact_chunk_split_across_calls():
    a, b = loopback_pair()
    data = bytes(range(250))
    a.send(data)
    assert b.recv_exact(100) == data[:100]
    assert b.recv_exact(1) == data[100:101]
    assert b.recv_exact(149) == data[101:]
    a.close()
    with pytest.raises(ChannelClosed):
        b.recv_exact(1)


def test_recv_exact_spans_chunks():
    a, b = loopback_pair()
    chunks = [bytes([i]) * size for i, size in enumerate([50, 70, 30, 10])]
    for c in chunks:
        a.send(c)
    stream = b"".join(chunks)
    assert b.recv_exact(20) == stream[:20]
    assert b.recv_exact(120) == stream[20:140]  # rest of 1st, all of 2nd, part of 3rd
    assert b.recv_exact(20) == stream[140:]  # rest of 3rd and the 4th
    assert b.recv_exact(0) == b""


def test_sent_bytearray_mutated_afterwards_is_not_seen():
    a, b = loopback_pair()
    buf = bytearray(b"abcdef")
    a.send(buf)
    buf[0] = 0
    buf += b"zz"
    got = b.recv_exact(6)
    assert got == b"abcdef"
    assert type(got) is bytes


def test_recv_exact_waits_for_data_from_another_thread():
    a, b = loopback_pair(delay_s=0.01)
    t = threading.Thread(target=lambda: (time.sleep(0.02), a.send(b"x" * 10), a.send(b"y" * 10)))
    t.start()
    assert b.recv_exact(15) == b"x" * 10 + b"y" * 5
    assert b.recv_exact(5) == b"y" * 5
    t.join(5)
    assert not t.is_alive()
