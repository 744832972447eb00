"""Host speed probe, to take the shared host's speed swings out of the timings.

On a shared VM the same code runs up to twice as fast for seconds at a
time, depending on what the host's other tenants do; a run's median then
depends on how much of it fell in a fast spell. The probe is a fixed piece
of work in the benchmark's own code, timed right before every burst and
around the set-up. Each timing is scaled by ``NOMINAL_S / probe time``: it
reads as it would on a host where the probe takes ``NOMINAL_S``, the
probe's typical time on the reference machine (see README.md). Raw timings
are printed next to the scaled ones.

The probe mixes interpreted packet building (about four fifths of its time)
with native byte work: AES-GCM over 16 KB records, substring scans and
copies (about a fifth). Interpreted and native code speed up by different
factors in a fast spell, and the workloads, like the probe, are mostly
interpreted with some native work, so the mix follows them better than
either part alone.
"""

from __future__ import annotations

import time

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from inputs import TCP_ACK, tcp_frame

NOMINAL_S = 0.00047
_PAYLOAD = bytes(range(256)) * 6
_LENS = [10 + (i * 37) % 1300 for i in range(150)]
_AEAD = AESGCM(bytes(16))
_NONCE = bytes(12)
_RECORD = bytes(range(256)) * 64
_HAYSTACK = bytes(range(253)) * 16
_NEEDLES = [bytes((0xFF, i, 0xFE)) for i in range(16)]
_SCRATCH = bytearray(65536)


def probe() -> float:
    """Seconds to build 150 fixed frames and do a fixed amount of byte work."""
    t0 = time.perf_counter()
    for i, n in enumerate(_LENS):
        tcp_frame(b"\x0a\x00\x00\x01", b"\xac\x10\x00\x01", 1000 + i, 80, i * 1000, TCP_ACK,
                  _PAYLOAD[:n])
    for _ in range(2):
        _AEAD.encrypt(_NONCE, _RECORD, None)
    for needle in _NEEDLES:
        _HAYSTACK.find(needle)
    view = memoryview(_SCRATCH)
    view[: len(_RECORD)] = _RECORD
    bytes(view[: 2 * len(_RECORD)])
    return time.perf_counter() - t0
