import random
from functools import partial
from itertools import groupby

import pytest

from enclavetap.boundary import BoundaryConfig, MemoryEnv
from enclavetap.wire import ChannelKeys, Frame


@pytest.fixture
def env() -> MemoryEnv:
    # small arenas keep per-test memory low; defaults are exercised elsewhere
    return MemoryEnv(BoundaryConfig(trusted_capacity_bytes=8 << 20, untrusted_capacity_bytes=64 << 20))


@pytest.fixture
def keys() -> ChannelKeys:
    return ChannelKeys.from_secret(b"test-secret")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xE7A9)


@pytest.fixture
def pack_items():
    """Pack an interleaved stream of ``PktInfo``s and control ``Frame``s
    through ``RecordPacker.pack``, one call per run of either kind."""

    def pack(packer, items) -> list[bytes]:
        records = []
        for is_ctrl, run in groupby(items, key=lambda x: type(x) is Frame):
            if is_ctrl:
                records += packer.pack(list(run))[0]
            else:
                records += packer.pack((), partial(next, run, None))[0]
        return records

    return pack


def rand_fid(rng: random.Random) -> bytes:
    return rng.randbytes(13)
