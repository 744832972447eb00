"""enclavetap: metadata-hiding packet tunnel + constrained flow-state management.

The tunnel moves packets between a gateway and a simulated-enclave virtual
NIC as fixed-size sealed records, so an on-path observer learns nothing
about packet sizes, counts, boundaries, or timing. The state layer keeps a
bounded plaintext cache of flow states on the trusted side of a simulated
memory boundary and seals everything else into untrusted memory with
freshness protection.
"""

from .boundary import ArenaKind, BoundaryConfig, CrossingStats, MemoryEnv, Region
from .channel import LoopbackEndpoint, SocketChannel, loopback_pair
from .errors import (
    AuthFailure,
    CapacityExhausted,
    ChannelClosed,
    DeviceShutdown,
    EnclaveTapError,
    MalformedFrame,
    MalformedPcap,
    MemoryViolation,
    OversizePacket,
    TruncatedPacket,
    Unfragmentable,
)
from .etap import EtapConfig, EtapDevice, TrustedClock, rss_select
from .gateway import (
    Gateway,
    GatewayConfig,
    GatewayStats,
    SyntheticConfig,
    SyntheticSource,
    fragment,
    read_pcap,
    write_pcap,
)
from .nf import Echo, FlowMeter, BufferedIds, NfRunner, PatternSet, pcap_compat_loop, pcap_compat_next
from .packets import FlowId, canonical_fid, parse_packet
from .ring import MutexRing, NaiveLamportRing, PktRing, SpinLockRing
from .statemgmt import StateManager, footprint_bytes, open_state, seal_state
from .wire import (
    ChannelKeys,
    Frame,
    PktInfo,
    RecordOpener,
    RecordPacker,
    RecordParser,
    RecordSealer,
)

__version__ = "0.1.0"
