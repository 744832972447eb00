"""The enclave-side virtual NIC.

The core driver runs two threads. The RX thread performs one boundary
crossing to pull a full batch of sealed records into an untrusted batch
buffer, validates that the buffer really lies outside trusted space, then
opens and parses the records entirely on the trusted side, pushing packets
onto the receive ring(s). The TX thread reverses the steps: it drains the
transmit ring, packs packets into fixed-size records, seals them, and
crosses once per batch to hand them to the channel.

Both directions work on runs of packets rather than one packet at a time.
On receive, the parser builds each packet once, as the ``PktInfo`` that
goes on the ring; the packets of a record between control frames form a
run, the clock advances once per run to its latest timestamp (any control
frame closes the run, so a new round-trip estimate from a heartbeat
response applies from the packet after it, and the clock ends where
per-packet updates would put it), and the run goes onto the ring with one
``push_many``. A full ring still blocks rather than drops. With several
receive rings each packet picks its ring by address-pair hash. On transmit,
``RecordPacker.pack``, the gateway's encoder too, takes packets from the
ring's ``pop`` up to the one that completes the batch's last record, so
the records sent and the packets left on the ring are those of packing
packet by packet.

The poll driver (``read_pkt`` / ``write_pkt``) is called from middlebox
threads. Blocking mode spins (yielding the interpreter between probes)
because leaving the trusted side to sleep would be far more expensive than
a short spin.

The device also maintains a trusted clock fed exclusively by tunneled
packet timestamps and heartbeat round-trip estimates, and emulates
receive-side scaling by hashing the IPv4 address pair and protocol, which
every fragment of a packet carries, so every flow (both directions) and
every fragment of its packets land on one ring, in order.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from operator import itemgetter

from .boundary import ArenaKind, MemoryEnv, Region
from .errors import (
    AuthFailure,
    ChannelClosed,
    DeviceShutdown,
    EnclaveTapError,
    MalformedFrame,
    MemoryViolation,
    OversizePacket,
)
from .packets import ETH_LEN
from .ring import RING_VARIANTS
from .wire import (
    FRAME_HB_REQ,
    FRAME_HB_RESP,
    SEALED_RECORD_LEN,
    ChannelKeys,
    Frame,
    PktInfo,
    RecordPacker,
    RecordParser,
)

_ts_of = itemgetter(0)  # PktInfo.ts_us


def mono_us() -> int:
    return time.monotonic_ns() // 1000


class TrustedClock:
    """Monotonic microsecond clock driven by tunneled timestamps.

    Every received packet advances the clock to packet-time + configured
    offset + half the latest round-trip estimate; values that would move
    the clock backwards are clamped so readers always see non-decreasing
    time. Written by the RX thread only; read from any thread.
    """

    __slots__ = ("now_us", "t_off_us", "t_rtd_us")

    def __init__(self, t_off_us: int = 0, t_rtd_us: int = 0):
        self.now_us = 0
        self.t_off_us = t_off_us
        self.t_rtd_us = t_rtd_us

    def update_from_packet(self, pkt_ts_us: int) -> None:
        v = pkt_ts_us + self.t_off_us + self.t_rtd_us // 2
        if v > self.now_us:
            self.now_us = v

    def observe_rtt(self, rtt_us: int) -> None:
        self.t_rtd_us = rtt_us

    def now(self) -> int:
        return self.now_us


def rss_select(frame: bytes, num_rings: int) -> int:
    """Deterministic, direction-symmetric ring choice for an Ethernet frame.

    Hashes the IPv4 address pair (in sorted order) and the protocol, not the
    ports: non-first fragments carry no ports, and this way every fragment
    of a packet goes where its flow's other packets go. Frames that are not
    IPv4 go to ring 0.
    """
    if (
        num_rings <= 1
        or len(frame) < ETH_LEN + 20
        or frame[12] != 0x08
        or frame[13] != 0x00
        or frame[ETH_LEN] >> 4 != 4
    ):
        return 0
    a = frame[ETH_LEN + 12 : ETH_LEN + 16]
    b = frame[ETH_LEN + 16 : ETH_LEN + 20]
    if b < a:
        a, b = b, a
    return zlib.crc32(a + b + frame[ETH_LEN + 9 : ETH_LEN + 10]) % num_rings


@dataclass
class EtapConfig:
    ring_size: int = 256
    batch_size: int = 10
    num_rx_rings: int = 1
    heartbeat_period_ms: int = 1000
    idle_flush_ms: int = 5
    t_off_us: int = 0
    max_pkt: int = 1500
    ring_variant: str = "lockfree"


@dataclass
class EtapStats:
    pkts_rx: int = 0
    pkts_tx: int = 0
    records_rx: int = 0
    records_tx: int = 0
    heartbeats_sent: int = 0
    heartbeats_answered: int = 0


class EtapDevice:
    """Virtual NIC bridging the sealed record channel and the packet rings."""

    def __init__(
        self,
        channel,
        keys: ChannelKeys,
        env: MemoryEnv | None = None,
        config: EtapConfig | None = None,
    ):
        self.config = config or EtapConfig()
        self.env = env or MemoryEnv()
        self.channel = channel
        cfg = self.config
        ring_cls = RING_VARIANTS[cfg.ring_variant]
        self.rx_rings = [ring_cls(cfg.ring_size) for _ in range(cfg.num_rx_rings)]
        self.tx_ring = ring_cls(cfg.ring_size)
        self.clock = TrustedClock(t_off_us=cfg.t_off_us)
        self.stats = EtapStats()

        self._opener = keys.device_opener()
        self._sealer = keys.device_sealer()
        self._parser = RecordParser(cfg.max_pkt)
        self._packer = RecordPacker(cfg.max_pkt)

        batch_bytes = cfg.batch_size * SEALED_RECORD_LEN
        self._rx_batch: Region = self.env.alloc(ArenaKind.UNTRUSTED, batch_bytes)
        self._tx_batch: Region = self.env.alloc(ArenaKind.UNTRUSTED, batch_bytes)
        self._tx_batch_view = self.env.view(self._tx_batch)

        self._ctrl: deque[Frame] = deque()  # control frames awaiting transmit
        self._shutdown = False
        self.shutdown_reason: str | None = None
        self._threads: list[threading.Thread] = []
        self._last_hb_tx_us = 0
        self._last_tx_add_us = 0
        self._tx_writer_ident: int | None = None

    # ------------------------------------------------------------------ core driver

    def rx_loop_iteration(self) -> int:
        """One RX crossing: pull a full batch, verify, open, parse, deliver.

        Returns the number of packets pushed to receive rings. Raises
        ``ChannelClosed`` when the peer goes away; integrity or memory
        failures shut the device down and re-raise.
        """
        cfg = self.config
        want = cfg.batch_size * SEALED_RECORD_LEN
        data = self.channel.recv_exact(want)  # untrusted side fills the batch buffer
        self.env.store(self._rx_batch, data)
        self.env.crossing(True, want)
        try:
            self.env.check_memory(self._rx_batch)
        except MemoryViolation as exc:
            self.shutdown(f"memory violation: {exc}")
            raise
        delivered = 0
        feed_pkts = self._parser.feed_pkts
        for i in range(cfg.batch_size):
            sealed = data[i * SEALED_RECORD_LEN : (i + 1) * SEALED_RECORD_LEN]
            try:
                items, ctrl = feed_pkts(self._opener.open(sealed))
            except (AuthFailure, MalformedFrame) as exc:
                self.shutdown(f"record check failed: {exc}")
                raise
            self.stats.records_rx += 1
            # Runs end at every control frame, so a heartbeat response
            # changes the round-trip estimate from the packet after it.
            start = 0
            for at in ctrl:
                if at > start:
                    delivered += self._deliver_run(items[start:at])
                start = at + 1
                frame = items[at]
                if frame.ftype == FRAME_HB_REQ:
                    self._ctrl.append(Frame(FRAME_HB_RESP, frame.ts_us))
                    self.stats.heartbeats_answered += 1
                else:
                    self.clock.observe_rtt(mono_us() - frame.ts_us)
            if start < len(items):
                delivered += self._deliver_run(items[start:] if start else items)
        self.stats.pkts_rx += delivered
        return delivered

    def _deliver_run(self, run: list[PktInfo]) -> int:
        # The clock moves before any packet of the run becomes visible, so
        # every packet a reader pops has already advanced it.
        self.clock.update_from_packet(max(map(_ts_of, run)))
        num_rings = self.config.num_rx_rings
        if num_rings == 1:
            self._spin_push_many(self.rx_rings[0], run)
        else:
            rings = self.rx_rings
            for pkt in run:
                ring = rings[rss_select(pkt.data, num_rings)]
                self._spin_push_many(ring, (pkt,))
        return len(run)

    def tx_loop_iteration(self) -> int:
        """One TX pass: drain up to a batch of packets, pack, seal, cross, send.

        Control frames (heartbeats) force a flush so they propagate
        promptly; otherwise a partial record is flushed only after the idle
        timer expires. Returns the number of records sent.
        """
        cfg = self.config
        now = mono_us()
        if cfg.heartbeat_period_ms and now - self._last_hb_tx_us >= cfg.heartbeat_period_ms * 1000:
            self._last_hb_tx_us = now
            self._ctrl.append(Frame(FRAME_HB_REQ, now))
            self.stats.heartbeats_sent += 1

        # Queued control frames go first and force a flush; any the RX
        # thread appends meanwhile wait for the next pass.
        ctrl = [self._ctrl.popleft() for _ in range(len(self._ctrl))]
        packer = self._packer
        records, count = packer.pack(ctrl, self.tx_ring.pop, cfg.batch_size)
        if count:
            self.stats.pkts_tx += count
            self._last_tx_add_us = now
        if packer.pending_bytes and (
            ctrl or now - self._last_tx_add_us >= cfg.idle_flush_ms * 1000
        ):
            records.append(packer.flush())
        if not records:
            return 0
        sent = 0
        view = self._tx_batch_view
        for start in range(0, len(records), cfg.batch_size):
            chunk = records[start : start + cfg.batch_size]
            off = 0
            for rec in chunk:
                sealed = self._sealer.seal(rec)
                view[off : off + SEALED_RECORD_LEN] = sealed
                off += SEALED_RECORD_LEN
            self.env.crossing(False, off)
            self.channel.send(bytes(view[:off]))
            self.stats.records_tx += len(chunk)
            sent += len(chunk)
        return sent

    # ------------------------------------------------------------------ poll driver

    def read_pkt(self, ring_index: int = 0, blocking: bool = True) -> PktInfo | None:
        """Pop the next packet from the given receive ring.

        Blocking mode spins until a packet arrives; non-blocking returns
        None immediately when the ring is empty. Raises ``DeviceShutdown``
        once the device is down and the ring drained.
        """
        ring = self.rx_rings[ring_index]
        pkt = ring.pop()
        if pkt is not None:
            return pkt
        if not blocking:
            if self._shutdown:
                raise DeviceShutdown(self.shutdown_reason or "device shut down")
            return None
        while True:
            pkt = ring.pop()
            if pkt is not None:
                return pkt
            if self._shutdown:
                raise DeviceShutdown(self.shutdown_reason or "device shut down")
            time.sleep(0)

    def write_pkt(self, pkt: PktInfo, blocking: bool = True) -> bool:
        """Push a packet onto the transmit ring (single designated writer).

        Raises ``DeviceShutdown`` once the device has shut down, and
        ``OversizePacket`` for a packet over ``max_pkt``; neither packet
        enters the ring.
        """
        if self._shutdown:
            raise DeviceShutdown(self.shutdown_reason or "device shut down")
        if len(pkt.data) > self.config.max_pkt:
            raise OversizePacket(f"{len(pkt.data)} > {self.config.max_pkt}")
        if self._tx_writer_ident is None:
            self._tx_writer_ident = threading.get_ident()
        else:
            assert self._tx_writer_ident == threading.get_ident(), (
                "tx ring written from more than one thread"
            )
        if self.tx_ring.push(pkt):
            return True
        if not blocking:
            if self._shutdown:
                raise DeviceShutdown(self.shutdown_reason or "device shut down")
            return False
        while not self.tx_ring.push(pkt):
            if self._shutdown:
                raise DeviceShutdown(self.shutdown_reason or "device shut down")
            time.sleep(0)
        return True

    def clock_now(self) -> int:
        return self.clock.now_us

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Launch the two core-driver threads (RX and TX)."""
        if self._threads:
            raise RuntimeError("device already started")
        rx = threading.Thread(target=self._rx_main, name="etap-rx", daemon=True)
        tx = threading.Thread(target=self._tx_main, name="etap-tx", daemon=True)
        self._threads = [rx, tx]
        rx.start()
        tx.start()

    def _rx_main(self) -> None:
        try:
            while not self._shutdown:
                self.rx_loop_iteration()
        except ChannelClosed:
            self.shutdown("channel closed")
        except (AuthFailure, MemoryViolation, MalformedFrame):
            pass  # shutdown already recorded with diagnostic
        except DeviceShutdown:
            pass

    def _tx_main(self) -> None:
        try:
            while not self._shutdown:
                if self.tx_loop_iteration() == 0:
                    time.sleep(0.0002)
        except (ChannelClosed, DeviceShutdown):
            self.shutdown("channel closed")
        except EnclaveTapError as exc:
            self.shutdown(f"transmit check failed: {exc}")

    def shutdown(self, reason: str) -> None:
        if not self._shutdown:
            self.shutdown_reason = reason
            self._shutdown = True
        try:
            self.channel.close()
        except Exception:
            pass

    @property
    def is_shutdown(self) -> bool:
        return self._shutdown

    def stop(self) -> None:
        self.shutdown("stopped")
        for t in self._threads:
            t.join(timeout=5)
        self._threads = []

    # ------------------------------------------------------------------ helpers

    def _spin_push_many(self, ring, run) -> None:
        # Delivery to a full ring blocks rather than drops: push what fits,
        # spin on the rest.
        done = ring.push_many(run)
        while done < len(run):
            if self._shutdown:
                raise DeviceShutdown(self.shutdown_reason or "device shut down")
            time.sleep(0)
            done += ring.push_many(run, done)
