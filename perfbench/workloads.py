"""The three workloads: program set-up, one burst, and the checks.

A workload's constructor builds the program's objects (and the IDS rule
set) and nothing else, so ``setup_s`` times exactly that;
``prepare_inputs`` then makes the traffic generator. Every workload runs on
this one thread: the device is driven through its loop iterations and
non-blocking poll calls, never through ``start()``, so no thread
scheduling enters a number.
"""

from __future__ import annotations

from functools import partial

from enclavetap import statemgmt
from enclavetap.boundary import MemoryEnv
from enclavetap.channel import loopback_pair
from enclavetap.etap import EtapConfig, EtapDevice
from enclavetap.gateway import PAD_RECORD
from enclavetap.nf import IDS_STATE_SIZE, BufferedIds, Echo, FlowMeter, PatternSet
from enclavetap.packets import parse_packet
from enclavetap.statemgmt import StateManager
from enclavetap.wire import ChannelKeys, PktInfo, RecordPacker, RecordParser, encode_pkt

import checks
import inputs
from tracing import SealSpans, TracedState, Tracer, bind

BATCH = 10  # records per device crossing (the device default)
# The ring must hold a whole batch of the smallest frames (2184 x 64 B):
# nothing drains it while rx_loop_iteration runs on this same thread.
RING = 4096
MTU = 1500


class CheckedChannel:
    """The device's end of the loopback pair, checking every send.

    Counts the sealed records the device sent, so the gateway on this same
    thread reads exactly those and never blocks on a record that is not
    there.
    """

    def __init__(self, inner, found: checks.Checks):
        self._inner = inner
        self._checks = found
        self.recv_exact = inner.recv_exact
        self.close = inner.close
        self.waiting = 0

    def send(self, data: bytes) -> None:
        self._checks.add(checks.channel_send(len(data)))
        self.waiting += len(data) // inputs.SEALED
        self._inner.send(data)

    def take_waiting(self) -> int:
        n, self.waiting = self.waiting, 0
        return n


class Tunnel:
    """Gateway built from the wire primitives, and the device, on one thread.

    ``idle_flush_ms=0`` lets the device flush its last partial record on the
    same pass instead of after a wall-clock timer, and
    ``heartbeat_period_ms=0`` keeps timer-driven heartbeats out of the
    record counts.
    """

    def __init__(self, env: MemoryEnv, found: checks.Checks):
        keys = ChannelKeys.from_secret(b"perfbench")
        gw_end, dev_end = loopback_pair()
        self.chan = CheckedChannel(dev_end, found)
        self.dev = EtapDevice(
            self.chan,
            keys,
            env,
            EtapConfig(ring_size=RING, batch_size=BATCH, heartbeat_period_ms=0, idle_flush_ms=0,
                       max_pkt=MTU),
        )
        self.gw = gw_end
        self._sealer = keys.gateway_sealer()
        self._opener = keys.gateway_opener()
        self._packer = RecordPacker()
        self._parser = RecordParser(MTU)
        self._checks = found
        # worked out from packet lengths, and counted by the gateway
        self.model = {"g2e_data": 0, "g2e_pad": 0, "e2g": 0}
        self.counted = {"g2e_data": 0, "g2e_pad": 0, "e2g": 0}
        self.max_depth = 0

    def ops(self, step, tracer: Tracer | None = None):
        packer = self._packer

        def encode_pack(ts_us, data):
            return packer.add(encode_pkt(PktInfo(ts_us, data)))

        def flush_pad(records):
            rec = packer.flush()
            if rec is not None:
                records.append(rec)
            pads = BATCH - len(records)
            records += [PAD_RECORD] * pads
            return pads

        dev = self.dev
        o = bind(
            tracer,
            encode_pack=("wire.encode_pack", encode_pack),
            flush_pad=("wire.encode_pack", flush_pad),
            seal=("wire.seal", self._sealer.seal),
            send=("channel.send", self.gw.send),
            rx=("etap.rx", dev.rx_loop_iteration),
            read=("etap.read", partial(dev.read_pkt, 0, False)),
            write=("etap.write", partial(dev.write_pkt, blocking=False)),
            tx=("etap.tx", dev.tx_loop_iteration),
            recv=("channel.recv", partial(self.gw.recv_exact, inputs.SEALED)),
            open=("wire.open", self._opener.open),
            parse=("wire.parse", self._parser.feed),
        )
        o.step = step  # the NF's own spans are made by the caller
        return o

    def burst(self, o, pkts):
        """One device batch there and back; returns what the gateway got."""
        records = []
        for ts_us, data in pkts:
            records += o.encode_pack(ts_us, data)
        pads = o.flush_pad(records)
        wire = b"".join([o.seal(r) for r in records])
        o.send(wire)
        o.rx()
        depth = self.dev.rx_rings[0].occupancy()
        read, step, write = o.read, o.step, o.write
        pkt = read()
        while pkt is not None:
            write(step(pkt))
            pkt = read()
        o.tx()
        waiting = self.chan.take_waiting()
        frames = []
        for _ in range(waiting):
            frames += o.parse(o.open(o.recv()))
        return frames, pads, len(wire), waiting, depth

    def check_burst(self, pkts, result) -> None:
        frames, pads, sent_bytes, waiting, depth = result
        data = inputs.records_for([len(d) for _, d in pkts])
        self.model["g2e_data"] += data
        self.model["g2e_pad"] += BATCH - data
        self.model["e2g"] += data
        self.counted["g2e_data"] += BATCH - pads
        self.counted["g2e_pad"] += pads
        self.counted["e2g"] += waiting
        self.max_depth = max(self.max_depth, depth)
        self._checks.add(checks.channel_send(sent_bytes))
        self._checks.add(checks.returned_packets(pkts, frames))

    def final_checks(self) -> None:
        model = dict(self.model)
        model["device_rx"] = model["g2e_data"] + model["g2e_pad"]
        model["device_tx"] = model["e2g"]
        seen = dict(self.counted)
        seen["device_rx"] = self.dev.stats.records_rx
        seen["device_tx"] = self.dev.stats.records_tx
        self._checks.add(checks.record_counts(model, seen))

    def counters(self) -> dict[str, float]:
        c = self.counted
        st = self.dev.stats
        sent = c["g2e_data"] + c["g2e_pad"]
        return {
            "wire.records_sent": sent,
            "wire.records_received": c["e2g"],
            "wire.sealed_bytes": (sent + c["e2g"]) * inputs.SEALED,
            "wire.pad_records": c["g2e_pad"],
            "etap.records_rx": st.records_rx,
            "etap.records_tx": st.records_tx,
            "etap.pkts_tx": st.pkts_tx,
            "ring.max_depth": self.max_depth,
        }


def state_counters(mgr: StateManager) -> dict[str, float]:
    s = mgr.stats
    return {
        "statemgmt.tracks": s.tracks,
        "statemgmt.hits": s.hits,
        "statemgmt.store_hits": s.store_hits,
        "statemgmt.new_flows": s.new_flows,
        "statemgmt.seals": s.seals,
        "statemgmt.opens": s.opens,
        "statemgmt.evictions": s.evictions,
        "statemgmt.resizes": s.resizes,
        "statemgmt.store_grows": s.store_grows,
    }


class Workload:
    """Shared driving. Per burst: ``next_burst`` makes the inputs, ``run``
    is timed, ``check_burst`` checks; ``finish`` when the time is up."""

    name = ""
    mgr: StateManager | None = None
    nf = None

    def __init__(self, seed: int):
        self.seed = seed
        self.checks = checks.Checks()
        self.env = MemoryEnv()
        self.events_seen = 0
        self._ops = {}

    def instrument(self, tracer: Tracer) -> None:
        self._ops[True] = self.make_ops(tracer)
        self._traced_burst = tracer.wrap("burst", self.burst)
        if self.mgr is not None:
            self._traced_state = TracedState(self.mgr, tracer)
            self._seal_spans = SealSpans(statemgmt, tracer)

    def run(self, burst, traced: bool = False):
        if not traced:
            return self.burst(self._ops[False], burst)
        if self.mgr is not None:
            self.nf.state = self._traced_state
            self._seal_spans.install()
        try:
            return self._traced_burst(self._ops[True], burst)
        finally:
            if self.mgr is not None:
                self.nf.state = self.mgr
                self._seal_spans.remove()

    def counters(self) -> dict[str, float]:
        c = {
            "boundary.crossings": self.env.stats.ocall_count,
            "boundary.bytes_in": self.env.stats.bytes_in,
            "boundary.bytes_out": self.env.stats.bytes_out,
            "nf.events": self.events_seen,
        }
        if self.mgr is not None:
            c.update(state_counters(self.mgr))
        return c


class TunnelEcho(Workload):
    """64-byte frames over 1024 flows, echoed through the full tunnel, no state."""

    name = "tunnel-echo-64"
    FLOWS = 1024
    FRAME = 64

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tunnel = Tunnel(self.env, self.checks)
        self.nf = Echo()
        self._ops[False] = self.make_ops(None)

    def prepare_inputs(self) -> None:
        self._finishing = False
        self.traffic = inputs.EchoTraffic(self.seed, self.FLOWS, self.FRAME)
        self.per_burst = inputs.fill_batch([self.FRAME] * RING, BATCH)

    def make_ops(self, tracer):
        step = self.nf.process if tracer is None else tracer.wrap("nf.process", self.nf.process)
        return self.tunnel.ops(step, tracer)

    def finish(self) -> None:
        """The time is up: no flow is open, so stop at once."""
        self._finishing = True

    def next_burst(self):
        return None if self._finishing else self.traffic.take(self.per_burst)

    def burst(self, o, pkts):
        return self.tunnel.burst(o, pkts)

    def check_burst(self, pkts, result) -> None:
        self.tunnel.check_burst(pkts, result)

    def final_checks(self) -> None:
        self.tunnel.final_checks()
        if self.nf.processed != self.tunnel.dev.stats.pkts_rx:
            self.checks.add(f"echo saw {self.nf.processed} packets, device took in "
                            f"{self.tunnel.dev.stats.pkts_rx}")

    def counters(self):
        return {**super().counters(), **self.tunnel.counters()}


class FlowWorkload(Workload):
    """Workloads over ``inputs.FlowTraffic``: flows that end in FIN throughout.

    After each burst the NF's events are taken and every flow whose FIN has
    been processed is checked, so neither events nor inputs pile up.
    """

    def prepare_inputs(self) -> None:
        self._processed = 0
        self._events: dict[bytes, list] = {}

    def finish(self) -> None:
        """The time is up: open no more flows, let the open ones run to their FIN."""
        self.traffic.finish()

    def ended_flows(self, npkts: int):
        """Take the NF's events; yield (flow, its events) for flows now ended."""
        self._processed += npkts
        events = self.nf.events
        self.events_seen += len(events)
        for ev in events:
            self._events.setdefault(ev.fid, []).append(ev)
        events.clear()
        done = self.traffic.completed
        while done and done[0][0] <= self._processed:
            flow = done.popleft()[1]
            yield flow, self._events.pop(flow.fid, [])

    def final_checks(self) -> None:
        if not self.traffic.done or self.traffic.completed:
            self.checks.add("run ended with flows still open")
        if self._events:
            self.checks.add(f"NF events for {len(self._events)} flows the inputs never ended")
        self.checks.add(checks.state_empty(self.mgr.tracked_flows, self.mgr.cached_flows))
        if self.mgr.stats.expirations:
            self.checks.add(f"{self.mgr.stats.expirations} flows expired; none idles that long")


class MeterSwap(FlowWorkload):
    """FlowMeter over StateManager, no tunnel; most packets miss the cache."""

    name = "meter-swap"
    CACHE = 1024
    STATE = 512
    LIVE = 4 * CACHE  # flows drawn uniformly from 4x the cache: most packets miss
    FLOW_LEN = (2, 14)
    SIZES = (64, 1400)
    BURST = 512
    TS_STEP_US = 50  # an expire pass every 20000 packets
    EXPIRATION_S = 60  # far longer than any flow lives, so none expires

    def __init__(self, seed: int):
        super().__init__(seed)
        self.mgr = StateManager(self.CACHE, self.STATE, self.EXPIRATION_S, env=self.env, seed=seed)
        self.nf = FlowMeter(self.mgr)
        self._ops[False] = self.make_ops(None)

    def prepare_inputs(self) -> None:
        super().prepare_inputs()
        self.traffic = inputs.FlowTraffic(f"meter-swap:{self.seed}", self.LIVE, self.FLOW_LEN,
                                          self.SIZES, self.TS_STEP_US)
        self._sent = [0, 0]
        self._reported = [0, 0]

    def make_ops(self, tracer):
        return bind(tracer, parse=("packets.parse", parse_packet),
                    process=("nf.process", self.nf.process_parsed))

    def next_burst(self):
        return self.traffic.take(self.BURST) or None

    @staticmethod
    def burst(o, pkts):
        parse, process = o.parse, o.process
        for ts_us, data in pkts:
            process(parse(data), ts_us)

    def check_burst(self, pkts, result) -> None:
        self._sent[0] += len(pkts)
        self._sent[1] += sum(len(d) - 14 for _, d in pkts)
        for flow, events in self.ended_flows(len(pkts)):
            fins = [checks.parse_fin_detail(e.detail) for e in events if e.kind == "fin"]
            if len(events) != 2 or len(fins) != 1:
                self.checks.add(f"flow {flow.fid.hex()}: events {[e.kind for e in events]}, "
                                "expected one new and one fin")
            fin = fins[0] if fins else None
            self.checks.add(checks.flow_totals(flow.fid, (flow.pkts, flow.ip_bytes), fin))
            if fin is not None:
                self._reported[0] += fin[0]
                self._reported[1] += fin[1]

    def final_checks(self) -> None:
        super().final_checks()
        self.checks.add(checks.grand_totals(tuple(self._sent), tuple(self._reported)))


class IdsFullstack(FlowWorkload):
    """BufferedIds behind the full tunnel with bounce; flows open and close throughout."""

    name = "ids-fullstack"
    CACHE = 256
    LIVE = 192  # fewer live flows than cache slots: hits and slot reuse, no swapping
    FLOW_LEN = (2, 48)
    SIZES = (64, 1400)  # all at most the MTU: no fragments
    PATTERNS = 16
    PLANT_PROB = 0.25
    TS_STEP_US = 100
    EXPIRATION_S = 30
    LOOKAHEAD = 512

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tunnel = Tunnel(self.env, self.checks)
        self.mgr = StateManager(self.CACHE, IDS_STATE_SIZE, self.EXPIRATION_S, env=self.env,
                                seed=seed)
        self.patterns = inputs.ids_patterns(seed, self.PATTERNS)
        self.nf = BufferedIds(self.mgr, PatternSet(self.patterns))
        self._ops[False] = self.make_ops(None)

    def prepare_inputs(self) -> None:
        super().prepare_inputs()
        self.traffic = inputs.FlowTraffic(f"ids-fullstack:{self.seed}", self.LIVE, self.FLOW_LEN,
                                          self.SIZES, self.TS_STEP_US, self.patterns,
                                          self.PLANT_PROB)
        self._pending: list[tuple[int, bytes]] = []

    def make_ops(self, tracer):
        f = bind(tracer, parse=("packets.parse", parse_packet),
                 process=("nf.process", self.nf.process_parsed))
        parse, process = f.parse, f.process

        def step(pkt):
            data = pkt.data
            process(parse(data), pkt.ts_us, data)
            return pkt

        return self.tunnel.ops(step, tracer)

    def next_burst(self):
        if len(self._pending) < self.LOOKAHEAD:
            self._pending += self.traffic.take(self.LOOKAHEAD)
        end = inputs.fill_batch([len(d) for _, d in self._pending], BATCH)
        if end == 0:
            return None
        burst, self._pending = self._pending[:end], self._pending[end:]
        return burst

    def burst(self, o, pkts):
        return self.tunnel.burst(o, pkts)

    def check_burst(self, pkts, result) -> None:
        self.tunnel.check_burst(pkts, result)
        for flow, events in self.ended_flows(len(pkts)):
            found = [(e.pattern_id, e.end_offset) for e in events]
            self.checks.add(checks.ids_events(flow.fid, flow.plants, found))

    def final_checks(self) -> None:
        super().final_checks()
        self.tunnel.final_checks()
        if self.nf.ooo_dropped or self.nf.bypassed:
            self.checks.add(f"IDS dropped {self.nf.ooo_dropped} in-order segments as out of "
                            f"order and bypassed {self.nf.bypassed} TCP packets")

    def counters(self):
        return {**super().counters(), **self.tunnel.counters()}


WORKLOADS = {w.name: w for w in (TunnelEcho, MeterSwap, IdsFullstack)}
