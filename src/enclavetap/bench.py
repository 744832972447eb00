"""Benchmark and reproduction harness.

Runs parameter sweeps over the full loopback pipeline (gateway -> sealed
records -> device -> rings -> NF, optionally bounced back), compares the
three state-management variants, and measures flow-cache miss-rate curves.
Everything emits CSV rows suitable for external plotting.

The three variants:

  * native   — states in an unbounded plaintext map; no boundary, no crypto.
  * strawman — the managed design with every access a miss: one cached
               state, sealed back into the untrusted store before each
               track; a stand-in for a port whose state traffic is
               paging-dominated. Labeled as a stand-in in all outputs.
  * managed  — the full bounded-cache state manager.

All variants expose the same track/terminate/expire contract, so they run
the identical NF code and must produce identical NF outputs.

Crossing cost note: the boundary crossing delay knob defaults to zero. The
batch-size sweep sets it to a nonzero documented value (see
``DEFAULT_SWEEP_CROSSING_DELAY_US``) because record batching exists to
amortize crossing cost; with free crossings the sweep would measure noise.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable

from .boundary import BoundaryConfig, MemoryEnv
from .channel import loopback_pair
from .etap import EtapConfig, EtapDevice, mono_us
from .gateway import Gateway, GatewayConfig, SyntheticConfig, SyntheticSource
from .nf import Echo, FlowMeter, BufferedIds, NfRunner, PatternSet
from .packets import canonical_fid, parse_packet
from .ring import RING_VARIANTS
from .statemgmt import StateManager, StateStats
from .wire import ChannelKeys

DEFAULT_SWEEP_CROSSING_DELAY_US = 1000

SWEEP_PARAMS = (
    "batch_size",
    "ring_size",
    "pkt_size",
    "flow_count",
    "cache_entries",
    "sync_mechanism",
    "nf_cost",
)


# ------------------------------------------------------------ state variants

class NativeState:
    """Unbounded plaintext flow map: no memory split, no sealing."""

    def __init__(self, state_size: int, expiration_s: int = 60):
        self.state_size = state_size
        self.expiration_s = expiration_s
        self._states: dict[bytes, bytearray] = {}
        self._last: dict[bytes, int] = {}

    def track(self, fid: bytes, now_s: int):
        fid, flipped = canonical_fid(fid)
        st = self._states.get(fid)
        is_new = st is None
        if is_new:
            st = bytearray(self.state_size)
            self._states[fid] = st
        self._last[fid] = now_s
        return memoryview(st), is_new, flipped

    def terminate(self, fid: bytes) -> bool:
        fid, _ = canonical_fid(fid)
        if self._states.pop(fid, None) is None:
            return False
        del self._last[fid]
        return True

    def expire(self, now_s: int) -> int:
        timeout = self.expiration_s
        dead = [f for f, last in self._last.items() if now_s - last > timeout]
        for f in dead:
            del self._states[f]
            del self._last[f]
        return len(dead)


class StrawmanState(StateManager):
    """The managed design with every access a miss.

    One cached state, sealed back into a store cell before each track, so
    every track of a known flow pays one open and the flow tracked before it
    one seal, through the same store, free list and lookup index as the
    managed variant.
    """

    def __init__(self, state_size: int, expiration_s: int = 60, env: MemoryEnv | None = None,
                 seed: int | None = None):
        super().__init__(2, state_size, expiration_s, env=env, store_prealloc=4096, seed=seed)

    def track(self, fid: bytes, now_s: int):
        if self.cached_flows:
            self._free_slots.append(self._evict_lru(self.store_alloc()))
        return super().track(fid, now_s)


VARIANTS = ("native", "strawman", "managed")


def make_backend(
    variant: str,
    state_size: int,
    expiration_s: int,
    cache_entries: int = 8192,
    env: MemoryEnv | None = None,
    seed: int | None = 17,
):
    if variant == "native":
        return NativeState(state_size, expiration_s)
    if variant == "strawman":
        return StrawmanState(state_size, expiration_s, env=env, seed=seed)
    if variant == "managed":
        return StateManager(cache_entries, state_size, expiration_s, env=env, seed=seed)
    raise ValueError(f"unknown variant {variant}")


# ------------------------------------------------------------------- results

@dataclass
class RunResult:
    workload: str
    param: str = ""
    value: str = ""
    rep: int = 0
    packets: int = 0
    bytes: int = 0
    duration_s: float = 0.0
    throughput_mbps: float = 0.0
    throughput_mpps: float = 0.0
    latency_mean_us: float = 0.0
    latency_p50_us: float = 0.0
    latency_p99_us: float = 0.0
    cache_miss_rate: float = 0.0
    seal_ops: int = 0
    open_ops: int = 0
    crossings: int = 0
    events_digest: str = ""
    note: str = ""

    def as_row(self) -> dict:
        return asdict(self)


CSV_COLUMNS = list(RunResult.__dataclass_fields__)


def emit_report(rows: Iterable[RunResult], out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.csv")
    rows = list(rows)
    with open(path, "w", newline="") as fp:
        writer = csv.DictWriter(fp, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in rows:
            writer.writerow(r.as_row())
    summary = os.path.join(out_dir, f"{name}.txt")
    with open(summary, "w") as fp:
        for r in rows:
            fp.write(
                f"{r.workload} {r.param}={r.value} rep={r.rep}: "
                f"{r.throughput_mbps:.1f} Mbps {r.throughput_mpps:.3f} Mpps "
                f"mean {r.latency_mean_us:.2f} us miss {r.cache_miss_rate:.3f}\n"
            )
    return path


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[idx]


# -------------------------------------------------------------- IO pipeline

@dataclass
class IoWorkloadConfig:
    pkt_size: int = 64
    count: int = 200_000
    flows: int = 1024
    zipf: float = 0.0
    seed: int = 1
    batch_size: int = 10
    ring_size: int = 256
    sync_mechanism: str = "lockfree"
    num_rx_rings: int = 1
    nf: str = "echo"
    nf_cost: int = 0
    cache_entries: int = 8192
    state_size: int = 512
    expiration_s: int = 1 << 30
    crossing_delay_us: int = 0
    latency_sample_every: int = 64
    timeout_s: float = 240.0
    # The pipeline simulates five independent cores (gateway x2, device x2,
    # NF) on one interpreter; the default 5 ms preemption quantum lets any
    # one of them monopolize the interpreter whenever another blocks, which
    # measures scheduler quanta rather than pipeline behavior. A 1 ms
    # quantum keeps the thread interleaving close to genuinely parallel
    # execution. Restored after each run.
    switch_interval_s: float | None = 0.001


def run_io_workload(cfg: IoWorkloadConfig) -> RunResult:
    """Drive one loopback pipeline run and collect throughput/latency."""
    import sys

    old_interval = sys.getswitchinterval()
    if cfg.switch_interval_s:
        sys.setswitchinterval(cfg.switch_interval_s)
    try:
        return _run_io_workload(cfg)
    finally:
        if cfg.switch_interval_s:
            sys.setswitchinterval(old_interval)


def _run_io_workload(cfg: IoWorkloadConfig) -> RunResult:
    env = MemoryEnv(BoundaryConfig(crossing_delay_ns=cfg.crossing_delay_us * 1000))
    keys = ChannelKeys.from_secret(b"bench-loopback")
    ch_gw, ch_dev = loopback_pair()
    dev = EtapDevice(
        ch_dev,
        keys,
        env,
        EtapConfig(
            ring_size=cfg.ring_size,
            batch_size=cfg.batch_size,
            num_rx_rings=cfg.num_rx_rings,
            ring_variant=cfg.sync_mechanism,
        ),
    )
    managers: list[StateManager] = []
    if cfg.nf == "echo":
        bounce = True

        def factory(_i: int):
            return Echo(cfg.nf_cost)

    elif cfg.nf == "flowmeter":
        bounce = False

        def factory(_i: int):
            mgr = StateManager(
                cfg.cache_entries, cfg.state_size, cfg.expiration_s, env=env, seed=cfg.seed
            )
            managers.append(mgr)
            return FlowMeter(mgr, emit_events=False)

    else:
        raise ValueError(f"unsupported pipeline nf {cfg.nf}")

    runner = NfRunner(dev, factory, bounce=bounce)
    source = SyntheticSource(
        SyntheticConfig(
            flows=cfg.flows, count=cfg.count, seed=cfg.seed, pkt_size=cfg.pkt_size, zipf=cfg.zipf
        )
    )
    latencies: list[float] = []
    counter = [0]
    sample_every = cfg.latency_sample_every

    def sink(pkt):
        counter[0] += 1
        if counter[0] % sample_every == 0:
            latencies.append(mono_us() - pkt.ts_us)

    gw = Gateway(
        ch_gw,
        keys,
        GatewayConfig(peer_batch_size=cfg.batch_size, retimestamp=True),
        sink=sink if bounce else None,
    )
    t0 = time.perf_counter()
    dev.start()
    runner.start()
    gw.start(source)
    if bounce:
        ok = gw.wait_received(cfg.count, timeout=cfg.timeout_s)
    else:
        ok = runner.wait_processed(cfg.count, timeout=cfg.timeout_s)
    dt = time.perf_counter() - t0
    gw.stop()
    dev.stop()
    runner.join()
    if not ok:
        raise RuntimeError(
            f"pipeline stalled: {gw.stats.pkts_received if bounce else runner.processed_total}"
            f"/{cfg.count} packets after {cfg.timeout_s}s (device: {dev.shutdown_reason})"
        )
    latencies.sort()
    total_bytes = cfg.count * cfg.pkt_size
    miss = 0.0
    seals = opens = 0
    if managers:
        tracks = sum(m.stats.tracks for m in managers)
        misses = sum(m.stats.misses for m in managers)
        miss = misses / tracks if tracks else 0.0
        seals = sum(m.stats.seals for m in managers)
        opens = sum(m.stats.opens for m in managers)
    return RunResult(
        workload=f"io-{cfg.nf}",
        packets=cfg.count,
        bytes=total_bytes,
        duration_s=dt,
        throughput_mbps=total_bytes * 8 / dt / 1e6,
        throughput_mpps=cfg.count / dt / 1e6,
        latency_mean_us=sum(latencies) / len(latencies) if latencies else 0.0,
        latency_p50_us=_percentile(latencies, 0.50),
        latency_p99_us=_percentile(latencies, 0.99),
        cache_miss_rate=miss,
        seal_ops=seals,
        open_ops=opens,
        crossings=env.stats.ocall_count,
    )


# ------------------------------------------------------------------- sweeps

@dataclass
class SweepSpec:
    param: str
    values: list
    base: IoWorkloadConfig = field(default_factory=IoWorkloadConfig)
    reps: int = 1
    seed: int = 1

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ValueError(f"unknown sweep parameter {self.param!r}; one of {SWEEP_PARAMS}")


def run_sweep(spec: SweepSpec) -> list[RunResult]:
    rows = []
    for value in spec.values:
        for rep in range(spec.reps):
            cfg = replace(spec.base, seed=spec.seed + rep)
            if spec.param == "flow_count":
                cfg = replace(cfg, flows=int(value), nf="flowmeter")
            elif spec.param == "cache_entries":
                cfg = replace(cfg, cache_entries=int(value), nf="flowmeter")
            elif spec.param == "sync_mechanism":
                if value not in RING_VARIANTS:
                    raise ValueError(f"unknown sync mechanism {value}")
                cfg = replace(cfg, sync_mechanism=value)
            elif spec.param in ("batch_size", "ring_size", "pkt_size", "nf_cost"):
                cfg = replace(cfg, **{spec.param: int(value)})
            res = run_io_workload(cfg)
            res.param = spec.param
            res.value = str(value)
            res.rep = rep
            rows.append(res)
    return rows


# ---------------------------------------------------------- ring microbench

SYNC_BENCH_SWITCH_INTERVAL_S = 0.0001
SYNC_BENCH_SPIN_BUDGET = 16


def ring_throughput(
    variant: str,
    items: int = 1_000_000,
    payload_size: int = 64,
    capacity: int = 256,
    spin_budget: int = 1,
    switch_interval_s: float | None = None,
) -> float:
    """Two-thread push/pop rate (items per second) for one ring variant.

    Producer and consumer poll with a bounded spin before yielding the
    interpreter, mirroring the poll driver's blocking semantics.

    ``switch_interval_s`` temporarily overrides the interpreter's thread
    switch interval. The default 5 ms quantum is three to four orders of
    magnitude coarser than hardware thread interleaving, so under it two
    "concurrent" threads essentially never interleave inside a critical
    section and a lock costs only its uncontended constant — the
    measurement reflects scheduler quanta, not synchronization. The
    synchronization comparison (``sync_comparison``) therefore runs at a
    0.1 ms quantum, where lock-holder preemption occurs at a frequency
    closer to genuinely parallel execution.
    """
    import sys
    import threading

    ring = RING_VARIANTS[variant](capacity)
    payload = bytes(payload_size)

    def producer():
        push = ring.push
        sleep = time.sleep
        for _ in range(items):
            if push(payload):
                continue
            spins = 0
            while not push(payload):
                spins += 1
                if spins % spin_budget == 0:
                    sleep(0)

    def consumer():
        pop = ring.pop
        sleep = time.sleep
        got = 0
        spins = 0
        while got < items:
            if pop() is None:
                spins += 1
                if spins % spin_budget == 0:
                    sleep(0)
            else:
                got += 1

    old_interval = sys.getswitchinterval()
    if switch_interval_s is not None:
        sys.setswitchinterval(switch_interval_s)
    try:
        tp = threading.Thread(target=producer)
        tc = threading.Thread(target=consumer)
        t0 = time.perf_counter()
        tp.start()
        tc.start()
        tp.join()
        tc.join()
        dt = time.perf_counter() - t0
    finally:
        if switch_interval_s is not None:
            sys.setswitchinterval(old_interval)
    return items / dt


def sync_comparison(
    variants: Iterable[str] = ("lockfree", "mutex", "spinlock"),
    items: int = 500_000,
    payload_size: int = 64,
    capacity: int = 256,
    reps: int = 3,
) -> dict[str, float]:
    """Best-of-N ring throughput per synchronization mechanism (items/s)."""
    out = {}
    for variant in variants:
        out[variant] = max(
            ring_throughput(
                variant,
                items,
                payload_size,
                capacity,
                spin_budget=SYNC_BENCH_SPIN_BUDGET,
                switch_interval_s=SYNC_BENCH_SWITCH_INTERVAL_S,
            )
            for _ in range(reps)
        )
    return out


# ----------------------------------------------------------------- variants

@dataclass
class VariantWorkload:
    nf: str = "flowmeter"  # flowmeter | ids
    flows: int = 600_000
    count: int = 2_000_000
    pkt_size: int = 128
    zipf: float = 1.1
    seed: int = 3
    cache_entries: int = 32768
    state_size: int = 512
    expiration_s: int = 1 << 30
    patterns: list[bytes] = field(default_factory=lambda: [b"attack", b"EVILBYTES"])
    chunk: int = 4096
    sample_chunk_every: int = 16


def _events_digest(events) -> str:
    h = hashlib.sha256()
    for e in events:
        h.update(repr(e).encode())
    return h.hexdigest()


def run_variant(workload: VariantWorkload, variant: str, env: MemoryEnv | None = None) -> RunResult:
    """Run one NF over one state backend, timing the processing path only.

    Packet generation and parsing run untimed; per-chunk block timing keeps
    instrumentation out of the mean, and every Nth chunk is timed
    per-packet to estimate percentiles.
    """
    backend = make_backend(
        variant,
        workload.state_size,
        workload.expiration_s,
        cache_entries=workload.cache_entries,
        env=env,
        seed=workload.seed + 1000,
    )
    is_ids = workload.nf == "ids"
    if is_ids:
        nf = BufferedIds(backend, PatternSet(workload.patterns))
    elif workload.nf == "flowmeter":
        nf = FlowMeter(backend, emit_events=True)
    else:
        raise ValueError(f"unsupported variant nf {workload.nf}")
    source = SyntheticSource(
        SyntheticConfig(
            flows=workload.flows,
            count=workload.count,
            seed=workload.seed,
            pkt_size=workload.pkt_size,
            zipf=workload.zipf,
        )
    )
    total_ns = 0
    n = 0
    samples: list[float] = []
    chunk_idx = 0
    batch_pp: list = []
    perf = time.perf_counter_ns
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        it = iter(source)
        done = False
        while not done:
            batch_pp.clear()
            while len(batch_pp) < workload.chunk:
                try:
                    ts, frame = next(it)
                except StopIteration:
                    done = True
                    break
                pp = parse_packet(frame)
                if pp is None:
                    continue
                batch_pp.append((pp, ts, frame))
            if not batch_pp:
                break
            sampled = chunk_idx % workload.sample_chunk_every == 0
            if is_ids:
                if sampled:
                    for pp, ts, frame in batch_pp:
                        t0 = perf()
                        nf.process_parsed(pp, ts, frame)
                        t1 = perf()
                        total_ns += t1 - t0
                        samples.append((t1 - t0) / 1000.0)
                else:
                    t0 = perf()
                    for pp, ts, frame in batch_pp:
                        nf.process_parsed(pp, ts, frame)
                    total_ns += perf() - t0
            else:
                if sampled:
                    for pp, ts, _frame in batch_pp:
                        t0 = perf()
                        nf.process_parsed(pp, ts)
                        t1 = perf()
                        total_ns += t1 - t0
                        samples.append((t1 - t0) / 1000.0)
                else:
                    t0 = perf()
                    for pp, ts, _frame in batch_pp:
                        nf.process_parsed(pp, ts)
                    total_ns += perf() - t0
            n += len(batch_pp)
            chunk_idx += 1
    finally:
        if gc_was_enabled:
            gc.enable()
    samples.sort()
    # the sealed variants count seals, opens and misses; native has none
    stats = backend.stats if isinstance(backend, StateManager) else StateStats()
    return RunResult(
        workload=f"variants-{workload.nf}",
        param="variant",
        value=variant,
        packets=n,
        duration_s=total_ns / 1e9,
        throughput_mpps=n / (total_ns / 1e9) / 1e6 if total_ns else 0.0,
        latency_mean_us=total_ns / n / 1000.0 if n else 0.0,
        latency_p50_us=_percentile(samples, 0.50),
        latency_p99_us=_percentile(samples, 0.99),
        cache_miss_rate=stats.miss_rate,
        seal_ops=stats.seals,
        open_ops=stats.opens,
        events_digest=_events_digest(nf.events),
        note="strawman stands in for a paging-dominated naive port" if variant == "strawman" else "",
    )


def run_variants(workload: VariantWorkload) -> list[RunResult]:
    """Run all three variants over the identical workload."""
    return [run_variant(workload, v) for v in VARIANTS]


# ---------------------------------------------------------------- miss rate

def trace_fids(source: Iterable[tuple[int, bytes]]) -> list[bytes]:
    fids = []
    for _ts, frame in source:
        pp = parse_packet(frame)
        if pp is not None:
            fids.append(pp.fid)
    return fids


def measure_miss_rate(
    fids: list[bytes], cache_sizes: list[int], state_size: int = 64
) -> list[RunResult]:
    """Replay a flow-id sequence through the state manager per cache size."""
    rows = []
    for c in cache_sizes:
        mgr = StateManager(c, state_size, expiration_s=1 << 30, seed=11)
        track = mgr.track
        t0 = time.perf_counter()
        for fid in fids:
            track(fid, 0)
        dt = time.perf_counter() - t0
        rows.append(
            RunResult(
                workload="missrate",
                param="cache_entries",
                value=str(c),
                packets=len(fids),
                duration_s=dt,
                cache_miss_rate=mgr.stats.miss_rate,
                seal_ops=mgr.stats.seals,
                open_ops=mgr.stats.opens,
            )
        )
    return rows
