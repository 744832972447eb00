"""Single-thread full-stack benchmark for enclavetap.

    python3 perfbench/run.py --workload tunnel-echo-64 --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop (one client, one burst in flight) on this
one thread, checks every output against figures the benchmark computed from
its own inputs, and prints one JSON object as the last line of standard
output. With ``--trace 0`` it holds the end-to-end metrics; with
``--trace 1`` half the bursts run traced, the per-layer metrics are
printed, the tracing overhead goes on the line before, and the spans and
per-layer table go to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from hostspeed import NOMINAL_S, probe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# names, units and order of the workloads and metrics
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
WARMUP_S = 1.0

# per-layer metric -> source. ("self", span name) is the span's self time
# per traced packet; ("per_pkt", counter) a counter's growth per timed
# packet; ("ratio", a, b) the growth of a over that of b; ("total", counter)
# its value at the end of the timed bursts.
PER_LAYER = {
    "wire.encode_pack_s": ("self", "wire.encode_pack"),
    "wire.seal_s": ("self", "wire.seal"),
    "wire.open_s": ("self", "wire.open"),
    "wire.parse_s": ("self", "wire.parse"),
    "wire.records_sent": ("per_pkt", "wire.records_sent"),
    "wire.records_received": ("per_pkt", "wire.records_received"),
    "wire.pad_records": ("per_pkt", "wire.pad_records"),
    "wire.bytes_per_pkt": ("per_pkt", "wire.sealed_bytes"),
    "etap.rx_s": ("self", "etap.rx"),
    "etap.tx_s": ("self", "etap.tx"),
    "etap.read_s": ("self", "etap.read"),
    "etap.write_s": ("self", "etap.write"),
    "etap.records_rx": ("per_pkt", "etap.records_rx"),
    "etap.records_tx": ("per_pkt", "etap.records_tx"),
    "etap.pkts_per_record_tx": ("ratio", "etap.pkts_tx", "etap.records_tx"),
    "ring.max_depth": ("total", "ring.max_depth"),
    "channel.send_s": ("self", "channel.send"),
    "channel.recv_s": ("self", "channel.recv"),
    "boundary.crossings": ("per_pkt", "boundary.crossings"),
    "boundary.bytes_in": ("per_pkt", "boundary.bytes_in"),
    "boundary.bytes_out": ("per_pkt", "boundary.bytes_out"),
    "packets.parse_s": ("self", "packets.parse"),
    "nf.process_s": ("self", "nf.process"),
    "nf.events": ("per_pkt", "nf.events"),
    "statemgmt.track_s": ("self", "statemgmt.track"),
    "statemgmt.terminate_s": ("self", "statemgmt.terminate"),
    "statemgmt.expire_s": ("self", "statemgmt.expire"),
    "statemgmt.seal_s": ("self", "statemgmt.seal"),
    "statemgmt.open_s": ("self", "statemgmt.open"),
    "statemgmt.tracks": ("per_pkt", "statemgmt.tracks"),
    "statemgmt.hits": ("per_pkt", "statemgmt.hits"),
    "statemgmt.store_hits": ("per_pkt", "statemgmt.store_hits"),
    "statemgmt.new_flows": ("per_pkt", "statemgmt.new_flows"),
    "statemgmt.seals": ("per_pkt", "statemgmt.seals"),
    "statemgmt.opens": ("per_pkt", "statemgmt.opens"),
    "statemgmt.evictions": ("per_pkt", "statemgmt.evictions"),
    "statemgmt.resizes": ("total", "statemgmt.resizes"),
    "statemgmt.store_grows": ("total", "statemgmt.store_grows"),
    "statemgmt.hit_ratio": ("ratio", "statemgmt.hits", "statemgmt.tracks"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(wl, seconds: float, tracer=None) -> dict:
    """Run bursts for ``seconds`` after a warm-up, then let open flows finish.

    Returns per-burst samples (packets, seconds, probe seconds, traced) from
    the bursts between warm-up and deadline, and counter readings at those
    two points. The bursts that let open flows run to their end afterwards
    are checked like every other burst but not timed.

    The host speed probe runs between every two bursts. A burst's probe
    figure is the median of the probes just before it, just after it and
    the one before that: it follows a change of the host's speed within a
    burst and ignores an interrupt that lands inside one probe.
    """
    clock = time.perf_counter
    warm_end = clock() + min(WARMUP_S, seconds / 10)
    deadline = warm_end + seconds
    pick = random.Random(0)  # which bursts run traced: half, with no period to alias
    timed_bursts: list[tuple[int, float, int, bool]] = []  # (packets, seconds, probe index, traced)
    probes: list[float] = []
    base = end = None
    attempted = 0
    while True:
        now = clock()
        if base is None and now >= warm_end:
            base = wl.counters()
        timed = base is not None and end is None
        if timed and timed_bursts and now >= deadline:
            end = wl.counters()
            wl.finish()
            timed = False
        burst = wl.next_burst()
        if burst is None:
            break
        traced = timed and tracer is not None and pick.random() < 0.5
        if traced:
            tracer.begin_burst(len(timed_bursts))
        probes.append(probe())
        t0 = clock()
        result = wl.run(burst, traced)
        dt = clock() - t0
        wl.check_burst(burst, result)
        attempted += len(burst)
        if timed:
            timed_bursts.append((len(burst), dt, len(probes) - 1, traced))
    probes.append(probe())
    wl.final_checks()
    if threading.active_count() != 1:
        # the probe scaling assumes nothing else runs in this interpreter
        wl.checks.add(f"{threading.active_count() - 1} threads besides the benchmark's own")
    samples = [(p, dt, statistics.median(probes[max(k - 1, 0): k + 2]), t)
               for p, dt, k, t in timed_bursts]
    return {"samples": samples, "base": base, "end": end or wl.counters(), "attempted": attempted}


def burst_stats(samples, scale: bool) -> dict[str, float]:
    """Median per-burst rate and burst time quantiles, scaled by the probe or raw."""
    secs = [dt * NOMINAL_S / ref if scale else dt for _, dt, ref, _ in samples]
    ms = [s * 1e3 for s in secs]
    return {
        "throughput_pps": statistics.median(p / s for (p, *_), s in zip(samples, secs)),
        "burst_p50_ms": statistics.median(ms),
        "burst_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0],
    }


def end_to_end(samples, setup_s: float) -> dict:
    values = {**burst_stats(samples, scale=True), "setup_s": setup_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}


def per_layer(run: dict, tracer) -> dict:
    base, end = run["base"], run["end"]
    pkts = sum(p for p, *_ in run["samples"])
    traced_pkts = sum(p for p, _, _, t in run["samples"] if t)

    def delta(name):
        return end.get(name, 0) - base.get(name, 0)

    out = {}
    for m in SPEC["per_layer"]:
        src = PER_LAYER[m["name"]]
        kind = src[0]
        if kind == "self":
            v = tracer.self_ns.get(src[1], 0) / 1e9 / max(traced_pkts, 1)
        elif kind == "per_pkt":
            v = delta(src[1]) / max(pkts, 1)
        elif kind == "ratio":
            v = delta(src[1]) / delta(src[2]) if delta(src[2]) else 0.0
        else:
            v = end.get(src[1], 0)
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    return out


def overhead(samples) -> dict:
    """Probe-scaled median rate of traced bursts against untraced ones."""
    rate = {t: burst_stats([x for x in samples if x[3] == t], scale=True)["throughput_pps"]
            for t in (False, True)}
    return {"untraced_pps": rate[False], "traced_pps": rate[True],
            "traced_over_untraced": rate[True] / rate[False]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "enclavetap").is_dir():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads  # imports the program

    # one cold construction of the program's objects, the first in this process
    refs = [probe() for _ in range(5)]
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    raw_setup_s = time.perf_counter() - t0
    ref = statistics.median(refs + [probe() for _ in range(5)])
    wl.prepare_inputs()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        wl.instrument(tracer)
    run = measure(wl, args.seconds, tracer)
    if not wl.checks.ok:
        for msg in wl.checks.messages:
            print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(run, tracer)
        ovh = overhead(run["samples"])
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fp:
            json.dump({"workload": args.workload, "seed": args.seed, "overhead": ovh,
                       "per_layer": metrics, "self_ns": tracer.self_ns, "calls": tracer.calls,
                       "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "burst"],
                       "spans": tracer.spans}, fp)
        print(f"tracing overhead on {args.workload}: traced throughput_pps "
              f"{ovh['traced_pps']:.0f} against untraced {ovh['untraced_pps']:.0f} "
              f"(ratio {ovh['traced_over_untraced']:.3f}); spans and table in {path}")
    else:
        metrics = end_to_end(run["samples"], raw_setup_s * NOMINAL_S / ref)
        raw = burst_stats(run["samples"], scale=False)
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
              + f", setup_s {raw_setup_s:.6g}; probe median "
              + f"{statistics.median(x[2] for x in run['samples']):.6g} s (nominal {NOMINAL_S} s)")

    print(json.dumps({"correct": wl.checks.ok, "attempted": run["attempted"],
                      "failed": wl.checks.failed, "metrics": metrics}))
    return 0 if wl.checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
