"""Command-line entry points: gateway, nf, and bench subcommands."""

from __future__ import annotations

import argparse
import csv
import sys

from .bench import (
    DEFAULT_SWEEP_CROSSING_DELAY_US,
    IoWorkloadConfig,
    SweepSpec,
    VariantWorkload,
    emit_report,
    measure_miss_rate,
    run_sweep,
    run_variants,
    trace_fids,
)
from .channel import SocketChannel
from .etap import EtapConfig, EtapDevice
from .gateway import (
    GatewayConfig,
    SyntheticConfig,
    SyntheticSource,
    read_pcap,
    run_gateway,
)
from .nf import Echo, FlowMeter, BufferedIds, NfRunner, PatternSet
from .statemgmt import StateManager
from .wire import ChannelKeys


def _parse_pkt_size(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (int(lo), int(hi))
    return int(text)


def _keys(secret: str) -> ChannelKeys:
    return ChannelKeys.from_secret(secret.encode())


def _host_port(text: str) -> tuple[str, int]:
    host, port = text.rsplit(":", 1)
    return host, int(port)


def cmd_gateway(args: argparse.Namespace) -> int:
    if args.source.startswith("pcap:"):
        source = read_pcap(args.source[5:])
    elif args.source == "synth":
        source = SyntheticSource(
            SyntheticConfig(
                flows=args.flows,
                count=args.count,
                seed=args.seed,
                pkt_size=_parse_pkt_size(args.pkt_size),
                zipf=args.zipf,
            )
        )
    else:
        print(f"unknown source {args.source!r}; use pcap:<path> or synth", file=sys.stderr)
        return 2
    host, port = _host_port(args.peer)
    stats = run_gateway(
        source,
        SocketChannel.connect(host, port),
        _keys(args.secret),
        GatewayConfig(
            mtu=args.mtu,
            peer_batch_size=args.peer_batch_size,
            retimestamp=args.retimestamp,
        ),
        linger_s=args.linger_s,
    )
    print(
        f"sent {stats.pkts_sent} pkts / {stats.records_sent} records, "
        f"received {stats.pkts_received} pkts / {stats.records_received} records, "
        f"fragments {stats.fragments_created}, dropped {stats.dropped_unfragmentable}, "
        f"heartbeats answered {stats.heartbeats_answered}"
    )
    return 0


def cmd_nf(args: argparse.Namespace) -> int:
    host, port = _host_port(args.peer_listen)
    print(f"listening on {host}:{port} ...")
    channel = SocketChannel.listen_accept(host, port)
    device = EtapDevice(
        channel,
        _keys(args.secret),
        config=EtapConfig(
            ring_size=args.ring_size,
            batch_size=args.batch_size,
            num_rx_rings=args.rings,
        ),
    )
    nfs = []

    def factory(i: int):
        if args.nf == "echo":
            nf = Echo()
        elif args.nf == "flowmeter":
            nf = FlowMeter(
                StateManager(args.cache_entries, args.state_size, args.expiration_s, env=device.env)
            )
        elif args.nf == "ids":
            patterns = PatternSet.from_file(args.patterns)
            nf = BufferedIds(
                StateManager(args.cache_entries, args.state_size, args.expiration_s, env=device.env),
                patterns,
            )
        else:
            raise ValueError(args.nf)
        nfs.append(nf)
        return nf

    runner = NfRunner(device, factory, bounce=args.nf == "echo" and args.rings == 1)
    device.start()
    runner.start()
    runner.join(timeout=None if args.run_s == 0 else args.run_s)
    device.stop()
    total = runner.processed_total
    reason = device.shutdown_reason
    print(f"processed {total} packets across {args.rings} ring(s); device shut down: {reason}")
    if args.events and args.nf in ("flowmeter", "ids"):
        with open(args.events, "w", newline="") as fp:
            w = csv.writer(fp)
            w.writerow(["ts_us", "fid", "kind", "detail"])
            for nf in nfs:
                for e in nf.events:
                    if args.nf == "flowmeter":
                        w.writerow([e.ts_us, e.fid.hex(), e.kind, e.detail])
                    else:
                        w.writerow([e.ts_us, e.fid.hex(), "match", f"pattern={e.pattern_id};end={e.end_offset}"])
        print(f"events written to {args.events}")
    return 0 if reason in ("stopped", "channel closed") else 1


def cmd_bench_sweep(args: argparse.Namespace) -> int:
    base = IoWorkloadConfig(
        pkt_size=args.pkt_size,
        count=args.count,
        flows=args.flows,
        zipf=args.zipf,
        crossing_delay_us=args.crossing_delay_us,
    )
    spec = SweepSpec(param=args.param, values=args.values.split(","), base=base, reps=args.reps)
    rows = run_sweep(spec)
    path = emit_report(rows, args.out, f"sweep_{args.param}")
    print(f"wrote {path}")
    return 0


def cmd_bench_variants(args: argparse.Namespace) -> int:
    workload = VariantWorkload(
        nf=args.nf,
        flows=args.flows,
        count=args.count,
        pkt_size=args.pkt_size,
        zipf=args.zipf,
        cache_entries=args.cache_entries,
        state_size=args.state_size,
    )
    rows = run_variants(workload)
    path = emit_report(rows, args.out, f"variants_{args.nf}")
    digests = {r.events_digest for r in rows}
    print(f"wrote {path}; outputs identical across variants: {len(digests) == 1}")
    for r in rows:
        print(f"  {r.value:9s} mean {r.latency_mean_us:8.2f} us/pkt  {r.throughput_mpps:.3f} Mpps")
    return 0


def cmd_bench_missrate(args: argparse.Namespace) -> int:
    if args.trace:
        fids = trace_fids(read_pcap(args.trace))
    else:
        fids = trace_fids(
            SyntheticSource(
                SyntheticConfig(
                    flows=args.flows, count=args.count, seed=args.seed, pkt_size=128, zipf=args.zipf
                )
            )
        )
    sizes = [int(v) for v in args.cache.split(",")]
    rows = measure_miss_rate(fids, sizes)
    path = emit_report(rows, args.out, "missrate")
    for r in rows:
        print(f"  cache {r.value:>8s}: miss rate {r.cache_miss_rate:.4f}")
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="enclavetap")
    sub = parser.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gateway", help="tunnel a packet source to a device peer")
    g.add_argument("--source", required=True, help="pcap:<path> or synth")
    g.add_argument("--flows", type=int, default=1000)
    g.add_argument("--zipf", type=float, default=0.0)
    g.add_argument("--pkt-size", default="512", help="frame bytes, or lo:hi for uniform")
    g.add_argument("--count", type=int, default=100_000)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--peer", required=True, help="host:port of the device peer")
    g.add_argument("--mtu", type=int, default=1500)
    g.add_argument("--secret", default="enclavetap-dev")
    g.add_argument("--peer-batch-size", type=int, default=10)
    g.add_argument("--retimestamp", action="store_true")
    g.add_argument("--linger-s", type=float, default=1.0)
    g.set_defaults(func=cmd_gateway)

    n = sub.add_parser("nf", help="run a network function behind the tunnel device")
    nsub = n.add_subparsers(dest="nf_cmd", required=True)
    nr = nsub.add_parser("run")
    nr.add_argument("--nf", choices=("flowmeter", "ids", "echo"), required=True)
    nr.add_argument("--peer-listen", required=True, help="host:port to accept the gateway on")
    nr.add_argument("--rings", type=int, default=1)
    nr.add_argument("--ring-size", type=int, default=256)
    nr.add_argument("--batch-size", type=int, default=10)
    nr.add_argument("--cache-entries", type=int, default=32768)
    nr.add_argument("--state-size", type=int, default=512)
    nr.add_argument("--expiration-s", type=int, default=60)
    nr.add_argument("--patterns", default=None)
    nr.add_argument("--events", default=None, help="event CSV output path")
    nr.add_argument("--secret", default="enclavetap-dev")
    nr.add_argument("--run-s", type=float, default=0, help="stop after N seconds (0 = until peer closes)")
    nr.set_defaults(func=cmd_nf)

    b = sub.add_parser("bench", help="benchmark harness")
    bsub = b.add_subparsers(dest="bench_cmd", required=True)

    bs = bsub.add_parser("sweep")
    bs.add_argument("--param", required=True)
    bs.add_argument("--values", required=True, help="comma-separated values")
    bs.add_argument("--pkt-size", type=int, default=64)
    bs.add_argument("--count", type=int, default=200_000)
    bs.add_argument("--flows", type=int, default=1024)
    bs.add_argument("--zipf", type=float, default=0.0)
    bs.add_argument("--reps", type=int, default=1)
    bs.add_argument("--crossing-delay-us", type=int, default=DEFAULT_SWEEP_CROSSING_DELAY_US)
    bs.add_argument("--out", default="csv")
    bs.set_defaults(func=cmd_bench_sweep)

    bv = bsub.add_parser("variants")
    bv.add_argument("--nf", choices=("flowmeter", "ids"), default="flowmeter")
    bv.add_argument("--flows", type=int, default=600_000)
    bv.add_argument("--count", type=int, default=2_000_000)
    bv.add_argument("--pkt-size", type=int, default=128)
    bv.add_argument("--zipf", type=float, default=1.1)
    bv.add_argument("--cache-entries", type=int, default=32768)
    bv.add_argument("--state-size", type=int, default=512)
    bv.add_argument("--out", default="csv")
    bv.set_defaults(func=cmd_bench_variants)

    bm = bsub.add_parser("missrate")
    bm.add_argument("--trace", default=None, help="pcap file; omit to use a synthetic trace")
    bm.add_argument("--flows", type=int, default=600_000)
    bm.add_argument("--count", type=int, default=3_000_000)
    bm.add_argument("--zipf", type=float, default=1.2)
    bm.add_argument("--seed", type=int, default=5)
    bm.add_argument("--cache", default="1024,4096,16384,32768")
    bm.add_argument("--out", default="csv")
    bm.set_defaults(func=cmd_bench_missrate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
