"""The benchmark's own tests: every workload at a tiny size, the output
contract, and one corrupted output per correctness check.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY_S = 0.3


def tiny_run(wl, tracer=None):
    wl.prepare_inputs()
    if tracer is not None:
        wl.instrument(tracer)
    return run.measure(wl, TINY_S, tracer)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_clean(name):
    wl = workloads.WORKLOADS[name](3)
    result = tiny_run(wl)
    assert wl.checks.ok, wl.checks.messages
    assert result["samples"] and result["attempted"] >= sum(p for p, *_ in result["samples"])
    if wl.mgr is not None:
        assert wl.mgr.tracked_flows == 0 and wl.mgr.cached_flows == 0
        assert wl.events_seen > 0


def test_names_match_benchmark_json():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"] for m in run.SPEC["per_layer"]} == set(run.PER_LAYER)


def test_same_seed_same_inputs():
    a = inputs.FlowTraffic("x:1", 8, (2, 5), (64, 1400), 10, inputs.ids_patterns(1, 4), 0.5)
    b = inputs.FlowTraffic("x:1", 8, (2, 5), (64, 1400), 10, inputs.ids_patterns(1, 4), 0.5)
    assert a.take(200) == b.take(200)
    assert inputs.EchoTraffic(5, 16, 64).take(50) == inputs.EchoTraffic(5, 16, 64).take(50)
    assert inputs.EchoTraffic(5, 16, 64).take(50) != inputs.EchoTraffic(6, 16, 64).take(50)


def test_frames_parse_as_built():
    from enclavetap.packets import parse_packet

    t = inputs.FlowTraffic("y:2", 4, (3, 3), (64, 1400), 10)
    for _, frame in t.take(12):
        pp = parse_packet(frame)
        assert pp is not None and pp.total_len == len(frame) - 14
        assert pp.payload_off + pp.payload_len == len(frame)


def test_planted_patterns_only_inside_one_window():
    t = inputs.FlowTraffic("z:3", 4, (40, 40), (1300, 1400), 10, inputs.ids_patterns(3, 8), 1.0)
    t.finish()
    while not t.done:
        t.take(64)
    plants = [(f, p) for _, f in t.completed for p in f.plants]
    assert plants
    for f, (pid, end) in plants:
        start = end - len(t.patterns[pid])
        assert start // t.WINDOW == (end - 1) // t.WINDOW


def test_traced_run_gives_every_layer_metric():
    wl = workloads.WORKLOADS["ids-fullstack"](4)
    tracer = Tracer()
    result = tiny_run(wl, tracer)
    assert wl.checks.ok, wl.checks.messages
    metrics = run.per_layer(result, tracer)
    assert set(metrics) == set(run.PER_LAYER)
    for name in ("wire.seal_s", "etap.rx_s", "nf.process_s", "statemgmt.track_s",
                 "packets.parse_s", "channel.recv_s"):
        assert metrics[name]["value"] > 0, name
    assert tracer.spans and all(s[5] >= 0 for s in tracer.spans)
    # traced bursts leave the program as they found it
    assert wl.nf.state is wl.mgr
    from enclavetap import statemgmt

    assert statemgmt.seal_state.__module__ == "enclavetap.statemgmt"


def test_meter_swap_trace_sees_swapping():
    wl = workloads.WORKLOADS["meter-swap"](5)
    tracer = Tracer()
    result = tiny_run(wl, tracer)
    metrics = run.per_layer(result, tracer)
    assert metrics["statemgmt.seal_s"]["value"] > 0 and metrics["statemgmt.open_s"]["value"] > 0
    assert 0 < metrics["statemgmt.hit_ratio"]["value"] < 0.5
    assert metrics["wire.seal_s"]["value"] == 0


# ------------------------------------------------------- corrupted outputs

def test_flipped_byte_in_returned_packet_fails():
    wl = workloads.WORKLOADS["tunnel-echo-64"](6)
    from enclavetap.wire import PktInfo

    flipped = []
    echo = wl._ops[False].step

    def flip_once(pkt):
        pkt = echo(pkt)
        if flipped:
            return pkt
        flipped.append(1)
        data = bytearray(pkt.data)
        data[-1] ^= 0x01
        return PktInfo(pkt.ts_us, bytes(data))

    wl._ops[False].step = flip_once
    tiny_run(wl)
    assert wl.checks.failed == 1, wl.checks.messages
    assert any("altered" in m for m in wl.checks.messages)


def test_returned_packets_check():
    sent = [(1, b"abc"), (2, b"def")]
    ok = [inputs_frame(1, b"abc"), inputs_frame(2, b"def")]
    assert checks.returned_packets(sent, ok) is None
    assert checks.returned_packets(sent, ok[::-1])  # order
    assert checks.returned_packets(sent, ok[:1])  # loss
    assert checks.returned_packets(sent, [inputs_frame(1, b"abd"), ok[1]])  # a flipped byte


def inputs_frame(ts, data):
    from enclavetap.wire import FRAME_DATA, Frame

    return Frame(FRAME_DATA, ts, data)


def test_odd_sized_channel_chunk_fails():
    found = checks.Checks()
    wl = workloads.WORKLOADS["tunnel-echo-64"](7)
    chan = workloads.CheckedChannel(wl.tunnel.chan._inner, found)
    chan.send(bytes(inputs.SEALED * 2))
    assert found.ok
    chan.send(bytes(inputs.SEALED + 1))
    assert not found.ok
    assert checks.channel_send(0)


def test_wrong_per_flow_byte_total_fails():
    class Corrupt(workloads.MeterSwap):
        done = False

        def check_burst(self, pkts, result):
            for i, ev in enumerate(self.nf.events):
                if ev.kind == "fin" and not self.done:
                    pkts_, nbytes = checks.parse_fin_detail(ev.detail)
                    self.nf.events[i] = ev._replace(detail=f"pkts={pkts_};bytes={nbytes + 1}")
                    self.done = True
            super().check_burst(pkts, result)

    wl = Corrupt(8)
    tiny_run(wl)
    assert not wl.checks.ok
    assert any("fin reports" in m for m in wl.checks.messages)
    assert any("sum to" in m for m in wl.checks.messages)


def test_missing_ids_event_fails():
    class Corrupt(workloads.IdsFullstack):
        dropped = False

        def check_burst(self, pkts, result):
            if self.nf.events and not self.dropped:
                self.nf.events.pop()
                self.dropped = True
            super().check_burst(pkts, result)

    wl = Corrupt(9)
    tiny_run(wl)
    assert wl.dropped
    assert not wl.checks.ok
    assert any("IDS reported" in m for m in wl.checks.messages)


def test_record_count_and_state_checks():
    model = {"g2e_data": 10, "e2g": 10}
    assert checks.record_counts(model, dict(model)) is None
    assert checks.record_counts(model, {"g2e_data": 10, "e2g": 11})
    assert checks.state_empty(0, 0) is None
    assert checks.state_empty(1, 0) and checks.state_empty(0, 1)
    assert checks.flow_totals(b"f", (3, 300), None)
    assert checks.grand_totals((3, 300), (3, 299))


def test_record_model_matches_packing_rule():
    lens = [64] * 2184
    assert inputs.fill_batch(lens + [64], 10) == 2184  # 2184 * 75 B just fits 10 records
    assert inputs.records_for(lens) == 10
    assert inputs.records_for([inputs.RECORD - inputs.FRAME_HDR]) == 1
    assert inputs.records_for([inputs.RECORD - inputs.FRAME_HDR + 1]) == 2


# ------------------------------------------------------------ the command

def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_cli_prints_one_result_line():
    p = run_cli(HERE.parent, "--workload", "meter-swap", "--seed", "1", "--seconds", "0.5",
                "--trace", "0")
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert ({k: v["unit"] for k, v in out["metrics"].items()}
            == {m["name"]: m["unit"] for m in run.SPEC["end_to_end"]})
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_cli_trace_prints_overhead_and_layers():
    p = run_cli(HERE.parent, "--workload", "tunnel-echo-64", "--seed", "2", "--seconds", "0.5",
                "--trace", "1")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    assert "tracing overhead" in lines[-2]
    out = json.loads(lines[-1])
    assert set(out["metrics"]) == set(run.PER_LAYER)
    trace = json.loads((HERE / "out" / "trace-tunnel-echo-64-seed2.json").read_text())
    assert trace["spans"] and set(trace["per_layer"]) == set(run.PER_LAYER)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = run_cli(tmp_path, "--workload", "meter-swap", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert not p.stdout.strip()
