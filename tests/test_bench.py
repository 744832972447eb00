import csv
import os

import pytest

from enclavetap.bench import (
    IoWorkloadConfig,
    NativeState,
    StrawmanState,
    SweepSpec,
    VariantWorkload,
    emit_report,
    measure_miss_rate,
    run_io_workload,
    run_sweep,
    run_variant,
    run_variants,
    sync_comparison,
    trace_fids,
)
from enclavetap.boundary import BoundaryConfig, MemoryEnv
from enclavetap.errors import AuthFailure
from enclavetap.gateway import SyntheticConfig, SyntheticSource


def small_workload(**kw):
    base = dict(nf="flowmeter", flows=200, count=8_000, pkt_size=96, zipf=0.8,
                cache_entries=64, state_size=512, seed=21, chunk=512)
    base.update(kw)
    return VariantWorkload(**base)


# ------------------------------------------------------------ state variants

def test_native_state_contract():
    st = NativeState(64, expiration_s=10)
    v, is_new, _ = st.track(b"\x01" * 13, 0)
    assert is_new and len(v) == 64
    v[:2] = b"hi"
    v2, is_new2, _ = st.track(b"\x01" * 13, 1)
    assert not is_new2 and bytes(v2[:2]) == b"hi"
    assert st.terminate(b"\x01" * 13)
    assert not st.terminate(b"\x01" * 13)


def test_native_expire_removes_idle():
    st = NativeState(16, expiration_s=5)
    st.track(b"\x01" * 13, 0)
    st.track(b"\x02" * 13, 8)
    assert st.expire(10) == 1  # only the first is idle past the timeout
    _, is_new, _ = st.track(b"\x01" * 13, 11)
    assert is_new


def test_strawman_seals_and_opens_every_access():
    env = MemoryEnv(BoundaryConfig(trusted_capacity_bytes=1 << 20, untrusted_capacity_bytes=32 << 20))
    st = StrawmanState(128, expiration_s=1 << 30, env=env, seed=3)
    fid = b"\x05" * 13
    v, is_new, _ = st.track(fid, 0)
    assert is_new
    v[:4] = b"data"
    st.track(b"\x06" * 13, 1)  # seals fid back
    assert st.stats.seals == 1
    v, is_new, _ = st.track(fid, 2)  # opens fid again
    assert not is_new
    assert bytes(v[:4]) == b"data"
    assert st.stats.opens == 1
    # repeated access to the same flow still seals/opens (no cache)
    st.track(fid, 3)
    assert st.stats.seals >= 2 and st.stats.opens >= 2


def test_strawman_rejects_tampered_cell():
    env = MemoryEnv(BoundaryConfig(trusted_capacity_bytes=1 << 20, untrusted_capacity_bytes=32 << 20))
    st = StrawmanState(64, expiration_s=1 << 30, env=env, seed=4)
    fid = b"\x09" * 13
    st.track(fid, 0)
    st.track(b"\x0A" * 13, 1)
    env.view(st.store_region_of(fid))[3] ^= 1
    with pytest.raises(AuthFailure):
        st.track(fid, 2)


# ------------------------------------------------------------------ variants

def test_variants_identical_outputs_flowmeter():
    rows = run_variants(small_workload())
    assert len({r.events_digest for r in rows}) == 1
    assert all(r.packets == rows[0].packets for r in rows)
    assert all(r.latency_mean_us > 0 for r in rows)


def test_variants_identical_outputs_ids():
    rows = run_variants(small_workload(nf="ids", state_size=5632, count=4_000))
    assert len({r.events_digest for r in rows}) == 1


def test_variant_strawman_slower_than_managed():
    w = small_workload(count=20_000, flows=100, cache_entries=256, zipf=1.0)
    managed = run_variant(w, "managed")
    strawman = run_variant(w, "strawman")
    assert strawman.latency_mean_us > managed.latency_mean_us
    assert strawman.seal_ops > managed.seal_ops


# ----------------------------------------------------------------- miss rate

def test_miss_rate_monotone_and_analytic_floor():
    src = SyntheticSource(SyntheticConfig(flows=300, count=20_000, seed=31, pkt_size=96, zipf=0.9))
    fids = trace_fids(src)
    distinct = len(set(fids))
    rows = measure_miss_rate(fids, [4, 32, 512])
    rates = [r.cache_miss_rate for r in rows]
    assert rates == sorted(rates, reverse=True)
    # cache larger than the flow population: only cold misses remain
    assert rows[-1].cache_miss_rate == pytest.approx(distinct / len(fids))


# -------------------------------------------------------------- IO pipeline

def test_io_workload_echo_small():
    res = run_io_workload(
        IoWorkloadConfig(pkt_size=64, count=4_000, flows=64, batch_size=4, seed=41, timeout_s=60)
    )
    assert res.packets == 4_000
    assert res.throughput_mpps > 0
    assert res.latency_p50_us > 0
    assert res.crossings > 0


def test_io_workload_flowmeter_small():
    res = run_io_workload(
        IoWorkloadConfig(
            pkt_size=128, count=4_000, flows=128, nf="flowmeter", cache_entries=32,
            batch_size=4, seed=42, timeout_s=60,
        )
    )
    assert res.packets == 4_000
    assert 0 < res.cache_miss_rate < 1
    assert res.seal_ops > 0


def test_sweep_runs_and_tags_rows():
    spec = SweepSpec(
        param="batch_size",
        values=[1, 4],
        base=IoWorkloadConfig(pkt_size=64, count=2_000, flows=32, seed=43, timeout_s=60),
    )
    rows = run_sweep(spec)
    assert [(r.param, r.value) for r in rows] == [("batch_size", "1"), ("batch_size", "4")]


def test_sweep_rejects_unknown_param():
    with pytest.raises(ValueError):
        SweepSpec(param="bogus", values=[1])


# -------------------------------------------------------------------- misc

def test_ring_throughput_and_ordering():
    rates = sync_comparison(("lockfree", "mutex"), items=100_000, reps=1)
    assert rates["lockfree"] > rates["mutex"]


def test_emit_report_writes_csv(tmp_path):
    rows = run_variants(small_workload(count=2_000))
    path = emit_report(rows, str(tmp_path), "variants_test")
    assert os.path.exists(path)
    with open(path) as fp:
        got = list(csv.DictReader(fp))
    assert len(got) == 3
    assert {r["value"] for r in got} == {"native", "strawman", "managed"}
    assert os.path.exists(str(tmp_path / "variants_test.txt"))


def test_cli_bench_missrate(tmp_path):
    from enclavetap.cli import main

    rc = main([
        "bench", "missrate", "--flows", "100", "--count", "3000", "--zipf", "0.8",
        "--cache", "4,64", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert os.path.exists(tmp_path / "missrate.csv")


def test_cli_bench_variants(tmp_path, capsys):
    from enclavetap.cli import main

    rc = main([
        "bench", "variants", "--flows", "200", "--count", "5000", "--cache-entries", "64",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    with open(tmp_path / "variants_flowmeter.csv") as fp:
        got = list(csv.DictReader(fp))
    assert [r["value"] for r in got] == ["native", "strawman", "managed"]
    assert "outputs identical across variants: True" in capsys.readouterr().out
