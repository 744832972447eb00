"""Output checks: each compares what the program produced with what the
benchmark worked out on its own, and returns a message when they differ."""

from __future__ import annotations

from inputs import SEALED


class Checks:
    """Collects failed checks; a run is correct only if none failed."""

    KEEP = 20

    def __init__(self) -> None:
        self.failed = 0
        self.messages: list[str] = []

    def add(self, message: str | None) -> None:
        if message is None:
            return
        self.failed += 1
        if len(self.messages) < self.KEEP:
            self.messages.append(message)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def returned_packets(sent: list[tuple[int, bytes]], frames) -> str | None:
    """Every packet comes back byte-identical, with its timestamp, in order."""
    got = [(f.ts_us, f.data) for f in frames]
    if got == sent:
        return None
    if len(got) != len(sent):
        return f"sent {len(sent)} packets, {len(got)} came back"
    i = next(i for i, (a, b) in enumerate(zip(sent, got)) if a != b)
    return f"packet {i} of the burst came back altered"


def channel_send(nbytes: int) -> str | None:
    """One send on the channel carries a whole number of sealed records."""
    if nbytes == 0 or nbytes % SEALED:
        return f"channel send of {nbytes} bytes is not a whole number of {SEALED}-byte records"
    return None


def record_counts(model: dict[str, int], seen: dict[str, int]) -> str | None:
    """Records counted per direction equal the count worked out from packet lengths."""
    bad = [f"{k}: expected {model[k]}, counted {seen.get(k)}" for k in model if seen.get(k) != model[k]]
    return "record counts differ: " + "; ".join(bad) if bad else None


def flow_totals(fid: bytes, sent: tuple[int, int], fin: tuple[int, int] | None) -> str | None:
    """A flow's FIN event reports the packets and IP bytes its inputs hold."""
    if fin is None:
        return f"flow {fid.hex()}: no fin event"
    if fin != sent:
        return f"flow {fid.hex()}: fin reports {fin[0]} pkts/{fin[1]} B, inputs hold {sent[0]}/{sent[1]}"
    return None


def grand_totals(sent: tuple[int, int], reported: tuple[int, int]) -> str | None:
    """Per-flow totals summed over all flows equal the packets and bytes sent."""
    if sent != reported:
        return f"fin events sum to {reported[0]} pkts/{reported[1]} B, sent {sent[0]}/{sent[1]}"
    return None


def parse_fin_detail(detail: str) -> tuple[int, int]:
    """``pkts=N;bytes=M`` as the flow meter writes it."""
    fields = dict(kv.split("=", 1) for kv in detail.split(";"))
    return int(fields["pkts"]), int(fields["bytes"])


def ids_events(fid: bytes, planted: set[tuple[int, int]], events: list[tuple[int, int]]) -> str | None:
    """A flow's (pattern, stream end offset) events are exactly the planted set."""
    if len(events) == len(planted) and set(events) == planted:
        return None
    return (f"flow {fid.hex()}: IDS reported {sorted(events)}, planted {sorted(planted)}")


def state_empty(tracked: int, cached: int) -> str | None:
    """Once every flow has ended, the state manager holds nothing."""
    if tracked or cached:
        return f"state left behind: {tracked} tracked flows, {cached} cached"
    return None
